//! The serverless backend's GPU-server selection (§IV) and retries.
//!
//! "Our prototype uses a fixed policy to choose, given a function requesting
//! a GPU, which GPU server to use. Different policies can be used in a
//! commercial deployment, such as choosing the least loaded GPU server to
//! optimize latency or the opposite to increase utilization." This module
//! routes over multiple provisioned [`GpuServer`]s with the prototype's
//! round-robin or a load-aware score over the monitors' gauges
//! ([`FleetPolicy`], applied by the [`ClusterBalancer`]); scaling out is
//! exactly as simple as the paper describes — a new server registers
//! itself and becomes a choice.
//!
//! The backend is also where failure recovery lives: a transient
//! (transport-class) attempt failure triggers a bounded retry with
//! exponential backoff, preferring a *different* GPU server for the next
//! attempt. Every invocation therefore terminates: it either completes or
//! comes back as a [`FunctionResult`] with `failure` set after the attempt
//! budget is spent.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::ApiStats;
use dgsf_remoting::OptConfig;
use dgsf_server::{FleetPolicy, GpuServer};
use dgsf_sim::telemetry::kind::Label;
use dgsf_sim::{
    lit, ArgValue, Dur, Id, ObsPlane, ProcCtx, SimCell, SimHandle, SimTime, TraceCtx, TraceOutcome,
};

use crate::cluster::ClusterBalancer;
use crate::invoke::{
    failure_text, record_request_span, FailureClass, FunctionResult, InvokeOptions, Invoker,
};
use crate::phases::{phase, PhaseRecorder};
use crate::store::ObjectStore;
use crate::tenant::FairShedder;
use crate::workload::Workload;

/// Attempt budget per function, first try included: a transient failure is
/// retried at most twice.
const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the second attempt; each later backoff doubles it.
const INITIAL_BACKOFF: Dur = Dur::from_millis(50);

/// Backoff to sleep after failed attempt number `attempt` (1-based):
/// 50 ms, then 100 ms within the attempt budget.
fn backoff(attempt: u32) -> Dur {
    Dur(INITIAL_BACKOFF.0 << (attempt - 1))
}

/// Admission control at the backend's front door: bounded concurrency and
/// queue age, so overload turns into fast, explicit shedding instead of
/// unbounded queueing. Shed invocations come back immediately with
/// [`FunctionResult::shed`] set and are never retried.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum invocations admitted concurrently (platform-wide). Anything
    /// beyond is shed on arrival.
    pub max_inflight: usize,
    /// Maximum time one attempt may wait in a GPU server's queue before
    /// the work is shed as overload (bounds queue *age*, not just depth).
    pub max_queue_age: Option<Dur>,
    /// Per-tenant fair shedding: each tenant owns an equal share of the
    /// budget and borrows beyond it from a token bucket. `false` is the
    /// FIFO baseline: slots go to whoever arrives first, tenant-blind.
    pub fair: bool,
}

impl AdmissionConfig {
    /// Admit up to `max_inflight` concurrent invocations; no age bound.
    pub fn new(max_inflight: usize) -> AdmissionConfig {
        assert!(max_inflight >= 1, "admitting nothing serves nothing");
        AdmissionConfig {
            max_inflight,
            max_queue_age: None,
            fair: false,
        }
    }

    /// Builder-style: bound per-attempt queue wait.
    pub fn with_max_queue_age(mut self, d: Dur) -> Self {
        self.max_queue_age = Some(d);
        self
    }

    /// Builder-style: shed per tenant (fair share) instead of FIFO.
    pub fn with_weighted_fair(mut self) -> Self {
        self.fair = true;
        self
    }
}

/// Live admission counters (one lock: admission decisions are atomic).
#[derive(Default)]
struct AdmissionState {
    inflight: usize,
    /// Present iff the admission config asked for fair shedding.
    fair: Option<FairShedder>,
}

/// RAII release of an admission slot.
struct AdmissionSlot<'a> {
    state: &'a SimCell<AdmissionState>,
    /// Tenant charged by the fair shedder, when fair shedding is on.
    tenant: Option<String>,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.inflight -= 1;
        if let (Some(t), Some(fair)) = (&self.tenant, st.fair.as_mut()) {
            fair.release(t);
        }
    }
}

/// How a request ended, before it is reported: what each exit of
/// [`Backend::invoke`] hands to its one `finish`, and what an attempt that
/// completes returns. It ends at the instant it is reported: no exit parks
/// between deciding the outcome and reporting it.
pub(crate) struct Terminal {
    pub(crate) outcome: TraceOutcome,
    /// Why the request did not complete; empty when it did.
    pub(crate) reason: String,
    pub(crate) phases: PhaseRecorder,
    pub(crate) api_stats: ApiStats,
    pub(crate) invocation: Option<u64>,
    pub(crate) attempts: u32,
    /// API server the last attempt ran on, when known.
    pub(crate) server: Option<u32>,
    /// Queue wait summed across every attempt.
    pub(crate) queue_wait: Dur,
}

impl Terminal {
    /// The caller's view of this end of `w`'s request `trace`, launched at
    /// `launched_at` and ended at `finished_at`.
    pub(crate) fn into_result(
        self,
        w: &dyn Workload,
        launched_at: SimTime,
        finished_at: SimTime,
        trace: u64,
    ) -> FunctionResult {
        FunctionResult {
            name: w.name().to_string(),
            tenant: w.tenant().to_string(),
            launched_at,
            finished_at,
            phases: self.phases,
            api_stats: self.api_stats,
            invocation: self.invocation,
            attempts: self.attempts,
            failure: failure_text(self.outcome, self.reason),
            shed: self.outcome == TraceOutcome::Shed,
            trace: Some(trace),
            server: self.server,
        }
    }
}

/// The central serverless backend: a registry of GPU servers plus the
/// cluster balancer that routes across them.
pub struct Backend {
    servers: Vec<Arc<GpuServer>>,
    balancer: ClusterBalancer,
    admission: Option<AdmissionConfig>,
    admitted: SimCell<AdmissionState>,
    /// Online observability plane: fed one arrival per invocation and one
    /// completion per terminal outcome (with the queue wait summed across
    /// every attempt, matching the offline trace decomposition).
    obs: Option<Rc<ObsPlane>>,
    /// Each function invoked so far, in first-use order.
    fns: SimCell<Vec<FnNames>>,
    /// The simulation the backend's state belongs to.
    sim: SimHandle,
}

/// One function's tenant and span names, made at its first invocation, so
/// a repeated invocation allocates, formats and looks up none of them.
struct FnNames {
    /// The function's name.
    name: Box<str>,
    /// Its tenant, shared by every request's [`TraceCtx`].
    tenant: Arc<str>,
    /// Span names resolved in the simulation's telemetry registry:
    /// `req:{name}` at index 0, then `invoke:{name}:a{k}` at index `k`,
    /// up to the highest attempt traced. Empty while telemetry is off.
    labels: Vec<Id<Label>>,
}

impl Backend {
    /// Build a backend over already-provisioned servers of the simulation
    /// `h` belongs to.
    pub fn new(h: &SimHandle, servers: Vec<Arc<GpuServer>>, policy: FleetPolicy) -> Backend {
        assert!(
            !servers.is_empty(),
            "a backend needs at least one GPU server"
        );
        Backend {
            servers,
            balancer: ClusterBalancer::new(policy),
            admission: None,
            admitted: SimCell::new(h, AdmissionState::default()),
            obs: None,
            fns: SimCell::new(h, Vec::new()),
            sim: h.clone(),
        }
    }

    /// Feed the online observability plane: every invocation records an
    /// arrival on entry and a completion (with its attempt-summed queue
    /// wait) on any terminal outcome. The plane only watches: it never
    /// changes what the backend admits or where it routes.
    pub fn with_obs(mut self, obs: Rc<ObsPlane>) -> Backend {
        self.obs = Some(obs);
        self
    }

    /// Turn on admission control. Without it the backend admits everything
    /// and queues without bound (the paper's prototype behaviour). Under
    /// fair shedding, `tenants` (those of the functions the run may invoke)
    /// split the budget from t = 0, before any of them has arrived.
    pub fn with_admission<'t>(
        mut self,
        admission: AdmissionConfig,
        tenants: impl IntoIterator<Item = &'t str>,
    ) -> Backend {
        if admission.fair {
            self.admitted.lock().fair = Some(FairShedder::new(tenants));
        }
        self.admission = Some(admission);
        self
    }

    /// Turn on bounded sticky tenant placement: the balancer steers each
    /// tenant back to its warm servers, capped at half the fleet (the
    /// MQFQ-Sticky locality half).
    pub fn with_sticky(mut self) -> Backend {
        self.balancer = ClusterBalancer::new(self.balancer.policy()).with_sticky(&self.sim);
        self
    }

    /// The cluster balancer (for inspecting warm sets and cold placements).
    pub fn balancer(&self) -> &ClusterBalancer {
        &self.balancer
    }

    /// The fleet policy the balancer routes under.
    pub fn policy(&self) -> FleetPolicy {
        self.balancer.policy()
    }

    /// Invocations currently admitted (holding an admission slot).
    pub fn inflight(&self) -> usize {
        self.admitted.lock().inflight
    }

    /// A GPU server announcing readiness (§IV: "it annouces it is ready
    /// ... and becomes a choice when a function requests a GPU").
    pub fn register(&mut self, server: Arc<GpuServer>) {
        self.servers.push(server);
    }

    /// The registered servers.
    pub fn servers(&self) -> &[Arc<GpuServer>] {
        &self.servers
    }

    /// Invoke a workload through the backend: choose a server, run the full
    /// DGSF path against it, and on a transient failure retry (with
    /// backoff, preferring a different server) up to the attempt budget.
    ///
    /// Always returns: check [`FunctionResult::outcome`] for how it ended.
    /// `launched_at`/`finished_at` span the whole invocation including
    /// retries and backoff, so `e2e()` reflects what the client observed.
    pub fn invoke(
        &self,
        p: &ProcCtx,
        store: &ObjectStore,
        w: &dyn Workload,
        opts: OptConfig,
    ) -> FunctionResult {
        let launched_at = p.now();
        let tel = p.telemetry();
        tel.counter_add(lit!("backend.invocations"), 1);
        if let Some(obs) = &self.obs {
            obs.record_arrival(launched_at);
        }
        // One causal trace per request, spanning every retry attempt; the
        // id rides the admission slot, the monitor queue and the RPC
        // envelopes so every layer's spans share it.
        let fid = self.fn_index(p, w);
        let tenant = Arc::clone(&self.fns.borrow_in(p)[fid].tenant);
        let trace = TraceCtx::new(tel.next_trace_id(), tenant);
        // Admission control: claim a slot (held until the request is
        // reported) or shed on the spot, never retried.
        let (_slot, end) = match self.try_admit(p, w) {
            Ok(slot) => (slot, self.attempts(p, store, w, fid, opts, &trace)),
            Err(reason) => (
                None,
                Terminal {
                    outcome: TraceOutcome::Shed,
                    reason,
                    phases: PhaseRecorder::new(),
                    api_stats: ApiStats::default(),
                    invocation: None,
                    attempts: 0,
                    server: None,
                    queue_wait: Dur::ZERO,
                },
            ),
        };
        self.finish(p, w, fid, &trace, launched_at, end)
    }

    /// Run an admitted request's attempts until one completes, its reply
    /// is recovered, or the failures stop it. `fid` is `w`'s index in
    /// `self.fns`.
    fn attempts(
        &self,
        p: &ProcCtx,
        store: &ObjectStore,
        w: &dyn Workload,
        fid: usize,
        opts: OptConfig,
        trace: &TraceCtx,
    ) -> Terminal {
        let tel = p.telemetry();
        let max_queue_age = self.admission.as_ref().and_then(|a| a.max_queue_age);
        let options = InvokeOptions::new(opts).with_max_queue_age(max_queue_age);
        let mut avoid = None;
        let mut attempt = 1;
        // Queue wait summed across every attempt — the same total the
        // offline trace decomposition assigns to the "queue" segment, so
        // online burn alerts reconcile with post-hoc attribution.
        let mut queue_wait = Dur::ZERO;
        loop {
            // Routing: the balancer never hands out a lease-expired
            // server. A fully expired fleet is a permanent failure, not a
            // shed — retrying or queueing cannot help.
            let Some(idx) = self.balancer.route_for(w.tenant(), &self.servers, avoid) else {
                return Terminal {
                    outcome: TraceOutcome::Failed,
                    reason: "no live GPU server: every lease expired".into(),
                    phases: PhaseRecorder::new(),
                    api_stats: ApiStats::default(),
                    invocation: None,
                    attempts: attempt - 1,
                    server: None,
                    queue_wait,
                };
            };
            tel.counter_add(lit!("backend.attempts"), 1);
            let invoker = Invoker::new(&self.servers[idx], store);
            let label = tel.is_enabled().then(|| self.label(p, fid, attempt).into());
            let trace = trace.with_attempt(attempt);
            let f = match invoker.attempt(p, w, &options, &trace, None, label) {
                Ok(done) => {
                    let queue_wait = queue_wait + done.queue_wait;
                    return Terminal { queue_wait, ..done };
                }
                Err(f) => f,
            };
            queue_wait += f.phases.get(phase::QUEUE);
            // Exactly-once fence: from here a lost *reply* is
            // indistinguishable from a lost request. If the server's own
            // record says the invocation completed, the work happened and
            // only the response died on the wire — re-running it would
            // execute the function twice, so recover the completion
            // instead of retrying.
            if f.class == FailureClass::Transient {
                if let Some(inv) = f.invocation {
                    if self.servers[idx].invocation_completed(inv) {
                        tel.counter_add(lit!("backend.recovered_replies"), 1);
                        if tel.is_enabled() {
                            tel.instant(
                                p.track(),
                                lit!("reply-recovered"),
                                p.now(),
                                &[
                                    (lit!("workload"), w.name().into()),
                                    (lit!("invocation"), inv.into()),
                                    (lit!("inv"), trace.id.into()),
                                ],
                            );
                        }
                        return Terminal {
                            outcome: TraceOutcome::Completed,
                            reason: String::new(),
                            phases: *f.phases,
                            // The reply carried the stats; they died with it.
                            api_stats: ApiStats::default(),
                            invocation: Some(inv),
                            attempts: attempt,
                            server: self.servers[idx].invocation_server(inv),
                            queue_wait,
                        };
                    }
                }
            }
            // Overloaded is deliberately not retried: piling retries onto
            // a saturated platform makes it worse.
            if f.class != FailureClass::Transient || attempt >= MAX_ATTEMPTS {
                return Terminal {
                    outcome: f.outcome(),
                    reason: f.error.to_string(),
                    phases: *f.phases,
                    api_stats: ApiStats::default(),
                    invocation: f.invocation,
                    attempts: attempt,
                    server: None,
                    queue_wait,
                };
            }
            if tel.is_enabled() {
                tel.counter_add(lit!("backend.retries"), 1);
                tel.instant(
                    p.track(),
                    lit!("retry"),
                    p.now(),
                    &[
                        (lit!("workload"), w.name().into()),
                        (lit!("failed_attempt"), attempt.into()),
                        (lit!("error"), ArgValue::Str(&f.error.to_string())),
                        (lit!("inv"), trace.id.into()),
                    ],
                );
            }
            avoid = Some(idx);
            p.sleep(backoff(attempt));
            attempt += 1;
        }
    }

    /// Report how a request ended, in one place: the `backend.shed` or
    /// `backend.failures` counter (with a `shed` instant), the `req:`
    /// request span and the obs plane's completion, then the caller's
    /// [`FunctionResult`].
    fn finish(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
        fid: usize,
        trace: &TraceCtx,
        launched_at: SimTime,
        end: Terminal,
    ) -> FunctionResult {
        let (tel, now) = (p.telemetry(), p.now());
        match end.outcome {
            TraceOutcome::Completed => {}
            TraceOutcome::Shed => {
                tel.counter_add(lit!("backend.shed"), 1);
                if tel.is_enabled() {
                    tel.instant(
                        p.track(),
                        TraceOutcome::Shed.lit(),
                        now,
                        &[
                            (lit!("workload"), w.name().into()),
                            (lit!("reason"), ArgValue::Str(&end.reason)),
                            (lit!("inv"), trace.id.into()),
                        ],
                    );
                }
            }
            TraceOutcome::Failed => tel.counter_add(lit!("backend.failures"), 1),
        }
        if tel.is_enabled() {
            let req = self.label(p, fid, 0).into();
            record_request_span(p, trace, req, launched_at, end.outcome, end.attempts);
        }
        let completed = end.outcome == TraceOutcome::Completed;
        if let Some(obs) = &self.obs {
            let e2e = now.since(launched_at);
            obs.record_completion(now, w.tenant(), e2e, end.queue_wait, completed);
        }
        end.into_result(w, launched_at, now, trace.id)
    }

    /// `w`'s index in `self.fns`, adding it at its first invocation. A
    /// function is its name and tenant: two tenants may deploy the same
    /// name.
    fn fn_index(&self, p: &ProcCtx, w: &dyn Workload) -> usize {
        let mut fns = self.fns.borrow_in(p);
        fns.iter()
            .position(|f| *f.name == *w.name() && *f.tenant == *w.tenant())
            .unwrap_or_else(|| {
                fns.push(FnNames {
                    name: w.name().into(),
                    tenant: w.tenant().into(),
                    labels: Vec::new(),
                });
                fns.len() - 1
            })
    }

    /// Function `fid`'s `req:` span name (`attempt` 0), or its `invoke:`
    /// span name of `attempt`, resolved at the first call.
    fn label(&self, p: &ProcCtx, fid: usize, attempt: u32) -> Id<Label> {
        let tel = p.telemetry();
        let mut fns = self.fns.borrow_in(p);
        let f = &mut fns[fid];
        while f.labels.len() <= attempt as usize {
            let name = match f.labels.len() {
                0 => format!("req:{}", f.name),
                k => format!("invoke:{}:a{k}", f.name),
            };
            f.labels.push(tel.id(&name));
        }
        f.labels[attempt as usize]
    }

    /// Claim an admission slot for `w`, or say why it was refused.
    fn try_admit(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
    ) -> Result<Option<AdmissionSlot<'_>>, String> {
        let Some(adm) = &self.admission else {
            return Ok(None); // no admission control: everything enters
        };
        let mut st = self.admitted.borrow_in(p);
        if st.inflight >= adm.max_inflight {
            return Err(format!(
                "inflight limit reached ({}/{})",
                st.inflight, adm.max_inflight
            ));
        }
        // Fair shedding: within the global budget, each tenant owns an
        // equal share and borrows beyond it only as fast as its token
        // bucket refills — the most over-budget tenant is the one refused.
        let max_inflight = adm.max_inflight;
        let tenant = if let Some(fair) = st.fair.as_mut() {
            let t = w.tenant();
            if !fair.try_admit(t, p.now(), max_inflight) {
                return Err(format!(
                    "tenant '{t}' over fair share ({} inflight / {} slots, bucket empty)",
                    fair.inflight_of(t),
                    fair.share(max_inflight),
                ));
            }
            Some(t.to_string())
        } else {
            None
        };
        st.inflight += 1;
        Ok(Some(AdmissionSlot {
            state: &self.admitted,
            tenant,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_remoting::NetProfile;
    use dgsf_server::GpuServerConfig;
    use dgsf_sim::{Dur, Sim};

    use crate::Spin;

    /// One 1 s kernel per call.
    fn spin() -> Spin {
        Spin {
            gpu_secs: 1.0,
            ..Spin::default()
        }
    }

    fn two_server_backend(p: &ProcCtx, h: &dgsf_sim::SimHandle, policy: FleetPolicy) -> Backend {
        let cfg = GpuServerConfig::paper_default().gpus(1);
        let s1 = GpuServer::provision(p, h, cfg.clone());
        let s2 = GpuServer::provision(p, h, cfg);
        Backend::new(h, vec![s1, s2], policy)
    }

    #[test]
    fn round_robin_alternates() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("root", move |p| {
            let b = two_server_backend(p, &h, FleetPolicy::RoundRobin);
            let route = || b.balancer().route_for("t", b.servers(), None);
            let (a, c, d) = (route(), route(), route());
            assert_ne!(a, c);
            assert_eq!(a, d);
        });
        sim.run();
    }

    #[test]
    fn retry_backoff_grows_geometrically() {
        assert_eq!(backoff(1), Dur::from_millis(50));
        assert_eq!(backoff(2), Dur::from_millis(100));
        assert_eq!(backoff(3), Dur::from_millis(200));
    }

    #[test]
    fn admission_sheds_beyond_the_inflight_limit() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let results = Rc::new(SimCell::new(&h, Vec::new()));
        let r2 = results.clone();
        sim.spawn("root", move |p| {
            let cfg = GpuServerConfig::paper_default().gpus(1);
            let srv = GpuServer::provision(p, &h, cfg);
            let b = Rc::new(
                Backend::new(&h, vec![srv], FleetPolicy::RoundRobin)
                    .with_admission(AdmissionConfig::new(1), []),
            );
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            for i in 0..2 {
                let b = Rc::clone(&b);
                let store = Arc::clone(&store);
                let r = r2.clone();
                h.spawn(&format!("fn{i}"), move |p| {
                    // stagger by 1 ms so fn0 holds the only slot when fn1
                    // arrives (both well within fn0's ~1 s runtime)
                    p.sleep(Dur::from_millis(i as u64));
                    let res = b.invoke(p, &store, &spin(), OptConfig::full());
                    r.lock().push(res);
                });
            }
            p.sleep(Dur::from_secs(10));
            assert_eq!(b.inflight(), 0, "slots released after completion");
        });
        sim.run();
        let res = results.lock().clone();
        assert_eq!(res.len(), 2);
        let shed: Vec<&FunctionResult> = res.iter().filter(|r| r.shed).collect();
        assert_eq!(shed.len(), 1, "exactly one invocation shed");
        assert_eq!(shed[0].attempts, 0, "shed before any attempt");
        assert!(shed[0].failure.as_deref().unwrap().contains("overloaded"));
        assert!(
            res.iter().any(|r| r.succeeded()),
            "the admitted invocation completed"
        );
    }
}
