//! The serverless backend's GPU-server selection (§IV) and retry policy.
//!
//! "Our prototype uses a fixed policy to choose, given a function requesting
//! a GPU, which GPU server to use. Different policies can be used in a
//! commercial deployment, such as choosing the least loaded GPU server to
//! optimize latency or the opposite to increase utilization." This module
//! implements that policy space over multiple provisioned [`GpuServer`]s;
//! scaling out is exactly as simple as the paper describes — a new server
//! registers itself and becomes a choice.
//!
//! The backend is also where failure recovery lives: a transient
//! (transport-class) attempt failure triggers a bounded retry with
//! exponential backoff, preferring a *different* GPU server for the next
//! attempt. Every invocation therefore terminates: it either completes or
//! comes back as a [`FunctionResult`] with `failure` set after the attempt
//! budget is spent.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::ApiStats;
use dgsf_remoting::OptConfig;
use dgsf_server::{FleetPolicy, GpuServer, InvocationOutcome, ShedPolicy};
use dgsf_sim::{
    ArgValue, Dur, ObsPlane, ProcCtx, SimCell, SimHandle, SimTime, TraceCtx, TraceOutcome,
};

use crate::cluster::ClusterBalancer;
use crate::invoke::{
    failure_text, record_request_span, FailureClass, FunctionResult, InvokeOptions, Invoker,
};
use crate::phases::{phase, PhaseRecorder};
use crate::store::ObjectStore;
use crate::tenant::{FairShedConfig, FairShedder};
use crate::workload::Workload;

/// Attempt budget per function, first try included: a transient failure is
/// retried at most twice.
const MAX_ATTEMPTS: u32 = 3;

/// Bounded retry-with-backoff for transient invocation failures, up to
/// three attempts per function.
///
/// All arithmetic is integer milliseconds: the old `f64` `powi` path
/// rounded differently across platforms and silently went infinite for
/// large attempt counts. Growth is expressed in permille so non-integral
/// factors (×1.5 = 1500) stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before the second attempt, in milliseconds.
    pub initial_backoff_ms: u64,
    /// Growth factor for each subsequent backoff, in permille
    /// (2000 = double each time).
    pub backoff_multiplier_permille: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            initial_backoff_ms: 50,
            backoff_multiplier_permille: 2000,
        }
    }
}

impl RetryPolicy {
    /// Builder-style: set the first backoff in milliseconds.
    pub fn with_initial_backoff_ms(mut self, ms: u64) -> Self {
        self.initial_backoff_ms = ms;
        self
    }

    /// Builder-style: set the growth factor in permille (2000 = ×2).
    pub fn with_multiplier_permille(mut self, permille: u64) -> Self {
        self.backoff_multiplier_permille = permille;
        self
    }

    /// Backoff to sleep after failed attempt number `attempt` (1-based).
    /// Saturates instead of overflowing: absurd policies produce the
    /// longest representable backoff, never a wrapped short one.
    pub fn backoff(&self, attempt: u32) -> Dur {
        // Largest millisecond count Dur's u64 nanoseconds can hold.
        const MAX_MS: u128 = (u64::MAX / 1_000_000) as u128;
        let mut ms: u128 = self.initial_backoff_ms as u128;
        for _ in 1..attempt {
            ms = ms.saturating_mul(self.backoff_multiplier_permille as u128) / 1000;
            if ms >= MAX_MS {
                ms = MAX_MS;
                break;
            }
        }
        Dur::from_millis(ms.min(MAX_MS) as u64)
    }
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
    /// Per-workload concurrency cap: one hot function cannot occupy the
    /// whole admitted set.
    pub max_per_workload: Option<usize>,
    /// Per-tenant weighted fair shedding ([`ShedPolicy::WeightedFair`]).
    /// `None` is the FIFO baseline: slots go to whoever arrives first,
    /// tenant-blind.
    pub fairness: Option<FairShedConfig>,
}

impl AdmissionConfig {
    /// Admit up to `max_inflight` concurrent invocations; no age or
    /// per-workload bounds.
    pub fn new(max_inflight: usize) -> AdmissionConfig {
        assert!(max_inflight >= 1, "admitting nothing serves nothing");
        AdmissionConfig {
            max_inflight,
            max_queue_age: None,
            max_per_workload: None,
            fairness: None,
        }
    }

    /// Builder-style: bound per-attempt queue wait.
    pub fn with_max_queue_age(mut self, d: Dur) -> Self {
        self.max_queue_age = Some(d);
        self
    }

    /// Builder-style: cap concurrent invocations of any single workload.
    pub fn with_max_per_workload(mut self, n: usize) -> Self {
        self.max_per_workload = Some(n.max(1));
        self
    }

    /// Builder-style: shed per tenant (weighted fair) instead of FIFO.
    pub fn with_weighted_fair(mut self, fairness: FairShedConfig) -> Self {
        self.fairness = Some(fairness);
        self
    }

    /// Which shed policy this configuration implements.
    pub fn shed_policy(&self) -> ShedPolicy {
        if self.fairness.is_some() {
            ShedPolicy::WeightedFair
        } else {
            ShedPolicy::Fifo
        }
    }
}

/// Live admission counters (one lock: admission decisions are atomic).
#[derive(Default)]
struct AdmissionState {
    inflight: usize,
    per_workload: HashMap<String, usize>,
    /// Present iff the admission config asked for weighted fair shedding.
    fair: Option<FairShedder>,
}

/// RAII release of an admission slot.
struct AdmissionSlot<'a> {
    state: &'a SimCell<AdmissionState>,
    name: String,
    /// Tenant charged by the fair shedder, when fairness is on.
    tenant: Option<String>,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        let mut st = self.state.lock();
        st.inflight -= 1;
        if let Some(n) = st.per_workload.get_mut(&self.name) {
            *n -= 1;
            if *n == 0 {
                st.per_workload.remove(&self.name);
            }
        }
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
            mode: "dgsf".into(),
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
    retry: RetryPolicy,
    admission: Option<AdmissionConfig>,
    admitted: SimCell<AdmissionState>,
    /// Online observability plane: fed one arrival per invocation and one
    /// completion per terminal outcome (with the queue wait summed across
    /// every attempt, matching the offline trace decomposition), and
    /// consulted for per-tenant burn-rate shedding.
    obs: Option<Rc<ObsPlane>>,
    /// The simulation the backend's state belongs to.
    sim: SimHandle,
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
            retry: RetryPolicy::default(),
            admission: None,
            admitted: SimCell::new(h, AdmissionState::default()),
            obs: None,
            sim: h.clone(),
        }
    }

    /// Feed the online observability plane: every invocation records an
    /// arrival on entry and a completion (with its attempt-summed queue
    /// wait) on any terminal outcome, and — when the plane's shed
    /// threshold is configured — new work from a tenant burning its SLO
    /// budget on queueing is refused at the front door.
    pub fn with_obs(mut self, obs: Rc<ObsPlane>) -> Backend {
        self.obs = Some(obs);
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Backend {
        self.retry = retry;
        self
    }

    /// Turn on admission control. Without it the backend admits everything
    /// and queues without bound (the paper's prototype behaviour).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Backend {
        self.admitted.lock().fair = admission.fairness.clone().map(FairShedder::new);
        self.admission = Some(admission);
        self
    }

    /// Turn on bounded sticky tenant placement: the balancer steers each
    /// tenant back to its warm servers, capped at the configured fleet
    /// share (the MQFQ-Sticky locality half).
    pub fn with_sticky(mut self, sticky: crate::cluster::StickyConfig) -> Backend {
        self.balancer = ClusterBalancer::new(self.balancer.policy()).with_sticky(&self.sim, sticky);
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

    /// The shed policy admission control implements ([`ShedPolicy::Fifo`]
    /// when admission control is off entirely).
    pub fn shed_policy(&self) -> ShedPolicy {
        self.admission
            .as_ref()
            .map(|a| a.shed_policy())
            .unwrap_or(ShedPolicy::Fifo)
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

    /// Choose a server for the next function under the configured policy.
    ///
    /// Panics when every registered server's lease has expired — use
    /// [`invoke`](Self::invoke), which reports that case as a failed
    /// [`FunctionResult`] instead.
    pub fn choose(&self) -> &Arc<GpuServer> {
        let idx = self
            .balancer
            .route(&self.servers, None)
            .expect("every registered GPU server's lease has expired");
        &self.servers[idx]
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
        tel.counter_add("backend.invocations", 1);
        if let Some(obs) = &self.obs {
            obs.record_arrival(launched_at);
        }
        // One causal trace per request, spanning every retry attempt; the
        // id rides the admission slot, the monitor queue and the RPC
        // envelopes so every layer's spans share it.
        let trace = TraceCtx::new(tel.next_trace_id(), w.tenant());
        // Admission control: claim a slot (held until the request is
        // reported) or shed on the spot, never retried.
        let (_slot, end) = match self.try_admit(p, w) {
            Ok(slot) => (slot, self.attempts(p, store, w, opts, &trace)),
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
        self.finish(p, w, &trace, launched_at, end)
    }

    /// Run an admitted request's attempts until one completes, its reply
    /// is recovered, or the failures stop it.
    fn attempts(
        &self,
        p: &ProcCtx,
        store: &ObjectStore,
        w: &dyn Workload,
        opts: OptConfig,
        trace: &TraceCtx,
    ) -> Terminal {
        let tel = p.telemetry();
        let max_queue_age = self.admission.as_ref().and_then(|a| a.max_queue_age);
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
            tel.counter_add("backend.attempts", 1);
            let options = InvokeOptions::new(opts)
                .with_attempt(attempt)
                .with_max_queue_age(max_queue_age);
            let invoker = Invoker::new(&self.servers[idx], store);
            let f = match invoker.attempt(p, w, &options, trace.with_attempt(attempt)) {
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
                    if self.servers[idx].invocation_outcome(inv)
                        == Some(InvocationOutcome::Completed)
                    {
                        tel.counter_add("backend.recovered_replies", 1);
                        if tel.is_enabled() {
                            tel.instant(
                                p.name(),
                                "reply-recovered",
                                p.now(),
                                &[
                                    ("workload", w.name().into()),
                                    ("invocation", inv.into()),
                                    ("inv", trace.id.into()),
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
                tel.counter_add("backend.retries", 1);
                tel.instant(
                    p.name(),
                    "retry",
                    p.now(),
                    &[
                        ("workload", w.name().into()),
                        ("failed_attempt", attempt.into()),
                        ("error", ArgValue::Str(&f.error.to_string())),
                        ("inv", trace.id.into()),
                    ],
                );
            }
            avoid = Some(idx);
            p.sleep(self.retry.backoff(attempt));
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
        trace: &TraceCtx,
        launched_at: SimTime,
        end: Terminal,
    ) -> FunctionResult {
        let (tel, now) = (p.telemetry(), p.now());
        match end.outcome {
            TraceOutcome::Completed => {}
            TraceOutcome::Shed => {
                tel.counter_add("backend.shed", 1);
                if tel.is_enabled() {
                    tel.instant(
                        p.name(),
                        TraceOutcome::Shed.as_str(),
                        now,
                        &[
                            ("workload", w.name().into()),
                            ("reason", ArgValue::Str(&end.reason)),
                            ("inv", trace.id.into()),
                        ],
                    );
                }
            }
            TraceOutcome::Failed => tel.counter_add("backend.failures", 1),
        }
        record_request_span(p, trace, w.name(), launched_at, end.outcome, end.attempts);
        let completed = end.outcome == TraceOutcome::Completed;
        if let Some(obs) = &self.obs {
            let e2e = now.since(launched_at);
            obs.record_completion(now, w.tenant(), e2e, end.queue_wait, completed);
        }
        end.into_result(w, launched_at, now, trace.id)
    }

    /// Claim an admission slot for `w`, or say why it was refused.
    fn try_admit(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
    ) -> Result<Option<AdmissionSlot<'_>>, String> {
        // Burn-rate shedding: when the obs plane says this tenant is
        // burning its SLO budget on queueing faster than the configured
        // threshold, refuse new work before it joins the queue and makes
        // the burn worse. Independent of classic admission control.
        if let Some(obs) = &self.obs {
            if obs.shed_due(p.now(), w.tenant()) {
                return Err(format!("tenant '{}' over SLO burn-rate budget", w.tenant()));
            }
        }
        let Some(adm) = &self.admission else {
            return Ok(None); // no admission control: everything enters
        };
        let name = w.name();
        let mut st = self.admitted.borrow_in(p);
        if st.inflight >= adm.max_inflight {
            return Err(format!(
                "inflight limit reached ({}/{})",
                st.inflight, adm.max_inflight
            ));
        }
        let running = st.per_workload.get(name).copied().unwrap_or(0);
        if let Some(cap) = adm.max_per_workload {
            if running >= cap {
                return Err(format!("workload cap reached ({running}/{cap})"));
            }
        }
        // Weighted fair shedding: within the global budget, each tenant
        // owns its weighted share and borrows beyond it only as fast as
        // its token bucket refills — the most over-budget tenant is the
        // one refused.
        let max_inflight = adm.max_inflight;
        let tenant = if let Some(fair) = st.fair.as_mut() {
            let t = w.tenant();
            if fair.try_admit(t, p.now(), max_inflight).is_err() {
                return Err(format!(
                    "tenant '{t}' over fair share ({} inflight / {} slots, bucket empty)",
                    fair.inflight_of(t),
                    fair.share_of(t, max_inflight),
                ));
            }
            Some(t.to_string())
        } else {
            None
        };
        st.inflight += 1;
        *st.per_workload.entry(name.to_string()).or_insert(0) += 1;
        Ok(Some(AdmissionSlot {
            state: &self.admitted,
            name: name.to_string(),
            tenant,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
    use dgsf_gpu::GB;
    use dgsf_remoting::NetProfile;
    use dgsf_server::GpuServerConfig;
    use dgsf_sim::{Dur, Sim};

    use crate::phases::PhaseRecorder;

    struct Spin;
    impl Workload for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn registry(&self) -> Arc<ModuleRegistry> {
            Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
        }
        fn required_gpu_mem(&self) -> u64 {
            GB
        }
        fn download_bytes(&self) -> u64 {
            0
        }
        fn run(
            &self,
            p: &ProcCtx,
            api: &mut dyn dgsf_cuda::CudaApi,
            rec: &mut PhaseRecorder,
        ) -> CudaResult<()> {
            rec.enter(p, crate::phases::phase::PROCESSING);
            api.launch_kernel(
                p,
                "k",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(1.0, 0),
            )?;
            api.device_synchronize(p)?;
            rec.close(p);
            Ok(())
        }
        fn cpu_secs(&self) -> f64 {
            30.0
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
            let a = Arc::as_ptr(b.choose());
            let c = Arc::as_ptr(b.choose());
            let d = Arc::as_ptr(b.choose());
            assert_ne!(a, c);
            assert_eq!(a, d);
        });
        sim.run();
    }

    #[test]
    fn retry_backoff_grows_geometrically() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff(1), Dur::from_millis(50));
        assert_eq!(r.backoff(2), Dur::from_millis(100));
        assert_eq!(r.backoff(3), Dur::from_millis(200));
    }

    #[test]
    fn retry_backoff_is_exact_integer_millis() {
        // Non-integral growth (×1.5) stays exact in milli arithmetic —
        // pinned so the sequence can never drift with float rounding.
        let r = RetryPolicy::default()
            .with_initial_backoff_ms(100)
            .with_multiplier_permille(1500);
        let seq: Vec<Dur> = (1..=5).map(|a| r.backoff(a)).collect();
        assert_eq!(
            seq,
            vec![
                Dur::from_millis(100),
                Dur::from_millis(150),
                Dur::from_millis(225),
                Dur::from_millis(337), // 337.5 floors: integer millis
                Dur::from_millis(505), // 337 * 1500 / 1000
            ]
        );
    }

    #[test]
    fn retry_backoff_saturates_instead_of_overflowing() {
        let r = RetryPolicy::default()
            .with_initial_backoff_ms(u64::MAX)
            .with_multiplier_permille(u64::MAX);
        // The longest backoff Dur's u64 nanoseconds can represent,
        // reached monotonically — never a wrapped-around short sleep.
        let cap = Dur::from_millis(u64::MAX / 1_000_000);
        assert_eq!(r.backoff(1), cap);
        assert_eq!(r.backoff(64), cap);
        let grow = RetryPolicy::default().with_initial_backoff_ms(50);
        let mut prev = Dur::ZERO;
        for a in 1..=80 {
            let b = grow.backoff(a);
            assert!(b >= prev, "backoff shrank at attempt {a}");
            prev = b;
        }
        assert_eq!(prev, cap);
    }

    #[test]
    fn least_loaded_spreads_most_loaded_packs() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let spread = Rc::new(SimCell::new(&h, (0usize, 0usize)));
        let s2 = spread.clone();
        sim.spawn("root", move |p| {
            let b = Rc::new(two_server_backend(p, &h, FleetPolicy::LeastLoaded));
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            // launch 4 concurrent functions through the backend
            for i in 0..4 {
                let b = Rc::clone(&b);
                let store = Arc::clone(&store);
                h.spawn(&format!("fn{i}"), move |p| {
                    let _ = b.invoke(p, &store, &Spin, OptConfig::full());
                });
            }
            p.sleep(Dur::from_secs(30));
            *s2.lock() = (
                b.servers()[0].records().len(),
                b.servers()[1].records().len(),
            );
        });
        sim.run();
        let (a, c) = *spread.lock();
        assert_eq!(a + c, 4);
        assert_eq!(a, 2, "least-loaded balances 2/2, got {a}/{c}");
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
                    .with_admission(AdmissionConfig::new(1)),
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
                    let res = b.invoke(p, &store, &Spin, OptConfig::full());
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

    #[test]
    fn per_workload_cap_spares_other_workloads() {
        struct Named(&'static str);
        impl Workload for Named {
            fn name(&self) -> &str {
                self.0
            }
            fn registry(&self) -> Arc<ModuleRegistry> {
                Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
            }
            fn required_gpu_mem(&self) -> u64 {
                GB
            }
            fn download_bytes(&self) -> u64 {
                0
            }
            fn run(
                &self,
                p: &ProcCtx,
                api: &mut dyn dgsf_cuda::CudaApi,
                rec: &mut PhaseRecorder,
            ) -> CudaResult<()> {
                rec.enter(p, crate::phases::phase::PROCESSING);
                api.launch_kernel(
                    p,
                    "k",
                    LaunchConfig::linear(1, 32),
                    KernelArgs::timed(1.0, 0),
                )?;
                api.device_synchronize(p)?;
                rec.close(p);
                Ok(())
            }
            fn cpu_secs(&self) -> f64 {
                30.0
            }
        }
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let results = Rc::new(SimCell::new(&h, Vec::new()));
        let r2 = results.clone();
        sim.spawn("root", move |p| {
            let cfg = GpuServerConfig::paper_default().gpus(2).sharing(2);
            let srv = GpuServer::provision(p, &h, cfg);
            let b = Rc::new(
                Backend::new(&h, vec![srv], FleetPolicy::RoundRobin)
                    .with_admission(AdmissionConfig::new(16).with_max_per_workload(1)),
            );
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            for (i, name) in ["hot", "hot", "cold"].into_iter().enumerate() {
                let b = Rc::clone(&b);
                let store = Arc::clone(&store);
                let r = r2.clone();
                h.spawn(&format!("fn{i}"), move |p| {
                    p.sleep(Dur::from_millis(i as u64));
                    let res = b.invoke(p, &store, &Named(name), OptConfig::full());
                    r.lock().push((name, res.shed));
                });
            }
        });
        sim.run();
        let res = results.lock().clone();
        let hot_shed = res.iter().filter(|(n, s)| *n == "hot" && *s).count();
        let cold_shed = res.iter().filter(|(n, s)| *n == "cold" && *s).count();
        assert_eq!(hot_shed, 1, "second concurrent 'hot' hits the cap");
        assert_eq!(cold_shed, 0, "'cold' is unaffected by 'hot''s cap");
    }

    #[test]
    fn most_loaded_consolidates_onto_one_server() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let spread = Rc::new(SimCell::new(&h, (0usize, 0usize)));
        let s2 = spread.clone();
        sim.spawn("root", move |p| {
            let b = Rc::new(two_server_backend(p, &h, FleetPolicy::MostLoaded));
            let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
            for i in 0..3 {
                let b = Rc::clone(&b);
                let store = Arc::clone(&store);
                h.spawn(&format!("fn{i}"), move |p| {
                    // stagger so load is observable at choice time
                    p.sleep(Dur::from_millis(200 * i as u64));
                    let _ = b.invoke(p, &store, &Spin, OptConfig::full());
                });
            }
            p.sleep(Dur::from_secs(30));
            *s2.lock() = (
                b.servers()[0].records().len(),
                b.servers()[1].records().len(),
            );
        });
        sim.run();
        let (a, c) = *spread.lock();
        assert_eq!(a + c, 3);
        assert!(
            a == 3 || c == 3,
            "most-loaded packs everything onto one server: {a}/{c}"
        );
    }
}
