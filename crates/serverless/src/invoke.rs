//! Invocation paths: the same workload trace executed natively, over DGSF,
//! or on CPUs — the three columns of Table II.
//!
//! The DGSF path is fallible: over a faulted link any remoted call can time
//! out or come back with a transport error, and GPU acquisition itself can
//! time out in the monitor's queue. The native and CPU baselines run on
//! dedicated fault-free hardware and stay infallible.
//!
//! [`crate::Backend::invoke`] is the one way to run a single DGSF
//! function, and [`Invoker::invoke_dag`] the way to run a DAG. Every DGSF
//! attempt — one try of the backend's retry loop, one stage of a DAG — runs
//! through one crate-private attempt routine, which takes the attempt's
//! [`TraceCtx`] (whose `attempt` is the attempt number) and its placement
//! pin as arguments and ends in one crate-private `Terminal`: how the
//! attempt ended, with the class of its failure when it failed, so the
//! backend can retry the whole function (possibly on another GPU server).
//! [`InvokeOptions`] carries only what a caller chooses. Every
//! [`FunctionResult`], baselines included, is built from a `Terminal`.

use std::sync::Arc;

use dgsf_cuda::{ApiStats, CostTable, CudaApi, CudaError, CudaResult, NativeCuda};
use dgsf_gpu::{Gpu, GpuId};
use dgsf_remoting::{OptConfig, RemoteCuda};
use dgsf_server::GpuServer;
use dgsf_sim::telemetry::kind::Label;
use dgsf_sim::{lit, ArgValue, Dur, Name, ProcCtx, SimHandle, SimTime, TraceCtx, TraceOutcome};

use crate::dag::{edge_key, DagWorkload, HandoffMode, StageRun};
use crate::phases::{phase, PhaseRecorder};
use crate::store::ObjectStore;
use crate::workload::Workload;

/// How the backend should react to a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailureClass {
    /// Transport-class blip: worth retrying, preferably elsewhere.
    Transient,
    /// The platform refused or shed the work under load. Retrying would
    /// only add load to an already saturated system, so this class is
    /// *never* retried.
    Overloaded,
    /// Anything else (programming errors, device OOM, …): retrying the
    /// same function would fail the same way.
    Permanent,
}

/// Outcome of one function execution.
#[derive(Debug, Clone)]
pub struct FunctionResult {
    /// Workload name.
    pub name: Arc<str>,
    /// Tenant that deployed the workload (see [`crate::Workload::tenant`]).
    pub tenant: Arc<str>,
    /// When the (warm) function began executing.
    pub launched_at: SimTime,
    /// When it finished.
    pub finished_at: SimTime,
    /// Per-phase breakdown.
    pub phases: PhaseRecorder,
    /// Guest-side API statistics (empty for CPU runs).
    pub api_stats: ApiStats,
    /// GPU-server invocation id, when one was involved (the last attempt's,
    /// for retried functions).
    pub invocation: Option<u64>,
    /// How many platform attempts the function took (1 on the fault-free
    /// path; 0 when admission control shed it before any attempt).
    pub attempts: u32,
    /// Why the function ultimately failed, if it did — `None` on success.
    pub failure: Option<String>,
    /// True when the invocation was refused by admission control or shed
    /// under overload (its queue-age bound expired) rather than failing
    /// while executing. A shed function is never retried.
    pub shed: bool,
    /// Platform-unique causal trace id for this request, when the run was
    /// traced end-to-end (DGSF path). `None` for native/CPU baselines.
    pub trace: Option<u64>,
    /// API server the (last) attempt executed on, when the monitor got as
    /// far as assigning one. GPU-resident DAG stages pin their successor
    /// to this server, because it owns the context holding their output.
    pub server: Option<u32>,
}

impl FunctionResult {
    /// End-to-end time of the function (from warm start to completion,
    /// spanning every retry attempt).
    pub fn e2e(&self) -> Dur {
        self.finished_at.since(self.launched_at)
    }

    /// True when the function completed (possibly after retries).
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }

    /// How the function ended.
    pub fn outcome(&self) -> TraceOutcome {
        outcome_of(self.shed, &self.failure)
    }
}

/// The outcome a result's `shed` flag and `failure` text report.
fn outcome_of(shed: bool, failure: &Option<String>) -> TraceOutcome {
    match (shed, failure) {
        (true, _) => TraceOutcome::Shed,
        (false, None) => TraceOutcome::Completed,
        (false, Some(_)) => TraceOutcome::Failed,
    }
}

/// How a request that failed with `failure` ended: completed when it did
/// not fail, shed when its last failure was an overload, failed otherwise.
fn outcome_of_failure(failure: &Option<(FailureClass, String)>) -> TraceOutcome {
    match failure {
        None => TraceOutcome::Completed,
        Some((FailureClass::Overloaded, _)) => TraceOutcome::Shed,
        Some(_) => TraceOutcome::Failed,
    }
}

/// The caller-visible `failure` text of a request that failed with
/// `failure`: none when it completed, `overloaded: {reason}` when it was
/// shed, the reason itself when it failed.
fn failure_text(failure: Option<(FailureClass, String)>) -> Option<String> {
    failure.map(|(class, reason)| match class {
        FailureClass::Overloaded => format!("overloaded: {reason}"),
        FailureClass::Transient | FailureClass::Permanent => reason,
    })
}

/// How an attempt, a baseline run or a whole request ended, before it is
/// reported: what the attempt routine returns, what each exit of
/// [`crate::Backend::invoke`] hands to its one `finish`, and what every
/// [`FunctionResult`] is built from ([`Terminal::into_result`]).
pub(crate) struct Terminal {
    /// The last attempt's failure class and why it failed; `None` when the
    /// request completed.
    pub(crate) failure: Option<(FailureClass, String)>,
    pub(crate) phases: PhaseRecorder,
    pub(crate) api_stats: ApiStats,
    pub(crate) invocation: Option<u64>,
    pub(crate) attempts: u32,
    /// API server the last attempt ran on, when known.
    pub(crate) server: Option<u32>,
    /// Queue wait of the attempt; summed across every attempt once the
    /// backend reports the request.
    pub(crate) queue_wait: Dur,
}

impl Terminal {
    /// A run that completed as attempt number `attempts`.
    fn completed(
        phases: PhaseRecorder,
        api_stats: ApiStats,
        invocation: Option<u64>,
        server: Option<u32>,
        attempts: u32,
    ) -> Terminal {
        Terminal {
            failure: None,
            queue_wait: phases.get(phase::QUEUE),
            phases,
            api_stats,
            invocation,
            attempts,
            server,
        }
    }

    /// A request that ended in a failure of `class` for `reason` after
    /// `attempts` attempts, the last of which recorded `phases`.
    pub(crate) fn failed(
        class: FailureClass,
        reason: String,
        phases: PhaseRecorder,
        invocation: Option<u64>,
        attempts: u32,
    ) -> Terminal {
        Terminal {
            failure: Some((class, reason)),
            queue_wait: phases.get(phase::QUEUE),
            phases,
            api_stats: ApiStats::default(),
            invocation,
            attempts,
            server: None,
        }
    }

    /// How the request ended.
    pub(crate) fn outcome(&self) -> TraceOutcome {
        outcome_of_failure(&self.failure)
    }

    /// Why the request did not complete; empty when it did.
    pub(crate) fn reason(&self) -> &str {
        self.failure.as_ref().map_or("", |(_, reason)| reason)
    }

    /// The caller's view of this end of the run of function `name` of
    /// `tenant`, launched at `launched_at` and ended at `finished_at`,
    /// under request `trace` (`None` for the native and CPU baselines).
    pub(crate) fn into_result(
        self,
        name: Arc<str>,
        tenant: Arc<str>,
        launched_at: SimTime,
        finished_at: SimTime,
        trace: Option<u64>,
    ) -> FunctionResult {
        let shed = self.outcome() == TraceOutcome::Shed;
        FunctionResult {
            name,
            tenant,
            launched_at,
            finished_at,
            phases: self.phases,
            api_stats: self.api_stats,
            invocation: self.invocation,
            attempts: self.attempts,
            failure: failure_text(self.failure),
            shed,
            trace,
            server: self.server,
        }
    }
}

/// What a caller chooses about a DGSF invocation. Build with
/// [`InvokeOptions::new`]; the plain constructor puts no bound on the
/// queue wait.
#[derive(Debug, Clone)]
pub struct InvokeOptions {
    /// Remoting specialization ladder for the guest-side API (Figure 4).
    pub opts: OptConfig,
    /// Bound on queue wait at the GPU server. When this (rather than the
    /// server's own `queue_timeout`) binds and expires, the function is
    /// shed as overload ([`FunctionResult::shed`]) and never retried.
    pub max_queue_age: Option<Dur>,
}

impl InvokeOptions {
    /// An invocation under `opts` with no queue-age bound — the common case.
    pub fn new(opts: OptConfig) -> InvokeOptions {
        InvokeOptions {
            opts,
            max_queue_age: None,
        }
    }

    /// Builder-style: bound the queue wait (expiry ⇒ shed as overload).
    pub fn with_max_queue_age(mut self, d: Option<Dur>) -> Self {
        self.max_queue_age = d;
        self
    }
}

/// The DGSF invocation path against one GPU server: download, request a
/// virtual GPU (FCFS queueing included), then remote every CUDA call to the
/// assigned API server. Single functions run through
/// [`crate::Backend::invoke`], which owns the retry policy; DAGs through
/// [`Invoker::invoke_dag`].
pub struct Invoker<'a> {
    server: &'a GpuServer,
    store: &'a ObjectStore,
}

impl<'a> Invoker<'a> {
    /// An invoker against one GPU server and object store.
    pub fn new(server: &'a GpuServer, store: &'a ObjectStore) -> Invoker<'a> {
        Invoker { server, store }
    }

    /// Run a function DAG stage by stage, each stage a separate platform
    /// attempt under `options`, all under one fresh trace.
    ///
    /// In [`HandoffMode::GpuResident`] each stage publishes its output
    /// into the serving context's resident store and the successor is
    /// **pinned** to that API server — the only server whose context holds
    /// the buffer — where it adopts it without any data crossing the link.
    /// In [`HandoffMode::HostBounce`] stages are placed freely and the
    /// intermediate bytes bounce through the invoker.
    ///
    /// Failures retry the *whole* DAG (fresh handoff keys per attempt) up
    /// to `max_attempts` times for transient errors; overload shedding and
    /// permanent errors are terminal, as in [`crate::Backend`]'s policy.
    /// On any abort the attempt's published-but-unadopted buffers are
    /// reclaimed fleet-wide, so a failed DAG never leaks GPU memory.
    pub fn invoke_dag(
        &self,
        p: &ProcCtx,
        dag: &DagWorkload,
        options: InvokeOptions,
        max_attempts: u32,
    ) -> DagResult {
        assert!(!dag.is_empty(), "invoke_dag on an empty DAG");
        let n = dag.len();
        let resident = dag.mode == HandoffMode::GpuResident;
        let launched_at = p.now();
        let tel = p.telemetry();
        let trace = TraceCtx::new(tel.next_trace_id(), dag.tenant.as_str());
        let max_attempts = max_attempts.max(1);

        let mut failure: Option<(FailureClass, String)> = None;
        let mut stages: Vec<FunctionResult> = Vec::new();
        let mut attempts_taken = 0;
        'dag: for attempt in 1..=max_attempts {
            attempts_taken = attempt;
            stages = Vec::with_capacity(n);
            let attempt_trace = trace.with_attempt(attempt);
            // A GPU-resident stage is pinned to the server holding its
            // predecessor's output; host-bounce stages are placed freely.
            let mut pin: Option<u32> = None;
            for idx in 0..n {
                let in_key = (resident && idx > 0).then(|| edge_key(trace.id, attempt, idx - 1));
                let out_key = (resident && idx + 1 < n).then(|| edge_key(trace.id, attempt, idx));
                let stage = StageRun::new(dag, idx, in_key, out_key);
                let stage_start = p.now();
                let label = tel
                    .is_enabled()
                    .then(|| format!("invoke:{}:a{attempt}", stage.name()));
                let label = label.as_ref().map(Name::from);
                let end = self.attempt(p, &stage, &options, &attempt_trace, pin, label);
                let Some((class, reason)) = end.failure else {
                    let (name, tenant) = (stage.name().into(), Arc::clone(&trace.tenant));
                    let r = end.into_result(name, tenant, stage_start, p.now(), Some(trace.id));
                    if resident {
                        pin = r.server;
                    }
                    stages.push(r);
                    continue;
                };
                // This attempt's parked intermediates will never be
                // adopted now — free them wherever they sit.
                if resident {
                    for e in 0..n.saturating_sub(1) {
                        self.server.reclaim_resident(edge_key(trace.id, attempt, e));
                    }
                }
                if class == FailureClass::Transient && attempt < max_attempts {
                    continue 'dag;
                }
                failure = Some((class, reason));
                break 'dag;
            }
            break 'dag;
        }

        let outcome = outcome_of_failure(&failure);
        if tel.is_enabled() {
            let req = format!("req:{}", dag.name);
            record_request_span(
                p,
                &trace,
                (&req).into(),
                launched_at,
                outcome,
                attempts_taken,
            );
        }
        DagResult {
            name: dag.name.clone(),
            tenant: dag.tenant.clone(),
            stages,
            launched_at,
            finished_at: p.now(),
            attempts: attempts_taken,
            failure: failure_text(failure),
            shed: outcome == TraceOutcome::Shed,
            trace: trace.id,
        }
    }

    /// One attempt: download, acquire (bounded, and pinned to API server
    /// `pin_server` when given), drive the workload over the remoted API,
    /// settle the invocation record. Runs under `trace`, whose `attempt`
    /// is this attempt's number (1-based). With telemetry on, `label` names
    /// the attempt's `invoke:{workload}:a{attempt}` span. A failed attempt
    /// ends with its class, its invocation (when acquisition got that far)
    /// and the phases recorded up to the failure.
    pub(crate) fn attempt(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
        options: &InvokeOptions,
        trace: &TraceCtx,
        pin_server: Option<u32>,
        label: Option<Name<'_, Label>>,
    ) -> Terminal {
        let server = self.server;
        let launched_at = p.now();
        let attempts = trace.attempt.max(1);
        let mut rec = PhaseRecorder::new();
        rec.set_trace(Some(trace.clone()));

        rec.enter(p, phase::DOWNLOAD);
        self.store.download(p, w.download_bytes());

        rec.enter(p, phase::QUEUE);
        let cfg_timeout = server.config().queue_timeout;
        let (timeout, age_binds) = match (cfg_timeout, options.max_queue_age) {
            (None, None) => (None, false),
            (Some(t), None) => (Some(t), false),
            (None, Some(a)) => (Some(a), true),
            (Some(t), Some(a)) => (Some(t.min(a)), a <= t),
        };
        let acquired = server.try_request_gpu_with_timeout(
            p,
            w.name(),
            w.required_gpu_mem(),
            w.registry(),
            timeout,
            Some(trace.clone()),
            pin_server,
        );
        let (client, invocation) = match acquired {
            Ok(x) => x,
            Err(e) => {
                rec.close(p);
                if let Some(label) = label {
                    let [inv, att] = trace.span_args();
                    let args = [inv, att, (lit!("outcome"), "acquire_error".into())];
                    let (track, cat) = (p.track(), lit!("invocation"));
                    p.telemetry()
                        .span_args(track, label, cat, launched_at, p.now(), &args);
                }
                // A GPU request that got no API server failed at the
                // transport level, unless the caller's queue-age bound
                // expired it: then the platform is overloaded.
                let timed_out = matches!(e, dgsf_server::AcquireError::Timeout { .. });
                let class = if timed_out && age_binds {
                    FailureClass::Overloaded
                } else {
                    FailureClass::Transient
                };
                let reason = CudaError::Transport(e.to_string()).to_string();
                return Terminal::failed(class, reason, rec, None, attempts);
            }
        };
        let mut api = RemoteCuda::new(client, options.opts);
        let outcome = drive(p, &mut api, w, &mut rec);
        rec.close(p);
        if let Some(label) = label {
            let (track, cat) = (p.track(), lit!("invocation"));
            p.telemetry()
                .span_args(track, label, cat, launched_at, p.now(), trace);
        }
        match outcome {
            Ok(()) => {
                let at = server.invocation_server(invocation);
                Terminal::completed(rec, api.stats(), Some(invocation), at, attempts)
            }
            Err(error) => {
                server.mark_invocation_failed(p.now(), invocation);
                let class = if error.is_transient() {
                    FailureClass::Transient
                } else {
                    FailureClass::Permanent
                };
                Terminal::failed(class, error.to_string(), rec, Some(invocation), attempts)
            }
        }
    }
}

/// Outcome of one DAG execution: the per-stage results of its last attempt,
/// plus DAG-level accounting.
#[derive(Debug, Clone)]
pub struct DagResult {
    /// DAG name.
    pub name: String,
    /// Tenant that deployed the DAG.
    pub tenant: String,
    /// Per-stage results of the last attempt, in stage order: the stages
    /// it completed. Shorter than the stage count when that attempt failed
    /// mid-pipeline, even if an earlier attempt got further.
    pub stages: Vec<FunctionResult>,
    /// When the DAG began (first stage's download start).
    pub launched_at: SimTime,
    /// When it finished (last stage completion or terminal failure).
    pub finished_at: SimTime,
    /// Whole-DAG attempts taken (1 on the fault-free path).
    pub attempts: u32,
    /// Why the DAG ultimately failed, if it did — `None` on success.
    pub failure: Option<String>,
    /// True when the terminal failure was overload shedding.
    pub shed: bool,
    /// Causal trace id shared by every stage invocation of this DAG.
    pub trace: u64,
}

impl DagResult {
    /// End-to-end time of the DAG, spanning every stage and retry.
    pub fn e2e(&self) -> Dur {
        self.finished_at.since(self.launched_at)
    }

    /// True when every stage completed (possibly after whole-DAG retries).
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }

    /// How the DAG ended.
    pub fn outcome(&self) -> TraceOutcome {
        outcome_of(self.shed, &self.failure)
    }
}

/// Record the top-level `req:{workload}` span (named `req`) that roots a
/// causal trace: one per request, spanning every attempt from `start` until
/// now, with the trace id, tenant, outcome and attempt count as span
/// arguments.
pub(crate) fn record_request_span(
    p: &ProcCtx,
    trace: &TraceCtx,
    req: Name<'_, Label>,
    start: SimTime,
    outcome: TraceOutcome,
    attempts: u32,
) {
    let tel = p.telemetry();
    if tel.is_enabled() {
        tel.span_args(
            p.track(),
            req,
            lit!("request"),
            start,
            p.now(),
            &[
                (lit!("inv"), trace.id.into()),
                (lit!("tenant"), ArgValue::Str(&trace.tenant)),
                (lit!("outcome"), ArgValue::Lit(outcome.lit())),
                (lit!("attempts"), attempts.into()),
            ],
        );
    }
}

/// The INIT → run → teardown sequence against an acquired remote GPU.
fn drive(
    p: &ProcCtx,
    api: &mut RemoteCuda,
    w: &dyn Workload,
    rec: &mut PhaseRecorder,
) -> CudaResult<()> {
    rec.enter(p, phase::INIT);
    api.runtime_init(p)?;
    api.register_module(p, w.registry())?;
    rec.close(p);
    w.run(p, api, rec)?;
    api.finish(p)
}

/// Run `w` natively: a dedicated machine with a local GPU, paying CUDA
/// initialization on the critical path.
pub fn invoke_native(
    p: &ProcCtx,
    h: &SimHandle,
    store: &ObjectStore,
    w: &dyn Workload,
    costs: Arc<CostTable>,
) -> FunctionResult {
    let launched_at = p.now();
    let mut rec = PhaseRecorder::new();

    rec.enter(p, phase::DOWNLOAD);
    store.download(p, w.download_bytes());

    // A fresh local GPU: the native baseline runs on its own machine.
    let gpu = Gpu::v100(h, GpuId(0));
    let mut api = NativeCuda::new(h, gpu, costs);

    rec.enter(p, phase::INIT);
    api.runtime_init(p)
        .expect("workload runs on a dedicated local GPU");
    api.register_module(p, w.registry())
        .expect("workload runs on a dedicated local GPU");
    rec.close(p);

    w.run(p, &mut api, &mut rec)
        .expect("workload runs on a dedicated local GPU");
    rec.close(p);

    let tel = p.telemetry();
    if tel.is_enabled() {
        tel.span(
            p.track(),
            &format!("invoke:{}:native", w.name()),
            lit!("invocation"),
            launched_at,
            p.now(),
        );
    }
    let (name, tenant) = (w.name().into(), w.tenant().into());
    let end = Terminal::completed(rec, api.stats(), None, None, 1);
    end.into_result(name, tenant, launched_at, p.now(), None)
}

/// Run `w` on CPUs (6 threads, the AWS Lambda per-function core cap) using
/// the workload's calibrated CPU cost model.
pub fn invoke_cpu(p: &ProcCtx, store: &ObjectStore, w: &dyn Workload) -> FunctionResult {
    let launched_at = p.now();
    let mut rec = PhaseRecorder::new();
    rec.enter(p, phase::DOWNLOAD);
    store.download(p, w.download_bytes());
    rec.enter(p, phase::PROCESSING);
    p.sleep(Dur::from_secs_f64(w.cpu_secs()));
    rec.close(p);
    let (name, tenant) = (w.name().into(), w.tenant().into());
    let end = Terminal::completed(rec, ApiStats::default(), None, None, 1);
    end.into_result(name, tenant, launched_at, p.now(), None)
}
