//! Invocation paths: the same workload trace executed natively, over DGSF,
//! or on CPUs — the three columns of Table II.
//!
//! The DGSF path is fallible: over a faulted link any remoted call can time
//! out or come back with a transport error, and GPU acquisition itself can
//! time out in the monitor's queue. [`Invoker::invoke`] surfaces those as
//! [`InvokeFailure`] so [`crate::Backend::invoke`] can retry the whole
//! function (possibly on another GPU server); the native and CPU baselines
//! run on dedicated fault-free hardware and stay infallible.
//!
//! [`Invoker`] is the single DGSF entry point.

use std::sync::Arc;

use dgsf_cuda::{CostTable, CudaApi, CudaError, CudaResult, NativeCuda};
use dgsf_gpu::{Gpu, GpuId};
use dgsf_remoting::{OptConfig, RemoteCuda};
use dgsf_server::GpuServer;
use dgsf_sim::telemetry::kind::Label;
use dgsf_sim::{lit, ArgValue, Dur, Name, ProcCtx, SimHandle, SimTime, TraceCtx, TraceOutcome};

use crate::backend::Terminal;
use crate::dag::{edge_key, DagWorkload, HandoffMode, StageRun};
use crate::phases::{phase, PhaseRecorder};
use crate::store::ObjectStore;
use crate::workload::Workload;

/// How the backend should react to a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
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
    pub name: String,
    /// Tenant that deployed the workload (see [`crate::Workload::tenant`]).
    pub tenant: String,
    /// Execution mode label ("native" / "dgsf" / "cpu").
    pub mode: String,
    /// When the (warm) function began executing.
    pub launched_at: SimTime,
    /// When it finished.
    pub finished_at: SimTime,
    /// Per-phase breakdown.
    pub phases: PhaseRecorder,
    /// Guest-side API statistics (empty for CPU runs).
    pub api_stats: dgsf_cuda::ApiStats,
    /// GPU-server invocation id, when one was involved (the last attempt's,
    /// for retried functions).
    pub invocation: Option<u64>,
    /// How many platform attempts the function took (1 on the fault-free
    /// path; 0 when admission control shed it before any attempt).
    pub attempts: u32,
    /// Why the function ultimately failed, if it did — `None` on success.
    pub failure: Option<String>,
    /// True when the invocation was refused by admission control or shed
    /// under overload (the [`FailureClass::Overloaded`] path) rather than
    /// failing while executing.
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

/// The caller-visible `failure` text of a request that ended in `outcome`
/// for `reason`: none when it completed, `overloaded: {reason}` when it
/// was shed, the reason itself when it failed.
pub(crate) fn failure_text(outcome: TraceOutcome, reason: String) -> Option<String> {
    match outcome {
        TraceOutcome::Completed => None,
        TraceOutcome::Shed => Some(format!("overloaded: {reason}")),
        TraceOutcome::Failed => Some(reason),
    }
}

/// One failed DGSF attempt, with enough context to retry or report.
#[derive(Debug, Clone)]
pub struct InvokeFailure {
    /// What went wrong.
    pub error: CudaError,
    /// How the retry layer should treat it.
    pub class: FailureClass,
    /// The GPU-server invocation involved, if acquisition got that far.
    pub invocation: Option<u64>,
    /// Phases recorded up to the failure point (boxed to keep the
    /// `Err`-variant small — `clippy::result_large_err`).
    pub phases: Box<PhaseRecorder>,
    /// When the attempt started.
    pub launched_at: SimTime,
    /// When it failed.
    pub failed_at: SimTime,
}

impl InvokeFailure {
    /// How a request ends when this failure is its last: shed when the
    /// platform was overloaded, failed otherwise.
    pub fn outcome(&self) -> TraceOutcome {
        match self.class {
            FailureClass::Overloaded => TraceOutcome::Shed,
            FailureClass::Transient | FailureClass::Permanent => TraceOutcome::Failed,
        }
    }
}

impl std::fmt::Display for InvokeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invocation attempt failed: {}", self.error)
    }
}

/// Everything that varies about one DGSF invocation attempt, in one place.
/// Build with [`InvokeOptions::new`] and layer on the builders; the plain
/// constructor is a fault-free single attempt with no queue bound, no
/// caller-owned trace and no placement pin.
#[derive(Debug, Clone)]
pub struct InvokeOptions {
    /// Remoting specialization ladder for the guest-side API (Figure 4).
    pub opts: OptConfig,
    /// 1-based attempt label in the server's invocation records.
    pub attempt: u32,
    /// Bound on queue wait at the GPU server. When this (rather than the
    /// server's own `queue_timeout`) binds and expires, the failure is
    /// classed [`FailureClass::Overloaded`] — shed, never retried.
    pub max_queue_age: Option<Dur>,
    /// Caller-owned causal trace context. `None` means the invoker roots a
    /// fresh trace and records the top-level request span itself; `Some`
    /// means the caller (the backend's retry loop) owns the request span.
    pub trace: Option<TraceCtx>,
    /// Pin the attempt to one API server: the monitor will assign no
    /// other, waiting (within the queue bound) for it to free up. This is
    /// how a GPU-resident DAG stage lands on the context holding its
    /// predecessor's output buffer.
    pub pin_server: Option<u32>,
}

impl InvokeOptions {
    /// A fault-free single attempt under `opts` — the common case.
    pub fn new(opts: OptConfig) -> InvokeOptions {
        InvokeOptions {
            opts,
            attempt: 1,
            max_queue_age: None,
            trace: None,
            pin_server: None,
        }
    }

    /// Builder-style: label this as attempt `n` (1-based).
    pub fn with_attempt(mut self, n: u32) -> Self {
        self.attempt = n.max(1);
        self
    }

    /// Builder-style: bound the queue wait (expiry ⇒ shed as overload).
    pub fn with_max_queue_age(mut self, d: Option<Dur>) -> Self {
        self.max_queue_age = d;
        self
    }

    /// Builder-style: thread a caller-owned trace context.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The single DGSF invocation entry point: download, request a virtual GPU
/// (FCFS queueing included), then remote every CUDA call to the assigned
/// API server. One [`Invoker::invoke`] call is one attempt — retry policy
/// lives in [`crate::Backend::invoke`], DAG stage sequencing in
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

    /// Run `w` over DGSF under `options`. With no caller-owned trace
    /// ([`InvokeOptions::trace`] = `None`) this also records the top-level
    /// request span, making it a complete single-shot invocation.
    pub fn invoke(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
        options: InvokeOptions,
    ) -> Result<FunctionResult, InvokeFailure> {
        let attempt = options.attempt.max(1);
        let launched_at = p.now();
        let trace = match &options.trace {
            Some(trace) => trace.clone(),
            None => TraceCtx::new(p.telemetry().next_trace_id(), w.tenant()).with_attempt(attempt),
        };
        let tel = p.telemetry();
        let label = tel
            .is_enabled()
            .then(|| format!("invoke:{}:a{attempt}", w.name()));
        let out = self.attempt(
            p,
            w,
            &options,
            trace.clone(),
            label.as_ref().map(Name::from),
        );
        if options.trace.is_none() && tel.is_enabled() {
            let outcome = out
                .as_ref()
                .map_or_else(InvokeFailure::outcome, |t| t.outcome);
            let req = format!("req:{}", w.name());
            record_request_span(p, &trace, (&req).into(), launched_at, outcome, attempt);
        }
        Ok(out?.into_result(w, launched_at, p.now(), trace.id))
    }

    /// Run a function DAG stage by stage, each stage a separate platform
    /// invocation under `options` (its `trace`, `attempt` and `pin_server`
    /// are managed per stage; the rest applies to every stage).
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
        let trace = match &options.trace {
            Some(t) => t.clone(),
            None => TraceCtx::new(p.telemetry().next_trace_id(), &dag.tenant),
        };
        let max_attempts = max_attempts.max(1);

        let mut terminal: Option<InvokeFailure> = None;
        let mut stages: Vec<FunctionResult> = Vec::new();
        let mut attempts_taken = 0;
        'dag: for attempt in 1..=max_attempts {
            attempts_taken = attempt;
            stages = Vec::with_capacity(n);
            let mut pin: Option<u32> = None;
            for idx in 0..n {
                let in_key = (resident && idx > 0).then(|| edge_key(trace.id, attempt, idx - 1));
                let out_key = (resident && idx + 1 < n).then(|| edge_key(trace.id, attempt, idx));
                let stage = StageRun::new(dag, idx, in_key, out_key);
                let mut o = options
                    .clone()
                    .with_attempt(attempt)
                    .with_trace(trace.clone().with_attempt(attempt));
                o.pin_server = if resident { pin } else { None };
                match self.invoke(p, &stage, o) {
                    Ok(r) => {
                        pin = r.server;
                        stages.push(r);
                    }
                    Err(f) => {
                        // This attempt's parked intermediates will never be
                        // adopted now — free them wherever they sit.
                        if resident {
                            for e in 0..n.saturating_sub(1) {
                                self.server.reclaim_resident(edge_key(trace.id, attempt, e));
                            }
                        }
                        if f.class == FailureClass::Transient && attempt < max_attempts {
                            continue 'dag;
                        }
                        terminal = Some(f);
                        break 'dag;
                    }
                }
            }
            break 'dag;
        }

        let outcome = terminal
            .as_ref()
            .map_or(TraceOutcome::Completed, InvokeFailure::outcome);
        if p.telemetry().is_enabled() {
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
            mode: dag.mode.as_str().to_string(),
            stages,
            launched_at,
            finished_at: p.now(),
            attempts: attempts_taken,
            failure: failure_text(
                outcome,
                terminal.map(|f| f.error.to_string()).unwrap_or_default(),
            ),
            shed: outcome == TraceOutcome::Shed,
            trace: trace.id,
        }
    }

    /// One attempt: download, acquire (bounded, possibly pinned), drive
    /// the workload over the remoted API, settle the invocation record.
    /// Runs under `trace`; `options.trace` is not read. With telemetry on,
    /// `label` names the attempt's `invoke:{workload}:a{attempt}` span.
    pub(crate) fn attempt(
        &self,
        p: &ProcCtx,
        w: &dyn Workload,
        options: &InvokeOptions,
        trace: TraceCtx,
        label: Option<Name<'_, Label>>,
    ) -> Result<Terminal, InvokeFailure> {
        let server = self.server;
        let attempt = options.attempt.max(1);
        let launched_at = p.now();
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
            attempt,
            timeout,
            Some(trace.clone()),
            options.pin_server,
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
                let error = CudaError::Transport(e.to_string());
                let timed_out = matches!(e, dgsf_server::AcquireError::Timeout { .. });
                let class = if timed_out && age_binds {
                    FailureClass::Overloaded
                } else if error.is_transient() {
                    FailureClass::Transient
                } else {
                    FailureClass::Permanent
                };
                return Err(InvokeFailure {
                    error,
                    class,
                    invocation: None,
                    phases: Box::new(rec),
                    launched_at,
                    failed_at: p.now(),
                });
            }
        };
        let mut api = RemoteCuda::new(client, options.opts);
        let outcome = drive(p, &mut api, w, &mut rec);
        rec.close(p);
        if let Some(label) = label {
            let (track, cat) = (p.track(), lit!("invocation"));
            p.telemetry()
                .span_args(track, label, cat, launched_at, p.now(), &trace);
        }
        match outcome {
            Ok(()) => Ok(Terminal {
                outcome: TraceOutcome::Completed,
                reason: String::new(),
                queue_wait: rec.get(phase::QUEUE),
                phases: rec,
                api_stats: api.stats(),
                invocation: Some(invocation),
                attempts: attempt,
                server: server.invocation_server(invocation),
            }),
            Err(error) => {
                server.mark_invocation_failed(p.now(), invocation);
                let class = if error.is_transient() {
                    FailureClass::Transient
                } else {
                    FailureClass::Permanent
                };
                Err(InvokeFailure {
                    error,
                    class,
                    invocation: Some(invocation),
                    phases: Box::new(rec),
                    launched_at,
                    failed_at: p.now(),
                })
            }
        }
    }
}

/// Outcome of one DAG execution: the per-stage results of the attempt that
/// ran furthest, plus DAG-level accounting.
#[derive(Debug, Clone)]
pub struct DagResult {
    /// DAG name.
    pub name: String,
    /// Tenant that deployed the DAG.
    pub tenant: String,
    /// Handoff mode label ("host_bounce" / "gpu_resident").
    pub mode: String,
    /// Per-stage results of the last (furthest) attempt, in stage order.
    /// Shorter than the stage count when the DAG failed mid-pipeline.
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
    FunctionResult {
        name: w.name().to_string(),
        tenant: w.tenant().to_string(),
        mode: "native".into(),
        launched_at,
        finished_at: p.now(),
        phases: rec,
        api_stats: api.stats(),
        invocation: None,
        attempts: 1,
        failure: None,
        shed: false,
        trace: None,
        server: None,
    }
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
    FunctionResult {
        name: w.name().to_string(),
        tenant: w.tenant().to_string(),
        mode: "cpu".into(),
        launched_at,
        finished_at: p.now(),
        phases: rec,
        api_stats: dgsf_cuda::ApiStats::default(),
        invocation: None,
        attempts: 1,
        failure: None,
        shed: false,
        trace: None,
        server: None,
    }
}
