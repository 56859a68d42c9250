//! The four benchmark workloads.
//!
//! Each workload generates its own inputs from the benchmark's RNG
//! ([`crate::rng`]), so what it feeds the program depends only on the seed
//! and the size, never on code under `crates/`. A workload is built in two
//! steps so the child can time them apart:
//!
//! * [`prepare`] is the set-up: input generation, configuration checks and,
//!   where the benchmark owns the simulation, `Sim` construction;
//! * [`Instance::run`] is the timed region;
//! * [`Instance::finish`] runs the correctness oracles after the timed
//!   region and reports what happened.

use std::sync::Arc;

use dgsf::cuda::{CudaApi, CudaResult, ModuleRegistry};
use dgsf::serverless::{phase, PhaseRecorder, Schedule, Workload};
use dgsf::sim::{ProcCtx, Telemetry};
use dgsf::{BackendRunOutput, PlatformConfig, Testbed};

use crate::spans::span;

mod dag_handoff;
mod fleet_surge;
mod paper_mix;
mod rpc_storm;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop framed RPCs through the kernel and the remoting stack only.
    RpcStorm,
    /// The paper's six functions on one shared 4-GPU server.
    PaperMix,
    /// An autoscaled fleet under diurnal surges, obs plane and telemetry on.
    FleetSurge,
    /// Three-stage DAGs, host-bounce and GPU-resident handoff side by side.
    DagHandoff,
}

/// Every workload, in report order.
pub const ALL: [Kind; 4] = [
    Kind::RpcStorm,
    Kind::PaperMix,
    Kind::FleetSurge,
    Kind::DagHandoff,
];

impl Kind {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RpcStorm => "rpc_storm",
            Kind::PaperMix => "paper_mix",
            Kind::FleetSurge => "fleet_surge",
            Kind::DagHandoff => "dag_handoff",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Result<Kind, String> {
        ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
            let names: Vec<&str> = ALL.iter().map(|k| k.name()).collect();
            format!("unknown workload {name:?}; expected one of {names:?}")
        })
    }

    /// The size a benchmark run uses (`quick`: about 2 % of it, for the
    /// self-test). The unit depends on the workload: invocations for
    /// `rpc_storm`, copies of each function for `paper_mix`, diurnal
    /// cycles for `fleet_surge`, DAGs for `dag_handoff`.
    pub fn size(self, quick: bool) -> u64 {
        match (self, quick) {
            (Kind::RpcStorm, false) => 60_000,
            (Kind::RpcStorm, true) => 1_200,
            (Kind::PaperMix, false) => 50,
            (Kind::PaperMix, true) => 2,
            (Kind::FleetSurge, false) => 12,
            (Kind::FleetSurge, true) => 1,
            (Kind::DagHandoff, false) => 1_000,
            (Kind::DagHandoff, true) => 20,
        }
    }

    /// Host seconds one instance of the standard size takes on the
    /// reference machine (see `README.md`); a pass divides its time budget
    /// by this to choose its replica count.
    pub fn nominal_secs(self) -> f64 {
        match self {
            Kind::RpcStorm => 2.2,
            Kind::PaperMix => 3.2,
            Kind::FleetSurge => 1.1,
            Kind::DagHandoff => 1.3,
        }
    }

    /// Whether the workload's own configuration records platform
    /// telemetry. Only `fleet_surge` does: its obs plane and autoscaler are
    /// the code telemetry is meant to watch.
    pub fn telemetry_on(self) -> bool {
        self == Kind::FleetSurge
    }
}

/// How one instance is run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Workload size (see [`Kind::size`]).
    pub size: u64,
    /// Record platform telemetry.
    pub telemetry: bool,
}

/// A prepared workload: inputs generated, ready for the timed region.
pub trait Instance {
    /// The timed region: drive the program until every invocation ended.
    fn run(&mut self);
    /// After the timed region: check the outputs and report.
    fn finish(self: Box<Self>) -> Outcome;
}

/// Build an instance of `kind` (the set-up the child times).
pub fn prepare(kind: Kind, cfg: Config) -> Box<dyn Instance> {
    match kind {
        Kind::RpcStorm => Box::new(rpc_storm::prepare(cfg)),
        Kind::PaperMix => Box::new(paper_mix::prepare(cfg)),
        Kind::FleetSurge => Box::new(fleet_surge::prepare(cfg)),
        Kind::DagHandoff => Box::new(dag_handoff::prepare(cfg)),
    }
}

/// What one instance did. Everything except `telemetry` is derived from
/// virtual time and is deterministic per seed.
#[derive(Default)]
pub struct Outcome {
    /// Invocations launched: RPCs, functions or DAGs.
    pub launched: u64,
    /// Invocations that completed successfully.
    pub completed: u64,
    /// Invocations shed by admission control.
    pub shed: u64,
    /// Invocations that failed for any other reason.
    pub failed: u64,
    /// `(id, end-to-end latency in ns)` of every completed invocation,
    /// timed in virtual time from its scheduled arrival.
    pub latencies: Vec<(u64, u64)>,
    /// Queueing delay of every invocation that reached a server, ns.
    pub queue_delays: Vec<u64>,
    /// Platform attempts over all invocations.
    pub attempts: u64,
    /// Virtual time the invocations spent moving data, ns.
    pub transfer_ns: u64,
    /// Sum of every invocation's end-to-end latency, ns.
    pub e2e_ns: u64,
    /// GPU-resident buffers adopted by a successor stage.
    pub resident_adopts: u64,
    /// Kernel events, where the benchmark owns the simulation.
    pub events: Option<u64>,
    /// The run's telemetry registry (empty unless telemetry was on).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Mean |sim − paper| ÷ paper over Table II's six DGSF runtimes, ‰.
    pub model_err_permille: Option<f64>,
    /// Correctness violations; empty when every oracle passed.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Record a violation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The launch accounting every workload must satisfy.
    pub fn check_accounting(&mut self) {
        let (l, c, s, f) = (self.launched, self.completed, self.shed, self.failed);
        self.check(l == c + s + f, || {
            format!("launched {l} != completed {c} + shed {s} + failed {f}")
        });
        let n = self.latencies.len() as u64;
        self.check(n == c, || format!("{n} latencies for {c} completions"));
    }
}

/// A workload whose function body is recorded as a `workloads.run` span:
/// the workload models plus the guest library calls they make.
pub struct Timed(pub Arc<dyn Workload>);

impl Workload for Timed {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn tenant(&self) -> &str {
        self.0.tenant()
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        self.0.registry()
    }
    fn required_gpu_mem(&self) -> u64 {
        self.0.required_gpu_mem()
    }
    fn download_bytes(&self) -> u64 {
        self.0.download_bytes()
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        let _s = span("workloads.run");
        self.0.run(p, api, rec)
    }
    fn cpu_secs(&self) -> f64 {
        self.0.cpu_secs()
    }
}

/// A schedule run through `Testbed::run_platform_schedule[_traced]`.
pub struct PlatformRun {
    cfg: PlatformConfig,
    suite: Vec<Arc<dyn Workload>>,
    schedule: Schedule,
    telemetry: bool,
    result: Option<(BackendRunOutput, Option<Arc<Telemetry>>)>,
}

impl PlatformRun {
    /// A run of `schedule` over `suite` on the platform `cfg`, which must
    /// validate.
    fn new(
        cfg: PlatformConfig,
        suite: Vec<Arc<dyn Workload>>,
        schedule: Schedule,
        telemetry: bool,
    ) -> PlatformRun {
        if let Err(e) = cfg.validate() {
            panic!("benchmark platform config rejected: {e}");
        }
        PlatformRun {
            cfg,
            suite,
            schedule,
            telemetry,
            result: None,
        }
    }
}

impl Instance for PlatformRun {
    fn run(&mut self) {
        let _s = span("sim.run");
        self.result = Some(if self.telemetry {
            let (out, tel) =
                Testbed::run_platform_schedule_traced(&self.cfg, &self.suite, &self.schedule);
            (out, Some(tel))
        } else {
            let out = Testbed::run_platform_schedule(&self.cfg, &self.suite, &self.schedule);
            (out, None)
        });
    }

    fn finish(self: Box<Self>) -> Outcome {
        let (out, tel) = self.result.expect("finish runs after run");
        platform_outcome(&out, tel)
    }
}

/// The outcome of a platform run, checked by the exactly-once oracle.
fn platform_outcome(out: &BackendRunOutput, telemetry: Option<Arc<Telemetry>>) -> Outcome {
    let results = &out.results;
    let mut o = Outcome {
        launched: results.len() as u64,
        completed: out.completed() as u64,
        shed: out.shed() as u64,
        failed: out.failed() as u64,
        latencies: results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.succeeded())
            .map(|(i, r)| (r.trace.unwrap_or(i as u64), r.e2e().as_nanos()))
            .collect(),
        queue_delays: out
            .records
            .iter()
            .flatten()
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_nanos())
            .collect(),
        attempts: results.iter().map(|r| r.attempts as u64).sum(),
        transfer_ns: results
            .iter()
            .map(|r| r.phases.get(phase::TRANSFER).as_nanos())
            .sum(),
        e2e_ns: results.iter().map(|r| r.e2e().as_nanos()).sum(),
        telemetry,
        ..Outcome::default()
    };
    for v in dgsf::check_backend_run(out).violations {
        o.violations.push(format!("{}: {}", v.rule, v.detail));
    }
    o.check_accounting();
    o
}
