//! The experiment testbed: one-call orchestration of the paper's
//! measurement setups.
//!
//! Every table and figure in §VIII boils down to: provision a GPU server
//! with some configuration, launch a schedule of workloads against it (or
//! run single workloads natively / on CPU), and collect end-to-end times,
//! queue delays, phase breakdowns and utilization timelines. [`Testbed`]
//! packages exactly that, deterministically per seed. Every DGSF run goes
//! through the serverless backend in front of a fleet described by one
//! [`PlatformConfig`]; a single server is a fleet of one.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::CostTable;
use dgsf_server::{GpuServer, InvocationRecord, MigrationRecord};
use dgsf_serverless::{
    invoke_cpu, invoke_native, Backend, FunctionResult, ObjectStore, Schedule, Workload,
};
use dgsf_sim::TraceOutcome;
use dgsf_sim::{Dur, ObsPlane, ObsReport, Sim, SimCell, SimTime, Telemetry, Timeline};

use crate::PlatformConfig;

/// Everything a platform schedule run produced.
pub struct BackendRunOutput {
    /// Per-function results in completion order — including shed ones
    /// ([`FunctionResult::shed`]), which is the point of running through
    /// the backend.
    pub results: Vec<FunctionResult>,
    /// Server-side invocation records, one `Vec` per fleet member.
    pub records: Vec<Vec<InvocationRecord>>,
    /// Committed migrations, one `Vec` per fleet member.
    pub migrations: Vec<Vec<MigrationRecord>>,
    /// Final API-server pool size per fleet member (autoscaled fleets may
    /// differ from the provisioned count).
    pub pool_sizes: Vec<usize>,
    /// Compute busy timelines of every GPU in the fleet, in server order.
    pub gpu_timelines: Vec<Timeline>,
    /// When the first function launched.
    pub first_launch: SimTime,
    /// When the last function finished (completed or shed).
    pub all_done: SimTime,
    /// Observability report (windows, alerts, health) when the run was
    /// configured with [`PlatformConfig::obs`]; `None` otherwise.
    pub obs: Option<ObsReport>,
}

impl BackendRunOutput {
    /// Functions that completed successfully.
    pub fn completed(&self) -> usize {
        self.ended(TraceOutcome::Completed)
    }

    /// Functions shed by admission control / overload.
    pub fn shed(&self) -> usize {
        self.ended(TraceOutcome::Shed)
    }

    /// Functions that failed for any non-shed reason.
    pub fn failed(&self) -> usize {
        self.ended(TraceOutcome::Failed)
    }

    fn ended(&self, o: TraceOutcome) -> usize {
        self.results.iter().filter(|r| r.outcome() == o).count()
    }

    /// Provider end-to-end time: launch of the first function to completion
    /// of the last (Tables III/IV's "End to end").
    pub fn provider_e2e(&self) -> Dur {
        self.all_done.since(self.first_launch)
    }

    /// Sum of every function's end-to-end time (Tables III/IV's
    /// "Function E2E Sum").
    pub fn function_e2e_sum(&self) -> Dur {
        self.results.iter().fold(Dur::ZERO, |acc, r| acc + r.e2e())
    }

    /// Mean GPU utilization (busy-time fraction) over `[a, b)`, across
    /// every GPU of the fleet.
    pub fn mean_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        if b <= a || self.gpu_timelines.is_empty() {
            return 0.0;
        }
        let span = b.since(a).as_secs_f64();
        let total: f64 = self
            .gpu_timelines
            .iter()
            .map(|tl| tl.busy_between(a, b).as_secs_f64() / span)
            .sum();
        total / self.gpu_timelines.len() as f64
    }

    /// Results for one workload name.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FunctionResult> {
        self.results.iter().filter(move |r| r.name == name)
    }

    /// Queue delays (seconds) for one workload name, via server records of
    /// every fleet member.
    pub fn queue_delays(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .flatten()
            .filter(|r| r.name == name)
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .collect()
    }
}

/// Deterministic experiment orchestration.
pub struct Testbed;

impl Testbed {
    /// Run a schedule on the platform `cfg` describes: the fleet is
    /// provisioned, the cluster balancer routes under `cfg.policy`, and
    /// admission control sheds per `cfg.admission`. Each schedule entry
    /// spawns one function at its launch time; every launch yields a
    /// [`FunctionResult`] — overload turns into shed results, not panics —
    /// so saturation experiments terminate.
    ///
    /// Panics when [`PlatformConfig::validate`] rejects `cfg`.
    pub fn run_platform_schedule(
        cfg: &PlatformConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> BackendRunOutput {
        run_platform(cfg, suite, schedule, false).0
    }

    /// [`run_platform_schedule`](Self::run_platform_schedule) with
    /// telemetry recording on: also returns the run's telemetry registry,
    /// ready to export or to assert against. Same seed ⇒ byte-identical
    /// exports.
    pub fn run_platform_schedule_traced(
        cfg: &PlatformConfig,
        suite: &[Arc<dyn Workload>],
        schedule: &Schedule,
    ) -> (BackendRunOutput, Arc<Telemetry>) {
        run_platform(cfg, suite, schedule, true)
    }

    /// Run one workload alone over DGSF (warm server, no contention).
    pub fn run_dgsf_once(cfg: &PlatformConfig, w: Arc<dyn Workload>) -> FunctionResult {
        run_one(cfg, w, false).0
    }

    /// [`run_dgsf_once`](Self::run_dgsf_once) with telemetry recording on.
    pub fn run_dgsf_once_traced(
        cfg: &PlatformConfig,
        w: Arc<dyn Workload>,
    ) -> (FunctionResult, Arc<Telemetry>) {
        run_one(cfg, w, true)
    }

    /// Run one workload natively (dedicated machine with a local GPU).
    pub fn run_native_once(seed: u64, costs: &CostTable, w: Arc<dyn Workload>) -> FunctionResult {
        run_native(seed, costs, w, false).0
    }

    /// [`run_native_once`](Self::run_native_once) with telemetry recording
    /// on.
    pub fn run_native_once_traced(
        seed: u64,
        costs: &CostTable,
        w: Arc<dyn Workload>,
    ) -> (FunctionResult, Arc<Telemetry>) {
        run_native(seed, costs, w, true)
    }

    /// Run one workload on the CPU baseline (6 threads, cost-modeled).
    pub fn run_cpu_once(seed: u64, w: Arc<dyn Workload>) -> FunctionResult {
        let mut sim = Sim::new(seed);
        let store = Arc::new(ObjectStore::new(
            dgsf_remoting::NetProfile::datacenter().s3_bw,
        ));
        let out = Rc::new(SimCell::new(&sim.handle(), None));
        let o = Rc::clone(&out);
        sim.spawn("cpu-root", move |p| {
            let r = invoke_cpu(p, &store, w.as_ref());
            *o.borrow_in(p) = Some(r);
        });
        sim.run();
        let r = out.lock().take().expect("ran");
        r
    }
}

/// The one schedule runner behind every DGSF entry point.
fn run_platform(
    cfg: &PlatformConfig,
    suite: &[Arc<dyn Workload>],
    schedule: &Schedule,
    trace: bool,
) -> (BackendRunOutput, Arc<Telemetry>) {
    if let Err(e) = cfg.validate() {
        panic!("invalid PlatformConfig: {e}");
    }
    let mut sim = Sim::new(cfg.seed);
    let telemetry = sim.telemetry();
    if trace {
        telemetry.enable();
    }
    let h = sim.handle();
    let results = Rc::new(SimCell::new(&h, Vec::new()));
    let fleet_out: Rc<SimCell<Vec<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let store = Arc::new(ObjectStore::new(cfg.server.net.s3_bw));
    let cfg2 = cfg.clone();
    let suite: Vec<Arc<dyn Workload>> = suite.to_vec();
    let schedule = schedule.clone();
    let n_functions = schedule.len();
    let results2 = Rc::clone(&results);
    let fleet_out2 = Rc::clone(&fleet_out);
    let plane = cfg.obs.clone().map(|o| Rc::new(ObsPlane::new(&h, o)));
    let plane2 = plane.clone();
    let h2 = h.clone();
    sim.spawn("platform-root", move |p| {
        let fleet: Vec<Arc<GpuServer>> = (0..cfg2.num_servers)
            .map(|i| {
                let obs = plane2.clone().map(|pl| (pl, format!("srv{i}")));
                GpuServer::provision_observed(p, &h2, cfg2.server.clone(), obs)
            })
            .collect();
        let mut backend = Backend::new(&h2, fleet.clone(), cfg2.policy).with_retry(cfg2.retry);
        if let Some(adm) = cfg2.admission.clone() {
            backend = backend.with_admission(adm);
        }
        if let Some(sticky) = cfg2.sticky.clone() {
            backend = backend.with_sticky(sticky);
        }
        if let Some(pl) = plane2.clone() {
            backend = backend.with_obs(pl);
        }
        let backend = Rc::new(backend);
        for (at, widx) in schedule.entries.iter().copied() {
            let w = Arc::clone(&suite[widx]);
            let backend = Rc::clone(&backend);
            let store = Arc::clone(&store);
            let results = Rc::clone(&results2);
            let opts = cfg2.opts;
            h2.spawn_at(&format!("fn-{}-{widx}", at.as_nanos()), at, move |p| {
                let r = backend.invoke(p, &store, w.as_ref(), opts);
                results.borrow_in(p).push(r);
            });
        }
        // The fleet's logs are read once the run is over, not when the last
        // function returns: a server marks an invocation's record terminal
        // only after the client already has its reply.
        *fleet_out2.borrow_in(p) = fleet;
    });
    sim.run();
    let mut results = std::mem::take(&mut *results.lock());
    assert_eq!(
        results.len(),
        n_functions,
        "only {} of {n_functions} scheduled functions returned; still blocked: {:?}",
        results.len(),
        sim.blocked_processes()
    );
    results.sort_by_key(|r| r.finished_at);
    let fleet = std::mem::take(&mut *fleet_out.lock());
    let records = fleet.iter().map(|s| s.records()).collect();
    let migrations = fleet.iter().map(|s| s.migrations()).collect();
    let pool_sizes = fleet.iter().map(|s| s.pool_size()).collect();
    let gpu_timelines = fleet
        .iter()
        .flat_map(|s| s.gpus.iter().map(|g| g.take_compute_timeline()))
        .collect();
    let first_launch = results
        .iter()
        .map(|r| r.launched_at)
        .min()
        .unwrap_or(SimTime::ZERO);
    let all_done = results
        .iter()
        .map(|r| r.finished_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let obs = plane.map(|pl| pl.report());
    (
        BackendRunOutput {
            results,
            records,
            migrations,
            pool_sizes,
            gpu_timelines,
            first_launch,
            all_done,
            obs,
        },
        telemetry,
    )
}

/// One workload launched at time zero on the platform.
fn run_one(
    cfg: &PlatformConfig,
    w: Arc<dyn Workload>,
    trace: bool,
) -> (FunctionResult, Arc<Telemetry>) {
    let schedule = Schedule {
        entries: vec![(SimTime::ZERO, 0)],
    };
    let (out, tel) = run_platform(cfg, &[w], &schedule, trace);
    let r = out.results.into_iter().next().expect("one function ran");
    (r, tel)
}

fn run_native(
    seed: u64,
    costs: &CostTable,
    w: Arc<dyn Workload>,
    trace: bool,
) -> (FunctionResult, Arc<Telemetry>) {
    let mut sim = Sim::new(seed);
    let telemetry = sim.telemetry();
    if trace {
        telemetry.enable();
    }
    let h = sim.handle();
    let store = Arc::new(ObjectStore::new(
        dgsf_remoting::NetProfile::datacenter().s3_bw,
    ));
    let costs = Arc::new(costs.clone());
    let out = Rc::new(SimCell::new(&h, None));
    let o = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("native-root", move |p| {
        let r = invoke_native(p, &h2, &store, w.as_ref(), costs);
        *o.borrow_in(p) = Some(r);
    });
    sim.run();
    let r = out.lock().take().expect("ran");
    (r, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_server::GpuServerConfig;

    #[test]
    fn an_empty_schedule_returns_empty_logs_and_the_provisioned_pools() {
        let server = GpuServerConfig::paper_default().gpus(2).sharing(2);
        let cfg = PlatformConfig::paper_default()
            .with_server(server.clone())
            .with_num_servers(3);
        let out = Testbed::run_platform_schedule(&cfg, &[], &Schedule { entries: vec![] });
        assert!(out.results.is_empty());
        assert_eq!(out.records.len(), 3);
        assert!(out.records.iter().all(Vec::is_empty));
        assert_eq!(out.migrations.len(), 3);
        assert!(out.migrations.iter().all(Vec::is_empty));
        assert_eq!(out.pool_sizes, vec![server.total_api_servers() as usize; 3]);
        assert_eq!(out.gpu_timelines.len(), 6);
        assert_eq!(out.provider_e2e(), Dur::ZERO);
    }
}
