//! `dgsf-expt pipeline` — host-bounce vs GPU-resident DAG handoff.
//!
//! Drives the three-stage vision pipeline (preprocess → infer →
//! postprocess, 128 MB intermediates) as function DAGs from two tenants
//! against one two-API-server GPU server, once per
//! [`HandoffMode`]: the host-bounce baseline pays the intermediate bytes
//! twice over the remoting link per edge, the GPU-resident arm parks them
//! in the serving context's resident store (`publish_buffer` /
//! `adopt_buffer`) and pins the successor stage to that server. Both arms
//! replay the identical launch schedule at the same seed, so the latency
//! gap is attributable to the handoff path alone.
//!
//! Everything in `BENCH_pipeline.json` is an integer derived from virtual
//! time, so the file is **byte-identical per seed** across runs and
//! machines — CI diffs it against a committed golden.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::cuda::ResidentEvent;
use dgsf::prelude::*;
use dgsf::server::GpuServer;
use dgsf::serverless::{DagResult, DagWorkload, HandoffMode, ObjectStore};
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};
use dgsf::sim::{SimCell, SimTime};

use crate::report::{ArmSummary, TextTable};

const MB: u64 = 1 << 20;

/// Raw input the first stage uploads (and downloads from the store).
const INPUT_BYTES: u64 = 8 * MB;
/// Size of both inter-stage tensors — the bytes under measurement.
const INTER_BYTES: u64 = 128 * MB;
/// The (small) result the last stage returns.
const FINAL_BYTES: u64 = MB;
/// GPU seconds per stage.
const STAGE_SECS: [f64; 3] = [0.02, 0.15, 0.02];
/// Gap between consecutive DAG launches (milliseconds). Tight enough that
/// neighbouring DAGs contend for the two API servers.
const LAUNCH_GAP_MS: u64 = 250;

/// One arm of the comparison. All integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineArm {
    /// `"host_bounce"` or `"gpu_resident"`.
    pub mode: &'static str,
    /// DAGs launched.
    pub launched: u64,
    /// DAGs completed (all stages succeeded).
    pub completed: u64,
    /// DAGs shed or failed.
    pub failed: u64,
    /// p50 end-to-end DAG latency over completions (microseconds).
    pub p50_e2e_us: u64,
    /// p99 end-to-end DAG latency over completions (microseconds).
    pub p99_e2e_us: u64,
    /// Total time stages spent in the `transfer` phase (milliseconds) —
    /// where the host bounce pays and the resident path does not.
    pub transfer_ms: u64,
    /// Completed DAGs whose stages all ran on one API server, in permille
    /// of completions. 1000 in the resident arm (pinning); free placement
    /// in the bounce arm.
    pub colocated_permille: u64,
    /// `publish_buffer` calls logged by the fleet's resident stores.
    pub publishes: u64,
    /// `adopt_buffer` calls logged.
    pub adopts: u64,
    /// Reclaims logged (abort/teardown path; 0 on the fault-free runs).
    pub reclaims: u64,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOutput {
    /// Seed both arms share.
    pub seed: u64,
    /// DAGs launched per arm.
    pub dags: u64,
    /// Inter-stage tensor size (MB).
    pub inter_mb: u64,
    /// The two arms, host bounce first.
    pub arms: Vec<PipelineArm>,
}

/// Run one arm: `n` DAGs from two alternating tenants, launched
/// `LAUNCH_GAP_MS` apart against one two-API-server GPU server.
fn pipeline_arm(seed: u64, n: usize, mode: HandoffMode) -> PipelineArm {
    let mut sim = Sim::new(seed);
    sim.telemetry().enable();
    let h = sim.handle();
    let results: Rc<SimCell<Vec<(usize, DagResult)>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let server_out: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let (r2, s2) = (Rc::clone(&results), Rc::clone(&server_out));
    let h2 = h.clone();
    sim.spawn("pipeline-root", move |p| {
        let cfg = GpuServerConfig::paper_default().gpus(2);
        let server = GpuServer::provision(p, &h2, cfg);
        *s2.borrow_in(p) = Some(Arc::clone(&server));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..n {
            let server = Arc::clone(&server);
            let store = Arc::clone(&store);
            let results = Rc::clone(&r2);
            let tenant = if i % 2 == 0 { "acme" } else { "globex" };
            let dag = DagWorkload::pipeline3(
                "vision",
                mode,
                INPUT_BYTES,
                INTER_BYTES,
                FINAL_BYTES,
                STAGE_SECS,
            )
            .with_tenant(tenant);
            let at = SimTime::ZERO + Dur::from_millis(LAUNCH_GAP_MS * i as u64);
            h2.spawn_at(&format!("dag-{i}"), at, move |p| {
                let inv = Invoker::new(&server, &store);
                let r = inv.invoke_dag(p, &dag, InvokeOptions::new(OptConfig::full()), 3);
                results.borrow_in(p).push((i, r));
            });
        }
    });
    sim.run();

    let mut runs = std::mem::take(&mut *results.lock());
    assert_eq!(
        runs.len(),
        n,
        "only {} of {n} DAGs returned; still blocked: {:?}",
        runs.len(),
        sim.blocked_processes()
    );
    let server = server_out
        .lock()
        .take()
        .expect("the root provisioned the server");
    // Fault-free arms must satisfy the handoff and memory oracles outright
    // before their numbers are worth reporting.
    dgsf::check_resident_handoff(&server).assert_ok();
    dgsf::check_memory_balance(&server, true).assert_ok();
    let events = server.resident_events();
    runs.sort_by_key(|(i, _)| *i);
    let runs: Vec<DagResult> = runs.into_iter().map(|(_, r)| r).collect();
    // The arm reports no goodput, so it needs no window.
    let arm = ArmSummary::of(runs.iter().map(|r| (r.outcome(), r.e2e())), Dur::ZERO);
    let transfer_ns: u64 = runs
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.phases.get(dgsf::serverless::phase::TRANSFER).as_nanos())
        .sum();
    let colocated = runs
        .iter()
        .filter(|r| r.succeeded())
        .filter(|r| {
            let first = r.stages.first().and_then(|s| s.server);
            first.is_some() && r.stages.iter().all(|s| s.server == first)
        })
        .count() as u64;
    let count_ev = |f: fn(&ResidentEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    PipelineArm {
        mode: mode.as_str(),
        launched: arm.launched,
        completed: arm.completed,
        failed: arm.shed + arm.failed,
        p50_e2e_us: arm.p50_e2e_us,
        p99_e2e_us: arm.p99_e2e_us,
        transfer_ms: transfer_ns / 1_000_000,
        colocated_permille: (colocated * 1000).checked_div(arm.completed).unwrap_or(0),
        publishes: count_ev(|e| matches!(e, ResidentEvent::Published { .. })),
        adopts: count_ev(|e| matches!(e, ResidentEvent::Adopted { .. })),
        reclaims: count_ev(|e| matches!(e, ResidentEvent::Reclaimed { .. })),
    }
}

/// Run the full comparison. `quick` shrinks the DAG count (CI smoke);
/// deterministic per `(seed, quick)`.
pub fn pipeline(seed: u64, quick: bool) -> PipelineOutput {
    let n = if quick { 8 } else { 40 };
    PipelineOutput {
        seed,
        dags: n as u64,
        inter_mb: INTER_BYTES / MB,
        arms: vec![
            pipeline_arm(seed, n, HandoffMode::HostBounce),
            pipeline_arm(seed, n, HandoffMode::GpuResident),
        ],
    }
}

/// Render the comparison as JSON. Integers only — byte-identical per seed.
pub fn pipeline_json(o: &PipelineOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(o.seed);
        j.key("dags").u64(o.dags);
        j.key("inter_mb").u64(o.inter_mb);
        j.key("arms").array(Lines(4), |j| {
            for a in &o.arms {
                j.object(Inline, |j| {
                    j.key("mode").str(a.mode);
                    j.key("launched").u64(a.launched);
                    j.key("completed").u64(a.completed);
                    j.key("failed").u64(a.failed);
                    j.key("p50_e2e_us").u64(a.p50_e2e_us);
                    j.key("p99_e2e_us").u64(a.p99_e2e_us);
                    j.key("transfer_ms").u64(a.transfer_ms);
                    j.key("colocated_permille").u64(a.colocated_permille);
                    j.key("publishes").u64(a.publishes);
                    j.key("adopts").u64(a.adopts);
                    j.key("reclaims").u64(a.reclaims);
                });
            }
        });
    });
    j.finish()
}

/// Human-readable table of the comparison.
pub fn pipeline_text(o: &PipelineOutput) -> String {
    let mut t = TextTable::new(vec![
        "handoff",
        "dags",
        "completed",
        "p50 e2e",
        "p99 e2e",
        "transfer",
        "colocated",
        "pub/adopt/reclaim",
    ]);
    for a in &o.arms {
        t.row(vec![
            a.mode.to_string(),
            a.launched.to_string(),
            a.completed.to_string(),
            format!("{:.2}s", a.p50_e2e_us as f64 / 1e6),
            format!("{:.2}s", a.p99_e2e_us as f64 / 1e6),
            format!("{:.2}s", a.transfer_ms as f64 / 1e3),
            format!("{:.3}", a.colocated_permille as f64 / 1000.0),
            format!("{}/{}/{}", a.publishes, a.adopts, a.reclaims),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_arm_beats_host_bounce_at_equal_demand() {
        let o = pipeline(42, true);
        let (bounce, resident) = (&o.arms[0], &o.arms[1]);
        assert_eq!(bounce.mode, "host_bounce");
        assert_eq!(resident.mode, "gpu_resident");
        // Equal demand, fully served in both arms — the comparison is
        // latency at the same completed count.
        assert_eq!(bounce.completed, bounce.launched);
        assert_eq!(resident.completed, bounce.completed);
        assert!(
            resident.p50_e2e_us < bounce.p50_e2e_us,
            "resident p50 {} must beat bounce {}",
            resident.p50_e2e_us,
            bounce.p50_e2e_us
        );
        assert!(
            resident.p99_e2e_us < bounce.p99_e2e_us,
            "resident p99 {} must beat bounce {}",
            resident.p99_e2e_us,
            bounce.p99_e2e_us
        );
        assert!(
            resident.transfer_ms < bounce.transfer_ms,
            "the gap must come from the transfer phase"
        );
        // The bookkeeping behind the gap: one publish + one adopt per
        // interior edge, nothing reclaimed, every DAG colocated.
        assert_eq!(resident.publishes, 2 * o.dags);
        assert_eq!(resident.adopts, 2 * o.dags);
        assert_eq!(resident.reclaims, 0);
        assert_eq!(resident.colocated_permille, 1000);
        assert_eq!(bounce.publishes + bounce.adopts + bounce.reclaims, 0);
    }

    #[test]
    fn pipeline_output_is_deterministic_per_seed() {
        let a = pipeline(7, true);
        let b = pipeline(7, true);
        assert_eq!(pipeline_json(&a), pipeline_json(&b));
    }
}
