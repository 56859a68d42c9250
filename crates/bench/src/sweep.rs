//! `dgsf-expt sweep` — the open-loop load sweep.
//!
//! Drives Poisson (exponential-gap) arrivals of a fixed synthetic workload
//! at a range of offered rates through the serverless backend, against an
//! autoscaled GPU server with admission control. For each rate the sweep
//! records throughput, p50/p99 end-to-end latency, the shed rate and the
//! autoscaler's activity — the curve that shows the platform saturating
//! gracefully (bounded p99, shed < 100%) instead of queueing without
//! bound.
//!
//! Everything in `BENCH_sweep.json` is an integer derived from virtual
//! time, so the file is **byte-identical per seed** across runs and
//! machines — CI diffs it against a committed golden.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};

use crate::report::{point_seed, poisson, pool_peak, summary_of, TextTable};

/// GPU seconds of work per invocation of the sweep's synthetic workload
/// (one kernel, 1 GB footprint, no download — small enough that the
/// saturation point is set by compute, not memory). With 2 GPUs the
/// fleet's compute ceiling is `2 / SPIN_SECS` = 4 functions per second.
const SPIN_SECS: f64 = 0.5;

/// Offered load points, in milli-requests-per-second. The ceiling of the
/// swept fleet is 4 rps, so the top points are firmly past saturation.
const RATES_MILLI_RPS: &[u64] = &[1_000, 2_000, 3_000, 4_000, 6_000, 8_000];

/// One point of the sweep. All integers (virtual-time derived), so the
/// JSON rendering is byte-stable per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Offered arrival rate (milli-requests/second).
    pub offered_rps_milli: u64,
    /// Functions launched at this point.
    pub launched: u64,
    /// Functions that completed successfully.
    pub completed: u64,
    /// Functions shed by admission control / overload.
    pub shed: u64,
    /// Functions that failed for any other reason.
    pub failed: u64,
    /// Median end-to-end latency of completed functions (microseconds).
    pub p50_e2e_us: u64,
    /// 99th-percentile end-to-end latency of completed functions
    /// (microseconds, nearest-rank).
    pub p99_e2e_us: u64,
    /// Achieved goodput (milli-requests/second of completions over the
    /// first-launch → all-done window).
    pub throughput_rps_milli: u64,
    /// Peak API-server pool size across the run (telemetry gauge).
    pub pool_peak: i64,
    /// Autoscaler scale-up actions.
    pub scale_ups: u64,
    /// Autoscaler scale-down actions.
    pub scale_downs: u64,
}

/// The whole sweep: one point per offered rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutput {
    /// Base seed the per-point seeds derive from.
    pub seed: u64,
    /// Launches per point.
    pub launches_per_point: usize,
    /// The measured curve, in offered-rate order.
    pub points: Vec<SweepPoint>,
}

/// The fleet under test: 2 GPUs, autoscaling 1→4 servers per GPU,
/// admission-controlled backend.
fn sweep_config(seed: u64) -> PlatformConfig {
    PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(
            GpuServerConfig::paper_default().gpus(2).with_autoscale(
                AutoscaleConfig::new(1, 4)
                    .with_target_queue_delay(Dur::from_millis(250))
                    .with_up_ticks(2)
                    .with_idle_ttl(Dur::from_secs(3))
                    .with_cooldown(Dur::from_millis(400)),
            ),
        )
        .with_max_inflight(24)
        .with_max_queue_age(Dur::from_secs(3))
}

/// Run one point: `launches` Poisson arrivals at `rate_milli_rps` through
/// the admission-controlled, autoscaled fleet.
fn run_point(base_seed: u64, idx: usize, rate_milli_rps: u64, launches: usize) -> SweepPoint {
    let seed = point_seed(base_seed, idx as u64);
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(Spin {
        gpu_secs: SPIN_SECS,
        ..Spin::default()
    })];
    let schedule = Schedule::mixed(seed, 1, launches, poisson(rate_milli_rps));
    let cfg = sweep_config(seed);
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    let arm = summary_of(&out, |_| true);
    SweepPoint {
        offered_rps_milli: rate_milli_rps,
        launched: arm.launched,
        completed: arm.completed,
        shed: arm.shed,
        failed: arm.failed,
        p50_e2e_us: arm.p50_e2e_us,
        p99_e2e_us: arm.p99_e2e_us,
        throughput_rps_milli: arm.goodput_rps_milli,
        pool_peak: pool_peak(&tel, &cfg),
        scale_ups: tel.counter("autoscale.scale_ups"),
        scale_downs: tel.counter("autoscale.scale_downs"),
    }
}

/// Run the full sweep. `quick` shrinks launches per point (CI smoke);
/// deterministic per `(seed, quick)`.
pub fn sweep(seed: u64, quick: bool) -> SweepOutput {
    let launches = if quick { 40 } else { 120 };
    let points = RATES_MILLI_RPS
        .iter()
        .enumerate()
        .map(|(i, &r)| run_point(seed, i, r, launches))
        .collect();
    SweepOutput {
        seed,
        launches_per_point: launches,
        points,
    }
}

/// Render the sweep as JSON. Integers only — byte-identical per seed.
pub fn sweep_json(s: &SweepOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(s.seed);
        j.key("launches_per_point").u64(s.launches_per_point as u64);
        j.key("points").array(Lines(4), |j| {
            for p in &s.points {
                j.object(Inline, |j| {
                    j.key("offered_rps_milli").u64(p.offered_rps_milli);
                    j.key("launched").u64(p.launched);
                    j.key("completed").u64(p.completed);
                    j.key("shed").u64(p.shed);
                    j.key("failed").u64(p.failed);
                    j.key("p50_e2e_us").u64(p.p50_e2e_us);
                    j.key("p99_e2e_us").u64(p.p99_e2e_us);
                    j.key("throughput_rps_milli").u64(p.throughput_rps_milli);
                    j.key("pool_peak").i64(p.pool_peak);
                    j.key("scale_ups").u64(p.scale_ups);
                    j.key("scale_downs").u64(p.scale_downs);
                });
            }
        });
    });
    j.finish()
}

/// Human-readable table of the sweep.
pub fn sweep_text(s: &SweepOutput) -> String {
    let mut t = TextTable::new(vec![
        "offered rps",
        "goodput rps",
        "completed",
        "shed",
        "failed",
        "p50 e2e",
        "p99 e2e",
        "pool peak",
        "ups/downs",
    ]);
    for p in &s.points {
        t.row(vec![
            format!("{:.1}", p.offered_rps_milli as f64 / 1000.0),
            format!("{:.2}", p.throughput_rps_milli as f64 / 1000.0),
            p.completed.to_string(),
            p.shed.to_string(),
            p.failed.to_string(),
            format!("{:.2}s", p.p50_e2e_us as f64 / 1e6),
            format!("{:.2}s", p.p99_e2e_us as f64 / 1e6),
            p.pool_peak.to_string(),
            format!("{}/{}", p.scale_ups, p.scale_downs),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_light_point_completes_everything() {
        // Far below the 4 rps ceiling: nothing shed, all completed.
        let p = run_point(42, 0, 1_000, 10);
        assert_eq!(p.launched, 10);
        assert_eq!(p.completed, 10);
        assert_eq!(p.shed + p.failed, 0);
        assert!(p.p50_e2e_us >= (SPIN_SECS * 1e6) as u64);
    }
}
