//! `dgsf-expt obs` — the observability-plane experiment: predictive vs
//! reactive autoscaling on a 10× diurnal ramp.
//!
//! Drives a host-heavy synthetic workload (0.75 s on the host, then 0.5 s
//! on the GPU) through an autoscaled, admission-controlled 2-GPU fleet
//! with a diurnal arrival profile: a low baseline rate, a 10× surge, then
//! the baseline again. Both runs attach the online observability plane
//! (`sim::obs`); the *predictive* run additionally puts the autoscaler in
//! predictive mode, so it pre-warms API servers on the plane's rate-ramp
//! signal instead of waiting for sustained queue-delay breaches, and
//! gates reactive scale-ups on the streamed queue-attributed share of
//! tail latency.
//!
//! The experiment reports, per mode, the shed count and the pool-grow
//! latency (first scale-up/prewarm after surge onset) — the paper-style
//! claim is that prediction sheds strictly less at an equal hardware
//! ceiling. The predictive run's dashboard (windows, burn-rate alerts,
//! health timeline) is exported as `dashboard.json` next to
//! `BENCH_obs.json`; both are integers-only and **byte-identical per
//! seed**, so CI diffs the quick run against a committed golden.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};

use crate::report::{point_seed, poisson, pool_peak, summary_of, TextTable};

/// The ramp's synthetic workload: 0.75 s of host-side pre-processing
/// followed by 0.5 s of GPU work (1 GB footprint, no download). The host
/// share is the point: it keeps the API server busy without occupying the
/// GPU, so the fleet's service rate is set by the *pool size* until GPU
/// compute saturates — exactly the regime where autoscaling lag turns
/// into queueing and sheds.
fn ramp_spin() -> Spin {
    Spin {
        gpu_secs: 0.5,
        host: Dur::from_millis(750),
        ..Spin::default()
    }
}

/// Baseline (off-peak) arrival rate, milli-requests/second.
const LOW_RPS_MILLI: u64 = 360;

/// Surge arrival rate — 10× the baseline, just under the 4 rps GPU
/// ceiling but far above what the off-peak pool serves (each server is
/// busy 1.25 s per function). A fully grown pool keeps up, so every shed
/// is a scaling-lag artifact — the quantity prediction is supposed to
/// shrink.
const HIGH_RPS_MILLI: u64 = 3_600;

/// One autoscaling mode's run over the ramp. All integers (virtual-time
/// derived), so the JSON rendering is byte-stable per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeStats {
    /// Functions launched.
    pub launched: u64,
    /// Functions that completed successfully.
    pub completed: u64,
    /// Functions shed (admission, queue-age bound, overload).
    pub shed: u64,
    /// Functions that failed for any other reason.
    pub failed: u64,
    /// Median end-to-end latency of completed functions (microseconds).
    pub p50_e2e_us: u64,
    /// 99th-percentile end-to-end latency (microseconds, nearest-rank).
    pub p99_e2e_us: u64,
    /// Peak API-server pool size (telemetry gauge).
    pub pool_peak: i64,
    /// Reactive scale-up actions.
    pub scale_ups: u64,
    /// Predictive pre-warm actions (0 in reactive mode).
    pub prewarms: u64,
    /// Scale-down actions.
    pub scale_downs: u64,
    /// Milliseconds from surge onset to the first pool growth
    /// (scale-up or prewarm) at or after it; -1 if the pool never grew.
    pub first_grow_ms_after_surge: i64,
    /// Burn-rate alerts fired by the plane.
    pub alerts_fired: u64,
    /// Burn-rate alerts cleared.
    pub alerts_cleared: u64,
}

/// The whole experiment: the same diurnal schedule run reactively and
/// predictively at an equal hardware ceiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsOutput {
    /// Seed the schedule and both runs derive from.
    pub seed: u64,
    /// Quick (CI) sizing.
    pub quick: bool,
    /// Surge onset, ms from run start.
    pub surge_start_ms: u64,
    /// Surge end, ms from run start.
    pub surge_end_ms: u64,
    /// Total launches in the schedule.
    pub launches: u64,
    /// The reactive (breach-driven) run.
    pub reactive: ModeStats,
    /// The predictive (ramp-prewarm, attribution-gated) run.
    pub predictive: ModeStats,
    /// The predictive run's dashboard (`ObsReport::dashboard_json`).
    pub dashboard: String,
}

/// The observability plane both runs attach: 2 s windows so the 10×
/// surge clears the ramp detector's minimum-arrivals floor well inside
/// one window, everything else at the paper defaults (2 s SLO, 10%
/// budget; the 2/8 burn windows are fixed).
fn obs_config() -> ObsConfig {
    ObsConfig::paper_default().with_window(Dur::from_secs(2))
}

/// The fleet under test: 2 GPUs shared 4 ways, autoscaling 1→4 API
/// servers per GPU (250 ms delay target over 4 ticks, 3 s idle TTL,
/// 600 ms cooldown), at most 24 functions in flight, 1.4 s queue-age shed
/// bound. `predictive` only toggles the autoscaler mode; the hardware
/// ceiling is identical.
fn ramp_config(seed: u64, predictive: bool) -> PlatformConfig {
    let mut auto = AutoscaleConfig::new(1, 4)
        .with_target_queue_delay(Dur::from_millis(250))
        .with_up_ticks(4)
        .with_idle_ttl(Dur::from_secs(3))
        .with_cooldown(Dur::from_millis(600));
    if predictive {
        auto = auto.with_predictive(PredictiveConfig::default());
    }
    PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(
            GpuServerConfig::paper_default()
                .gpus(2)
                .sharing(4)
                .with_autoscale(auto),
        )
        .with_max_inflight(24)
        .with_max_queue_age(Dur::from_millis(1_400))
        .with_obs(obs_config())
}

/// Poisson arrivals at `rate_milli_rps` filling `[start, start + len)`:
/// a seeded exponential-gap stream truncated to the segment. Deterministic
/// per seed.
fn segment(seed: u64, start: SimTime, len: Dur, rate_milli_rps: u64) -> Vec<(SimTime, usize)> {
    let expect = (len.as_nanos() as u128 * rate_milli_rps as u128 / 1_000_000_000_000) as usize;
    let over = expect * 2 + 16; // generous overdraw, then truncate
    let s = Schedule::mixed(seed, 1, over, poisson(rate_milli_rps));
    s.entries
        .into_iter()
        .filter(|(t, _)| t.since(SimTime::ZERO) < len)
        .map(|(t, w)| (start + t.since(SimTime::ZERO), w))
        .collect()
}

/// The diurnal ramp: low → 10× surge → low. Returns the schedule plus the
/// surge's `[start, end)` in ms.
fn diurnal(seed: u64, quick: bool) -> (Schedule, u64, u64) {
    let (low_ms, surge_ms) = if quick {
        (16_000u64, 20_000u64)
    } else {
        (30_000, 40_000)
    };
    let sub = |k: u64| point_seed(seed, k);
    let mut entries = segment(
        sub(0),
        SimTime::ZERO,
        Dur::from_millis(low_ms),
        LOW_RPS_MILLI,
    );
    entries.extend(segment(
        sub(1),
        SimTime::ZERO + Dur::from_millis(low_ms),
        Dur::from_millis(surge_ms),
        HIGH_RPS_MILLI,
    ));
    entries.extend(segment(
        sub(2),
        SimTime::ZERO + Dur::from_millis(low_ms + surge_ms),
        Dur::from_millis(low_ms),
        LOW_RPS_MILLI,
    ));
    (Schedule { entries }, low_ms, low_ms + surge_ms)
}

/// Run the ramp once in one mode; returns the stats and the plane's report.
fn run_mode(
    seed: u64,
    schedule: &Schedule,
    surge_start_ms: u64,
    predictive: bool,
) -> (ModeStats, ObsReport) {
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(ramp_spin())];
    let cfg = ramp_config(seed, predictive);
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, schedule);
    let report = out.obs.clone().expect("obs plane was configured");
    let arm = summary_of(&out, |_| true);
    let surge_start = SimTime::ZERO + Dur::from_millis(surge_start_ms);
    let first_grow_ms_after_surge = tel
        .instants()
        .iter()
        .filter(|e| (e.name == "scale-up" || e.name == "prewarm") && e.at >= surge_start)
        .map(|e| (e.at.since(surge_start).as_nanos() / 1_000_000) as i64)
        .min()
        .unwrap_or(-1);
    let fired = report.fired().count() as u64;
    let stats = ModeStats {
        launched: arm.launched,
        completed: arm.completed,
        shed: arm.shed,
        failed: arm.failed,
        p50_e2e_us: arm.p50_e2e_us,
        p99_e2e_us: arm.p99_e2e_us,
        pool_peak: pool_peak(&tel, &cfg),
        scale_ups: tel.counter("autoscale.scale_ups"),
        prewarms: tel.counter("autoscale.prewarms"),
        scale_downs: tel.counter("autoscale.scale_downs"),
        first_grow_ms_after_surge,
        alerts_fired: fired,
        alerts_cleared: report.alerts.len() as u64 - fired,
    };
    (stats, report)
}

/// Run the full experiment: one diurnal schedule, two modes, one
/// dashboard. Deterministic per `(seed, quick)`.
pub fn obs(seed: u64, quick: bool) -> ObsOutput {
    let (schedule, surge_start_ms, surge_end_ms) = diurnal(seed, quick);
    let (reactive, _) = run_mode(seed, &schedule, surge_start_ms, false);
    let (predictive, report) = run_mode(seed, &schedule, surge_start_ms, true);
    ObsOutput {
        seed,
        quick,
        surge_start_ms,
        surge_end_ms,
        launches: schedule.len() as u64,
        reactive,
        predictive,
        dashboard: report.dashboard_json(),
    }
}

fn mode_json(j: &mut JsonWriter, m: &ModeStats) {
    j.object(Inline, |j| {
        j.key("launched").u64(m.launched);
        j.key("completed").u64(m.completed);
        j.key("shed").u64(m.shed);
        j.key("failed").u64(m.failed);
        j.key("p50_e2e_us").u64(m.p50_e2e_us);
        j.key("p99_e2e_us").u64(m.p99_e2e_us);
        j.key("pool_peak").i64(m.pool_peak);
        j.key("scale_ups").u64(m.scale_ups);
        j.key("prewarms").u64(m.prewarms);
        j.key("scale_downs").u64(m.scale_downs);
        j.key("first_grow_ms_after_surge")
            .i64(m.first_grow_ms_after_surge);
        j.key("alerts_fired").u64(m.alerts_fired);
        j.key("alerts_cleared").u64(m.alerts_cleared);
    });
}

/// Render the mode comparison as JSON. Integers only — byte-identical per
/// seed. The dashboard is a separate artifact (`dashboard.json`).
pub fn obs_json(o: &ObsOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(o.seed);
        j.key("surge_start_ms").u64(o.surge_start_ms);
        j.key("surge_end_ms").u64(o.surge_end_ms);
        j.key("launches").u64(o.launches);
        mode_json(j.key("reactive"), &o.reactive);
        mode_json(j.key("predictive"), &o.predictive);
    });
    j.finish()
}

/// Human-readable comparison table.
pub fn obs_text(o: &ObsOutput) -> String {
    let mut t = TextTable::new(vec![
        "mode",
        "launched",
        "completed",
        "shed",
        "p50 e2e",
        "p99 e2e",
        "pool peak",
        "ups/pre/downs",
        "grow after surge",
        "alerts",
    ]);
    for (label, m) in [("reactive", &o.reactive), ("predictive", &o.predictive)] {
        t.row(vec![
            label.to_string(),
            m.launched.to_string(),
            m.completed.to_string(),
            m.shed.to_string(),
            format!("{:.2}s", m.p50_e2e_us as f64 / 1e6),
            format!("{:.2}s", m.p99_e2e_us as f64 / 1e6),
            m.pool_peak.to_string(),
            format!("{}/{}/{}", m.scale_ups, m.prewarms, m.scale_downs),
            if m.first_grow_ms_after_surge < 0 {
                "never".to_string()
            } else {
                format!("{}ms", m.first_grow_ms_after_surge)
            },
            format!("{}+{}", m.alerts_fired, m.alerts_cleared),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_schedule_is_sorted_dense_in_surge_and_deterministic() {
        let (s, surge_start, surge_end) = diurnal(42, true);
        assert!(s.entries.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        let in_surge = |t: &SimTime| {
            let ms = t.as_nanos() / 1_000_000;
            ms >= surge_start && ms < surge_end
        };
        let surge = s.entries.iter().filter(|(t, _)| in_surge(t)).count() as u64;
        let low = s.len() as u64 - surge;
        // The surge *rate* must be several-fold the off-peak rate; the
        // off-peak shoulders together span longer than the surge, so
        // normalize by span length rather than comparing raw counts.
        let surge_span_ms = surge_end - surge_start;
        let low_span_ms = s.entries.last().unwrap().0.as_nanos() / 1_000_000 - surge_span_ms;
        assert!(
            surge * low_span_ms > 4 * low * surge_span_ms,
            "surge {surge}/{surge_span_ms}ms vs off-peak {low}/{low_span_ms}ms — ramp is not 10×"
        );
        assert_eq!(s, diurnal(42, true).0, "schedule must be seed-stable");
        assert_ne!(s, diurnal(43, true).0);
    }

    #[test]
    fn both_modes_reconcile_with_the_obs_plane_and_the_counters() {
        let (schedule, _, _) = diurnal(42, true);
        let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(ramp_spin())];
        for predictive in [false, true] {
            let cfg = ramp_config(42, predictive);
            let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
            assert!(predictive || out.shed() > 0, "the reactive run must shed");
            dgsf::check_obs_reconciles(&out, &obs_config()).assert_ok();
            dgsf::check_backend_counters(&out, &tel).assert_ok();
        }
    }
}
