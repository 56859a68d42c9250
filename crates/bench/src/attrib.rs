//! `dgsf-expt attribute` — critical-path tail-latency attribution.
//!
//! Drives an overloaded two-tenant mix (a "hot" tenant flooding short
//! functions, a "cold" tenant with sparse heavy ones) through a traced
//! 2-server platform, assembles one causal trace per request from the
//! telemetry export, and decomposes every request's end-to-end latency
//! into an exact integer segment partition (`exec`, `transport`, phases,
//! `backoff`, ...). On top it reports per-(tenant, workload) p50/p95/p99
//! contribution tables with slowest-k exemplars, per-tenant SLO burn, and
//! the monitor queue-depth context (min / peak / time-weighted mean).
//!
//! Everything in `BENCH_attrib.json` and `attrib_traces.json` is an
//! integer derived from virtual time, so both files are **byte-identical
//! per seed** across runs and machines — CI diffs the quick variant
//! against a committed golden.

use dgsf::prelude::*;
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};
use dgsf::sim::trace::{
    assemble, attribute, slo_burn, GroupAttribution, SegmentStats, SloBurn, SloPolicy, TraceTree,
};

use crate::fleet::hot_cold_mix;
use crate::report::{point_seed, summary_of, TextTable};

/// Hot-tenant offered rate (milli-requests/second). With the cold
/// tenant's 2 rps of 1.2 s functions the offered load is ~4.8
/// GPU-seconds/second against 2 GPUs, so the scenario sheds — the
/// attribution must account shed and completed requests alike.
const HOT_RPS_MILLI: u64 = 8_000;
/// Platform-wide admission budget (2 slots per server).
const MAX_INFLIGHT: usize = 4;
/// Slowest-k exemplar traces kept per (tenant, workload) group.
const EXEMPLARS: usize = 5;

/// Per-tenant SLO used for burn accounting: 2 s end-to-end target with a
/// 10% error budget.
fn slo_policy() -> SloPolicy {
    SloPolicy {
        target_e2e: Dur::from_secs(2),
        error_budget_permille: 100,
    }
}

/// The whole attribution run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttribOutput {
    /// Base seed the scenario seed derives from.
    pub seed: u64,
    /// Arrival window, in seconds.
    pub window_secs: u64,
    /// Requests launched.
    pub launched: u64,
    /// ... of which completed.
    pub completed: u64,
    /// ... of which shed.
    pub shed: u64,
    /// ... of which terminally failed.
    pub failed: u64,
    /// Minimum monitor queue depth observed (always 0 in practice).
    pub queue_depth_min: i64,
    /// Peak monitor queue depth observed.
    pub queue_depth_peak: i64,
    /// Time-weighted mean monitor queue depth over the run.
    pub queue_depth_mean: i64,
    /// Per-(tenant, workload) attribution tables.
    pub groups: Vec<GroupAttribution>,
    /// Per-tenant SLO burn.
    pub slo: Vec<SloBurn>,
    /// Every assembled trace, sorted by id (exemplar export draws from
    /// these).
    pub trees: Vec<TraceTree>,
}

/// Run the attribution scenario. `quick` shrinks the arrival window (CI
/// smoke); deterministic per `(seed, quick)`.
pub fn attrib(base_seed: u64, quick: bool) -> AttribOutput {
    let window_secs: u64 = if quick { 3 } else { 8 };
    // Same derivation scheme as the fleet sweep's load points.
    let seed = point_seed(base_seed, 0);
    let (suite, schedule) = hot_cold_mix(seed, HOT_RPS_MILLI, window_secs);
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(1))
        .with_num_servers(2)
        .with_fleet_policy(FleetPolicy::LoadAware)
        .with_max_inflight(MAX_INFLIGHT)
        .with_weighted_fair();
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    let trees = assemble(&tel);
    // The invariant the whole module exists for: every request's critical
    // path sums exactly (integer ns) to its recorded end-to-end latency.
    for t in &trees {
        assert_eq!(
            t.segment_total(),
            t.e2e(),
            "trace {} segments must partition its window exactly",
            t.id
        );
    }
    let arm = summary_of(&out, |_| true);
    let groups = attribute(&trees, EXEMPLARS);
    let slo = slo_burn(&trees, &slo_policy());
    AttribOutput {
        seed: base_seed,
        window_secs,
        launched: arm.launched,
        completed: arm.completed,
        shed: arm.shed,
        failed: arm.failed,
        queue_depth_min: tel.gauge_min("monitor.queue_depth").unwrap_or(0),
        queue_depth_peak: tel.gauge_peak("monitor.queue_depth").unwrap_or(0),
        queue_depth_mean: tel
            .gauge_time_weighted_mean("monitor.queue_depth", out.all_done)
            .unwrap_or(0),
        groups,
        slo,
        trees,
    }
}

/// Render the attribution summary as JSON. Integers only — byte-identical
/// per seed.
pub fn attrib_json(a: &AttribOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(a.seed);
        j.key("window_secs").u64(a.window_secs);
        j.key("launched").u64(a.launched);
        j.key("completed").u64(a.completed);
        j.key("shed").u64(a.shed);
        j.key("failed").u64(a.failed);
        j.key("queue_depth_min").i64(a.queue_depth_min);
        j.key("queue_depth_peak").i64(a.queue_depth_peak);
        j.key("queue_depth_mean").i64(a.queue_depth_mean);
        j.key("groups").array(Lines(4), |j| {
            for g in &a.groups {
                j.object(Inline, |j| {
                    j.key("tenant").str(&g.tenant);
                    j.key("workload").str(&g.workload);
                    j.key("count").u64(g.count);
                    j.key("completed").u64(g.completed);
                    j.key("shed").u64(g.shed);
                    j.key("failed").u64(g.failed);
                    j.key("p50_e2e_ns").u64(g.p50_e2e_ns);
                    j.key("p99_e2e_ns").u64(g.p99_e2e_ns);
                    j.key("slowest").array(Inline, |j| {
                        for &id in &g.slowest {
                            j.u64(id);
                        }
                    });
                    j.key("segments").array(Inline, |j| {
                        for s in &g.segments {
                            j.object(Inline, |j| {
                                j.key("label").str(&s.label);
                                j.key("p50_ns").u64(s.p50_ns);
                                j.key("p95_ns").u64(s.p95_ns);
                                j.key("p99_ns").u64(s.p99_ns);
                                j.key("max_ns").u64(s.max_ns);
                                j.key("mean_ns").u64(s.mean_ns);
                                j.key("total_ns").u64(s.total_ns);
                            });
                        }
                    });
                });
            }
        });
        j.key("slo").array(Lines(4), |j| {
            for b in &a.slo {
                j.object(Inline, |j| {
                    j.key("tenant").str(&b.tenant);
                    j.key("total").u64(b.total);
                    j.key("violations").u64(b.violations);
                    j.key("violation_permille").u64(b.violation_permille);
                    j.key("budget_burn_permille").u64(b.budget_burn_permille);
                });
            }
        });
    });
    j.finish()
}

/// Render the slowest-k exemplar traces (union over groups, sorted by
/// trace id) as JSON. Integers only — byte-identical per seed.
pub fn traces_json(a: &AttribOutput) -> String {
    let mut wanted: Vec<u64> = a.groups.iter().flat_map(|g| g.slowest.clone()).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("exemplars").array(Lines(4), |j| {
            for t in a
                .trees
                .iter()
                .filter(|t| wanted.binary_search(&t.id).is_ok())
            {
                j.object(Inline, |j| {
                    j.key("id").u64(t.id);
                    j.key("tenant").str(&t.tenant);
                    j.key("workload").str(&t.workload);
                    j.key("outcome").str(t.outcome.as_str());
                    j.key("attempts").u64(u64::from(t.attempts));
                    j.key("start_ns").u64(t.start.as_nanos());
                    j.key("e2e_ns").u64(t.e2e().as_nanos());
                    j.key("segments").array(Inline, |j| {
                        for s in &t.segments {
                            j.object(Inline, |j| {
                                j.key("label").str(&s.label);
                                j.key("ns").u64(s.dur.as_nanos());
                            });
                        }
                    });
                });
            }
        });
    });
    j.finish()
}

/// Human-readable per-group attribution table: for each (tenant,
/// workload), the p99 contribution of every segment label.
pub fn attrib_text(a: &AttribOutput) -> String {
    let mut t = TextTable::new(vec![
        "tenant",
        "workload",
        "n (done/shed/fail)",
        "p50 e2e",
        "p99 e2e",
        "top p99 segments",
    ]);
    for g in &a.groups {
        let mut segs: Vec<&SegmentStats> = g.segments.iter().collect();
        segs.sort_by(|x, y| y.p99_ns.cmp(&x.p99_ns).then(x.label.cmp(&y.label)));
        let top: Vec<String> = segs
            .iter()
            .take(3)
            .filter(|s| s.p99_ns > 0)
            .map(|s| format!("{} {:.2}s", s.label, s.p99_ns as f64 / 1e9))
            .collect();
        t.row(vec![
            g.tenant.clone(),
            g.workload.clone(),
            format!("{} ({}/{}/{})", g.count, g.completed, g.shed, g.failed),
            format!("{:.2}s", g.p50_e2e_ns as f64 / 1e9),
            format!("{:.2}s", g.p99_e2e_ns as f64 / 1e9),
            top.join(", "),
        ]);
    }
    let mut out = t.render();
    let mut s = TextTable::new(vec![
        "tenant",
        "requests",
        "violations",
        "violation rate",
        "budget burned",
    ]);
    for b in &a.slo {
        s.row(vec![
            b.tenant.clone(),
            b.total.to_string(),
            b.violations.to_string(),
            format!("{:.1}%", b.violation_permille as f64 / 10.0),
            format!("{:.1}%", b.budget_burn_permille as f64 / 10.0),
        ]);
    }
    out.push('\n');
    out.push_str(&s.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_run_is_deterministic_and_exercises_every_outcome() {
        let a = attrib(42, true);
        // The scenario is deliberately overloaded: both completions and
        // sheds must be present so the attribution covers both paths.
        assert!(a.completed > 0, "scenario completed nothing");
        assert!(a.shed > 0, "scenario shed nothing");
        assert_eq!(a.launched, a.completed + a.shed + a.failed);
        assert_eq!(a.launched, a.trees.len() as u64, "one trace per request");
        // Both tenants appear in the group tables and SLO burn.
        assert_eq!(a.slo.len(), 2);
        assert!(a.groups.iter().any(|g| g.tenant == "hot"));
        assert!(a.groups.iter().any(|g| g.tenant == "cold"));
        assert!(a.queue_depth_peak >= a.queue_depth_mean);
        assert!(a.queue_depth_mean >= a.queue_depth_min);
        // Byte-determinism: the same seed renders the same bytes.
        let b = attrib(42, true);
        assert_eq!(attrib_json(&a), attrib_json(&b));
        assert_eq!(traces_json(&a), traces_json(&b));
    }
}
