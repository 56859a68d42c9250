//! Mixed-workload experiments: Tables III/IV, Figures 5/6/7/8 (§VIII-D/E).

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::sim::{moving_average, SimTime};
use dgsf::workloads::{
    as_workloads, image_classification, nlp, paper_suite, smaller_suite, TraceSpec,
};

use crate::report::{secs, TextTable};

/// The three sharing configurations the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// One API server per GPU.
    NoSharing,
    /// Two API servers per GPU, best-fit placement.
    SharingBestFit,
    /// Two API servers per GPU, worst-fit placement.
    SharingWorstFit,
}

impl SharingMode {
    /// All modes, in the paper's table order.
    pub const ALL: [SharingMode; 3] = [
        SharingMode::NoSharing,
        SharingMode::SharingBestFit,
        SharingMode::SharingWorstFit,
    ];

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            SharingMode::NoSharing => "no-sharing",
            SharingMode::SharingBestFit => "sharing(2) best-fit",
            SharingMode::SharingWorstFit => "sharing(2) worst-fit",
        }
    }

    fn apply(self, cfg: GpuServerConfig) -> GpuServerConfig {
        match self {
            SharingMode::NoSharing => cfg.sharing(1),
            SharingMode::SharingBestFit => cfg.sharing(2).with_policy(PlacementPolicy::BestFit),
            SharingMode::SharingWorstFit => cfg.sharing(2).with_policy(PlacementPolicy::WorstFit),
        }
    }
}

/// Run one mixed-workload configuration.
pub fn run_mixed(
    suite: &[Arc<TraceSpec>],
    pattern: ArrivalPattern,
    gpus: u32,
    mode: SharingMode,
    migration: bool,
    copies: usize,
    seed: u64,
) -> BackendRunOutput {
    let schedule = Schedule::mixed(seed, suite.len(), copies, pattern);
    let cfg = PlatformConfig::paper_default().with_seed(seed).with_server(
        mode.apply(GpuServerConfig::paper_default().gpus(gpus))
            .with_migration(migration),
    );
    Testbed::run_platform_schedule(&cfg, &as_workloads(suite), &schedule)
}

/// One cell of Tables III/IV.
#[derive(Debug, Clone, Copy)]
pub struct LoadCell {
    /// Provider end-to-end seconds (time to handle all functions).
    pub provider_e2e: f64,
    /// Sum of every function's end-to-end seconds.
    pub fn_e2e_sum: f64,
}

impl LoadCell {
    fn from(out: &BackendRunOutput) -> LoadCell {
        LoadCell {
            provider_e2e: out.provider_e2e().as_secs_f64(),
            fn_e2e_sum: out.function_e2e_sum().as_secs_f64(),
        }
    }
}

/// The heavy-load study behind Table III and Figure 5 (exponential gaps
/// with mean 2 s; note the paper's Table III caption says "low load" but
/// the surrounding text specifies rate 2 — we follow the text).
pub struct HeavyLoadStudy {
    /// (suite label, mode) → run.
    pub runs: Vec<(&'static str, SharingMode, BackendRunOutput)>,
    /// Copies of each workload launched.
    pub copies: usize,
}

/// Run the heavy-load study. `copies` is 10 in the paper.
pub fn heavy_load(copies: usize, seed: u64) -> HeavyLoadStudy {
    let pattern = ArrivalPattern::Exponential {
        mean: Dur::from_secs(2),
    };
    let mut runs = Vec::new();
    for (label, suite) in [("all", paper_suite()), ("smaller", smaller_suite())] {
        for mode in SharingMode::ALL {
            let out = run_mixed(&suite, pattern, 4, mode, false, copies, seed);
            runs.push((label, mode, out));
        }
    }
    HeavyLoadStudy { runs, copies }
}

/// Render Table III.
pub fn table3_text(study: &HeavyLoadStudy) -> String {
    let mut t = TextTable::new(vec![
        "policy",
        "AW end-to-end",
        "AW fn E2E sum",
        "SW end-to-end",
        "SW fn E2E sum",
    ]);
    let base_all = study
        .runs
        .iter()
        .find(|(l, m, _)| *l == "all" && *m == SharingMode::NoSharing)
        .map(|(_, _, o)| LoadCell::from(o))
        .expect("baseline present");
    let base_sw = study
        .runs
        .iter()
        .find(|(l, m, _)| *l == "smaller" && *m == SharingMode::NoSharing)
        .map(|(_, _, o)| LoadCell::from(o))
        .expect("baseline present");
    for mode in SharingMode::ALL {
        let aw = study
            .runs
            .iter()
            .find(|(l, m, _)| *l == "all" && *m == mode)
            .map(|(_, _, o)| LoadCell::from(o))
            .expect("run present");
        let sw = study
            .runs
            .iter()
            .find(|(l, m, _)| *l == "smaller" && *m == mode)
            .map(|(_, _, o)| LoadCell::from(o))
            .expect("run present");
        let cell = |v: f64, base: f64| {
            if mode == SharingMode::NoSharing {
                secs(v)
            } else {
                format!("{} {}", secs(v), crate::report::rel(base, v))
            }
        };
        t.row(vec![
            mode.label().to_string(),
            cell(aw.provider_e2e, base_all.provider_e2e),
            cell(aw.fn_e2e_sum, base_all.fn_e2e_sum),
            cell(sw.provider_e2e, base_sw.provider_e2e),
            cell(sw.fn_e2e_sum, base_sw.fn_e2e_sum),
        ]);
    }
    t.render()
}

/// Render Figure 5 (or 6): per-workload mean queueing and execution delay
/// for each mode, for the given suite label within a study.
pub fn per_workload_delay_text(
    study_runs: &[(&'static str, SharingMode, BackendRunOutput)],
) -> String {
    let mut t = TextTable::new(vec![
        "suite",
        "workload",
        "policy",
        "mean queue",
        "mean exec",
        "mean e2e",
    ]);
    for (label, mode, out) in study_runs {
        let mut names: Vec<String> = out
            .records
            .iter()
            .flatten()
            .map(|r| r.name.clone())
            .collect();
        names.sort();
        names.dedup();
        for name in names {
            let queues = out.queue_delays(&name);
            let execs: Vec<f64> = out
                .records
                .iter()
                .flatten()
                .filter(|r| r.name == name)
                .filter_map(|r| r.exec_time())
                .map(|d| d.as_secs_f64())
                .collect();
            let e2es: Vec<f64> = out.by_name(&name).map(|r| r.e2e().as_secs_f64()).collect();
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            t.row(vec![
                label.to_string(),
                name.clone(),
                mode.label().to_string(),
                secs(mean(&queues)),
                secs(mean(&execs)),
                secs(mean(&e2es)),
            ]);
        }
    }
    t.render()
}

/// The light-load study behind Table IV and Figure 6 (exponential gaps with
/// mean 3 s, 4 vs 3 GPUs).
pub struct LightLoadStudy {
    /// (gpu count, mode) → run.
    pub runs: Vec<(u32, SharingMode, BackendRunOutput)>,
    /// Copies of each workload launched.
    pub copies: usize,
}

/// Run the light-load study.
pub fn light_load(copies: usize, seed: u64) -> LightLoadStudy {
    let pattern = ArrivalPattern::Exponential {
        mean: Dur::from_secs(3),
    };
    let suite = paper_suite();
    let mut runs = Vec::new();
    for gpus in [4u32, 3u32] {
        for mode in SharingMode::ALL {
            let out = run_mixed(&suite, pattern, gpus, mode, false, copies, seed);
            runs.push((gpus, mode, out));
        }
    }
    LightLoadStudy { runs, copies }
}

/// Render Table IV.
pub fn table4_text(study: &LightLoadStudy) -> String {
    let mut t = TextTable::new(vec![
        "policy",
        "4 GPUs end-to-end",
        "4 GPUs fn E2E sum",
        "3 GPUs end-to-end",
        "3 GPUs fn E2E sum",
    ]);
    let base = |gpus: u32| {
        study
            .runs
            .iter()
            .find(|(g, m, _)| *g == gpus && *m == SharingMode::NoSharing)
            .map(|(_, _, o)| LoadCell::from(o))
            .expect("baseline present")
    };
    let (b4, b3) = (base(4), base(3));
    for mode in SharingMode::ALL {
        let get = |gpus: u32| {
            study
                .runs
                .iter()
                .find(|(g, m, _)| *g == gpus && *m == mode)
                .map(|(_, _, o)| LoadCell::from(o))
                .expect("run present")
        };
        let (c4, c3) = (get(4), get(3));
        let cell = |v: f64, base: f64| {
            if mode == SharingMode::NoSharing {
                secs(v)
            } else {
                format!("{} {}", secs(v), crate::report::rel(base, v))
            }
        };
        t.row(vec![
            mode.label().to_string(),
            cell(c4.provider_e2e, b4.provider_e2e),
            cell(c4.fn_e2e_sum, b4.fn_e2e_sum),
            cell(c3.provider_e2e, b3.provider_e2e),
            cell(c3.fn_e2e_sum, b3.fn_e2e_sum),
        ]);
    }
    t.render()
}

/// The burst study behind Figure 7 and the §VIII-D burst paragraph.
pub struct BurstStudy {
    /// No-sharing run.
    pub no_sharing: BackendRunOutput,
    /// Sharing (two per GPU), best-fit.
    pub sharing: BackendRunOutput,
    /// Utilization sample period (the paper samples every 200 ms).
    pub sample: Dur,
}

impl BurstStudy {
    /// Mean utilization during the burst for a run.
    pub fn mean_util(out: &BackendRunOutput) -> f64 {
        out.mean_utilization(out.first_launch, out.all_done)
    }

    /// Moving-average (window 5) utilization series, averaged across GPUs.
    pub fn util_series(&self, out: &BackendRunOutput) -> Vec<f64> {
        let per_gpu: Vec<Vec<f64>> = out
            .gpu_timelines
            .iter()
            .map(|tl| tl.utilization_samples(out.first_launch, out.all_done, self.sample))
            .collect();
        let n = per_gpu.iter().map(Vec::len).min().unwrap_or(0);
        let avg: Vec<f64> = (0..n)
            .map(|i| per_gpu.iter().map(|s| s[i]).sum::<f64>() / per_gpu.len() as f64)
            .collect();
        moving_average(&avg, 5)
    }
}

/// Run the burst study: `bursts` bursts of all six workloads, 2 s apart.
pub fn burst(bursts: usize, seed: u64) -> BurstStudy {
    let suite = paper_suite();
    let pattern = ArrivalPattern::Burst {
        group_size: suite.len(),
        gap: Dur::from_secs(2),
    };
    let no_sharing = run_mixed(
        &suite,
        pattern,
        4,
        SharingMode::NoSharing,
        false,
        bursts,
        seed,
    );
    let sharing = run_mixed(
        &suite,
        pattern,
        4,
        SharingMode::SharingBestFit,
        false,
        bursts,
        seed,
    );
    BurstStudy {
        no_sharing,
        sharing,
        sample: Dur::from_millis(200),
    }
}

/// Render Figure 7 (utilization series + summary lines).
pub fn fig7_text(study: &BurstStudy) -> String {
    let mut out = String::new();
    let mu_ns = BurstStudy::mean_util(&study.no_sharing);
    let mu_sh = BurstStudy::mean_util(&study.sharing);
    out.push_str(&format!(
        "burst completion: no-sharing {} | sharing(2) best-fit {} ({})\n",
        secs(study.no_sharing.provider_e2e().as_secs_f64()),
        secs(study.sharing.provider_e2e().as_secs_f64()),
        crate::report::rel(
            study.no_sharing.provider_e2e().as_secs_f64(),
            study.sharing.provider_e2e().as_secs_f64()
        ),
    ));
    out.push_str(&format!(
        "mean GPU utilization: no-sharing {:.1}% | sharing {:.1}% (+{:.0}%)\n\n",
        mu_ns * 100.0,
        mu_sh * 100.0,
        (mu_sh / mu_ns.max(1e-9) - 1.0) * 100.0
    ));
    let a = study.util_series(&study.no_sharing);
    let b = study.util_series(&study.sharing);
    out.push_str("t(s)  no-sharing  sharing\n");
    let step = (a.len().max(b.len()) / 60).max(1); // ≤60 printed points
    for i in (0..a.len().max(b.len())).step_by(step) {
        let t = i as f64 * study.sample.as_secs_f64();
        let av = a.get(i).copied().unwrap_or(0.0) * 100.0;
        let bv = b.get(i).copied().unwrap_or(0.0) * 100.0;
        out.push_str(&format!("{t:5.1}  {av:9.1}%  {bv:7.1}%\n"));
    }
    out
}

/// FCFS vs smallest-first queue-discipline study — the paper's stated
/// future work ("policies like shortest-function-first, which could improve
/// throughput at some loss of fairness", §VIII-D).
pub struct QueuePolicyStudy {
    /// (policy label, run).
    pub runs: Vec<(&'static str, BackendRunOutput)>,
}

/// Run the heavy-load mix under both queue disciplines.
pub fn queue_policy(copies: usize, seed: u64) -> QueuePolicyStudy {
    let suite = paper_suite();
    let pattern = ArrivalPattern::Exponential {
        mean: Dur::from_secs(2),
    };
    let mut runs = Vec::new();
    for (label, q) in [
        ("fcfs", QueuePolicy::Fcfs),
        ("smallest-first", QueuePolicy::SmallestFirst),
    ] {
        let schedule = Schedule::mixed(seed, suite.len(), copies, pattern);
        let cfg = PlatformConfig::paper_default().with_seed(seed).with_server(
            GpuServerConfig::paper_default()
                .gpus(4)
                .sharing(2)
                .with_queue_policy(q),
        );
        runs.push((
            label,
            Testbed::run_platform_schedule(&cfg, &as_workloads(&suite), &schedule),
        ));
    }
    QueuePolicyStudy { runs }
}

/// Render the queue-policy study: throughput plus a fairness view (queue
/// delay of the *largest* workloads, which smallest-first may starve).
pub fn queue_policy_text(study: &QueuePolicyStudy) -> String {
    let mut t = TextTable::new(vec![
        "policy",
        "provider e2e",
        "fn E2E sum",
        "mean queue (all)",
        "mean queue (large fns)",
        "max queue (large fns)",
    ]);
    for (label, out) in &study.runs {
        let all: Vec<f64> = out
            .records
            .iter()
            .flatten()
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .collect();
        let large: Vec<f64> = out
            .records
            .iter()
            .flatten()
            .filter(|r| r.name == "covidctnet" || r.name == "face_detection")
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        t.row(vec![
            label.to_string(),
            secs(out.provider_e2e().as_secs_f64()),
            secs(out.function_e2e_sum().as_secs_f64()),
            secs(mean(&all)),
            secs(mean(&large)),
            secs(large.iter().cloned().fold(0.0, f64::max)),
        ]);
    }
    t.render()
}

/// One Figure 8 scenario run.
pub struct Fig8Run {
    /// Scenario label.
    pub label: &'static str,
    /// The run.
    pub out: BackendRunOutput,
}

/// The §VIII-E migration case study: two NLP + two image-classification
/// functions on two GPUs under four configurations.
pub fn fig8(seed: u64) -> Vec<Fig8Run> {
    let suite: Vec<Arc<TraceSpec>> = vec![Arc::new(nlp()), Arc::new(image_classification())];
    // All four launched together; the image classifications download longer
    // and reach the GPUs second, as in the paper.
    let schedule = Schedule {
        entries: vec![
            (SimTime::ZERO, 0),
            (SimTime::ZERO, 0),
            (SimTime::ZERO, 1),
            (SimTime::ZERO, 1),
        ],
    };
    let mk = |mode: SharingMode, migration: bool| {
        PlatformConfig::paper_default().with_seed(seed).with_server(
            mode.apply(GpuServerConfig::paper_default().gpus(2))
                .with_migration(migration),
        )
    };
    let cases = [
        ("no-sharing", SharingMode::NoSharing, false),
        ("worst-fit", SharingMode::SharingWorstFit, false),
        ("best-fit", SharingMode::SharingBestFit, false),
        ("best-fit + migration", SharingMode::SharingBestFit, true),
    ];
    cases
        .into_iter()
        .map(|(label, mode, mig)| Fig8Run {
            label,
            out: Testbed::run_platform_schedule(&mk(mode, mig), &as_workloads(&suite), &schedule),
        })
        .collect()
}

/// Render Figure 8: end-to-end per scenario plus per-GPU utilization.
pub fn fig8_text(runs: &[Fig8Run]) -> String {
    let mut out = String::new();
    let base = runs
        .iter()
        .find(|r| r.label == "no-sharing")
        .map(|r| r.out.provider_e2e().as_secs_f64())
        .unwrap_or(0.0);
    for r in runs {
        let e2e = r.out.provider_e2e().as_secs_f64();
        out.push_str(&format!(
            "{:<22} e2e {} {}  migrations: {}\n",
            r.label,
            secs(e2e),
            crate::report::rel(base, e2e),
            r.out.migrations.iter().map(Vec::len).sum::<usize>()
        ));
    }
    out.push('\n');
    for r in runs {
        out.push_str(&format!("utilization timeline — {}\n", r.label));
        for (g, tl) in r.out.gpu_timelines.iter().enumerate() {
            let series =
                tl.utilization_samples(r.out.first_launch, r.out.all_done, Dur::from_secs(2));
            let line: String = series
                .iter()
                .map(|u| {
                    // 0-9 utilization glyphs, a compact textual Figure 8
                    char::from_digit((u * 9.99) as u32, 10).unwrap_or('9')
                })
                .collect();
            out.push_str(&format!("  gpu{g}: {line}\n"));
        }
    }
    out
}
