//! Single-workload experiments: Table II, Figure 3, Figure 4, Table V and
//! the forwarded-API-count statistics (§V-C).

use std::rc::Rc;
use std::sync::Arc;

use dgsf::cuda::MigrationReport;
use dgsf::prelude::*;
use dgsf::server::GpuServer;
use dgsf::serverless::{phase, Backend, ObjectStore};
use dgsf::sim::{Sim, SimCell};
use dgsf::workloads::{paper_suite, SyntheticMigration, TraceSpec};
use dgsf::{gpu, remoting};

use crate::report::{secs, secs2, TextTable};

/// One Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: String,
    /// Peak device memory of the function (allocations + runtime/library
    /// footprints), bytes.
    pub peak_mem: u64,
    /// Native end-to-end seconds.
    pub native: f64,
    /// DGSF (OpenFaaS deployment) end-to-end seconds.
    pub dgsf: f64,
    /// DGSF on the AWS Lambda profile, seconds.
    pub lambda: f64,
    /// CPU baseline seconds.
    pub cpu: f64,
    /// Approximate migration data-movement time, seconds.
    pub migration: f64,
}

/// Table II: per-workload runtimes under every execution mode.
pub fn table2() -> Vec<Table2Row> {
    let suite = paper_suite();
    let cfg = PlatformConfig::paper_default();
    let mut lambda_cfg = cfg.clone();
    lambda_cfg.server = lambda_cfg.server.with_net(NetProfile::lambda());
    suite
        .iter()
        .map(|w| {
            let dynw: Arc<dyn Workload> = Arc::clone(w) as Arc<dyn Workload>;
            let native = Testbed::run_native_once(1, &cfg.server.costs, dynw.clone());
            let dgsf_run = Testbed::run_dgsf_once(&cfg, dynw.clone());
            let lambda = Testbed::run_dgsf_once(&lambda_cfg, dynw.clone());
            let cpu = Testbed::run_cpu_once(1, dynw.clone());
            // Trigger once the function is mid-processing.
            let mid = Dur::from_secs_f64(w.load.work + 1.0)
                + Dur::from_secs_f64(w.host_secs / 2.0 + w.total_gpu_work() / 2.0);
            let mig = migration_probe(w, 11, mid, |r| r.data_copy);
            let peak = w.alloc_split.iter().sum::<u64>()
                + cfg.server.costs.cuda_ctx_mem
                + if w.uses_dnn {
                    cfg.server.costs.cudnn_mem + cfg.server.costs.cublas_mem
                } else {
                    0
                };
            Table2Row {
                name: w.name.clone(),
                peak_mem: peak,
                native: native.e2e().as_secs_f64(),
                dgsf: dgsf_run.e2e().as_secs_f64(),
                lambda: lambda.e2e().as_secs_f64(),
                cpu: cpu.e2e().as_secs_f64(),
                migration: mig,
            }
        })
        .collect()
}

/// Run `w` alone on a two-GPU server under `seed`, force its API server
/// onto GPU 1 `after_download` past the input download, and report the
/// migration's `part` in seconds (Table II's "Aprox. Migration Time" reads
/// the data copy). 0 when the function finished before the boundary hit.
pub fn migration_probe(
    w: &Arc<TraceSpec>,
    seed: u64,
    after_download: Dur,
    part: fn(&MigrationReport) -> Dur,
) -> f64 {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o = Rc::clone(&out);
    let w = Arc::clone(w);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h2, GpuServerConfig::paper_default().gpus(2));
        *o.lock() = Some(Arc::clone(&server));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let backend = Backend::new(&h2, vec![Arc::clone(&server)], FleetPolicy::RoundRobin);
        let w2 = Arc::clone(&w);
        let store2 = Arc::clone(&store);
        h2.spawn("fn", move |p| {
            backend.invoke(p, &store2, w2.as_ref(), OptConfig::full());
        });
        p.sleep(store.download_time(w.download_bytes()) + after_download);
        if let Some(rec) = server.records().first() {
            if let Some(srv) = rec.server {
                server.force_migration(srv, gpu::GpuId(1));
            }
        }
    });
    sim.run();
    let server = out.lock().take().expect("the root provisioned the server");
    let migrations = server.migrations();
    migrations
        .first()
        .map_or(0.0, |m| part(&m.report).as_secs_f64())
}

/// Render Table II in the paper's layout.
pub fn table2_text(rows: &[Table2Row]) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "peak GPU mem",
        "native",
        "DGSF",
        "AWS Lambda",
        "CPU",
        "approx. migration",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            format!("{} MB", r.peak_mem / gpu::MB),
            secs(r.native),
            format!("{} {}", secs(r.dgsf), crate::report::rel(r.native, r.dgsf)),
            format!(
                "{} {}",
                secs(r.lambda),
                crate::report::rel(r.native, r.lambda)
            ),
            format!("{} (-{:.1}x)", secs(r.cpu), r.cpu / r.native),
            format!("{:.0} ms", r.migration * 1e3),
        ]);
    }
    t.render()
}

/// One bar of Figure 3: a workload under one mode, broken into phases.
#[derive(Debug, Clone)]
pub struct PhaseBar {
    /// Workload name.
    pub name: String,
    /// Mode label ("native" / "dgsf-noopt" / "dgsf").
    pub mode: String,
    /// CUDA initialization seconds (zero for DGSF with pooling).
    pub init: f64,
    /// Download seconds.
    pub download: f64,
    /// Model load seconds.
    pub model_load: f64,
    /// Processing seconds.
    pub processing: f64,
}

impl PhaseBar {
    fn from_result(name: &str, mode: &str, r: &dgsf::serverless::FunctionResult) -> PhaseBar {
        PhaseBar {
            name: name.to_string(),
            mode: mode.to_string(),
            init: r.phases.get(phase::INIT).as_secs_f64(),
            download: r.phases.get(phase::DOWNLOAD).as_secs_f64(),
            model_load: r.phases.get(phase::MODEL_LOAD).as_secs_f64(),
            processing: r.phases.get(phase::PROCESSING).as_secs_f64(),
        }
    }

    /// Total of the four phases.
    pub fn total(&self) -> f64 {
        self.init + self.download + self.model_load + self.processing
    }
}

/// Figure 3: phase breakdown for native / DGSF-without-optimizations /
/// DGSF, per workload.
pub fn fig3() -> Vec<PhaseBar> {
    let suite = paper_suite();
    let cfg = PlatformConfig::paper_default();
    let mut noopt = cfg.clone();
    noopt.opts = OptConfig::none();
    let mut out = Vec::new();
    for w in &suite {
        let dynw: Arc<dyn Workload> = Arc::clone(w) as Arc<dyn Workload>;
        let native = Testbed::run_native_once(1, &cfg.server.costs, dynw.clone());
        out.push(PhaseBar::from_result(&w.name, "native", &native));
        let un = Testbed::run_dgsf_once(&noopt, dynw.clone());
        out.push(PhaseBar::from_result(&w.name, "dgsf-noopt", &un));
        let opt = Testbed::run_dgsf_once(&cfg, dynw.clone());
        out.push(PhaseBar::from_result(&w.name, "dgsf", &opt));
    }
    out
}

/// Render Figure 3 as a table of stacked phases.
pub fn fig3_text(bars: &[PhaseBar]) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "mode",
        "init",
        "download",
        "model load",
        "processing",
        "total",
    ]);
    for b in bars {
        t.row(vec![
            b.name.clone(),
            b.mode.clone(),
            secs2(b.init),
            secs2(b.download),
            secs2(b.model_load),
            secs2(b.processing),
            secs(b.total()),
        ]);
    }
    t.render()
}

/// One Figure 4 measurement: a workload at one optimization level,
/// download excluded ("we remove ... download ... since these are not
/// optimized by DGSF").
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Workload name.
    pub name: String,
    /// Level label.
    pub level: String,
    /// init + model load + processing, seconds.
    pub processing_total: f64,
}

/// The ablation ladder of Figure 4.
pub fn ablation_levels() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("no-opts", OptConfig::none()),
        ("+handle-pools", OptConfig::handle_pools()),
        ("+descriptor-pools", OptConfig::descriptor_pools()),
        ("+batching/elision", OptConfig::full()),
    ]
}

/// Figure 4: incremental-optimization ablation vs native, per workload.
pub fn fig4() -> Vec<AblationPoint> {
    let suite = paper_suite();
    let cfg = PlatformConfig::paper_default();
    let mut out = Vec::new();
    for w in &suite {
        let dynw: Arc<dyn Workload> = Arc::clone(w) as Arc<dyn Workload>;
        let native = Testbed::run_native_once(1, &cfg.server.costs, dynw.clone());
        out.push(AblationPoint {
            name: w.name.clone(),
            level: "native".into(),
            processing_total: native.e2e().as_secs_f64()
                - native.phases.get(phase::DOWNLOAD).as_secs_f64(),
        });
        for (label, opts) in ablation_levels() {
            let mut c = cfg.clone();
            c.opts = opts;
            let r = Testbed::run_dgsf_once(&c, dynw.clone());
            out.push(AblationPoint {
                name: w.name.clone(),
                level: label.into(),
                processing_total: r.e2e().as_secs_f64()
                    - r.phases.get(phase::DOWNLOAD).as_secs_f64(),
            });
        }
    }
    out
}

/// Render Figure 4.
pub fn fig4_text(points: &[AblationPoint]) -> String {
    let mut t = TextTable::new(vec!["workload", "level", "time excl. download"]);
    for p in points {
        t.row(vec![
            p.name.clone(),
            p.level.clone(),
            secs(p.processing_total),
        ]);
    }
    t.render()
}

/// One Table V row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Array size in MB.
    pub mb: u64,
    /// Native end-to-end seconds.
    pub native: f64,
    /// DGSF end-to-end seconds (no migration).
    pub dgsf: f64,
    /// DGSF end-to-end with a forced migration between the two kernels.
    pub dgsf_mig: f64,
    /// Migration time (quiesce ∥ copy + remap), seconds.
    pub migration: f64,
}

/// Table V: the synthetic single-array migration microbenchmark.
pub fn table5() -> Vec<Table5Row> {
    SyntheticMigration::TABLE_V_SIZES_MB
        .iter()
        .map(|&mb| {
            let w = Arc::new(SyntheticMigration::mb(mb));
            let cfg = PlatformConfig::paper_default();
            let dynw: Arc<dyn Workload> = w.clone() as Arc<dyn Workload>;
            let native = Testbed::run_native_once(1, &cfg.server.costs, dynw.clone());
            let plain = Testbed::run_dgsf_once(&cfg, dynw.clone());
            let (e2e_mig, mig) = synthetic_with_forced_migration(&w);
            Table5Row {
                mb,
                native: native.e2e().as_secs_f64(),
                dgsf: plain.e2e().as_secs_f64(),
                dgsf_mig: e2e_mig,
                migration: mig,
            }
        })
        .collect()
}

/// Run the synthetic workload over DGSF and force a migration right before
/// the second kernel. Returns (function e2e seconds, migration seconds).
fn synthetic_with_forced_migration(w: &Arc<SyntheticMigration>) -> (f64, f64) {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, (0.0f64, 0.0f64)));
    let o = Rc::clone(&out);
    let w = Arc::clone(w);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h2, GpuServerConfig::paper_default().gpus(2));
        let (client, _inv) = server.request_gpu(p, "synthetic", w.required_gpu_mem(), w.registry());
        let mut api = remoting::RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).expect("init");
        api.register_module(p, w.registry()).expect("module");
        let t0 = p.now();
        let server2 = Arc::clone(&server);
        w.run_with_hook(p, &mut api, move |_p| {
            // "we forcefully migrate this application right before the
            // second kernel is called"
            server2.force_migration(0, gpu::GpuId(1));
        })
        .expect("migration bench runs fault-free");
        let e2e = p.now().since(t0).as_secs_f64();
        api.finish(p).expect("teardown");
        let mig = server
            .migrations()
            .first()
            .map(|m| m.report.total.as_secs_f64())
            .unwrap_or(0.0);
        *o.lock() = (e2e, mig);
    });
    sim.run();
    let v = *out.lock();
    v
}

/// Render Table V.
pub fn table5_text(rows: &[Table5Row]) -> String {
    let mut t = TextTable::new(vec![
        "array",
        "native e2e",
        "DGSF e2e",
        "DGSF+mig e2e",
        "migration",
    ]);
    for r in rows {
        t.row(vec![
            format!("{} MB", r.mb),
            secs2(r.native),
            secs2(r.dgsf),
            secs2(r.dgsf_mig),
            secs2(r.migration),
        ]);
    }
    t.render()
}

/// Live migration vs restart-from-scratch (the Gandiva-style
/// checkpoint/restore alternative §IX dismisses for serverless): for each
/// workload, the measured migration cost against the cost of re-running,
/// and the break-even progress point below which restarting would win.
#[derive(Debug, Clone)]
pub struct RestartRow {
    /// Workload name.
    pub name: String,
    /// Uncontended DGSF end-to-end seconds.
    pub e2e: f64,
    /// Measured forced-migration total seconds (quiesce ∥ copy + lib).
    pub migration: f64,
    /// Progress fraction below which a restart is cheaper than migrating.
    pub break_even: f64,
}

/// Compare live migration against restart-from-scratch.
pub fn migration_vs_restart() -> Vec<RestartRow> {
    let cfg = PlatformConfig::paper_default();
    paper_suite()
        .iter()
        .map(|w| {
            let dynw: Arc<dyn Workload> = Arc::clone(w) as Arc<dyn Workload>;
            let e2e = Testbed::run_dgsf_once(&cfg, dynw).e2e().as_secs_f64();
            // total migration cost at mid-run: copy + stop + lib recreate.
            let mid = Dur::from_secs_f64(w.load.work + 1.0 + w.total_gpu_work() / 2.0);
            let migration = migration_probe(w, 13, mid, |r| r.total);
            RestartRow {
                name: w.name.clone(),
                e2e,
                migration: migration.max(0.001),
                // Restarting discards `progress × e2e` of work; migrating
                // costs `migration`. Break-even: progress = migration / e2e.
                break_even: (migration / e2e).min(1.0),
            }
        })
        .collect()
}

/// Render the migration-vs-restart analysis.
pub fn restart_text(rows: &[RestartRow]) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "DGSF e2e",
        "migration cost",
        "restart wins below",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            secs(r.e2e),
            secs2(r.migration),
            format!("{:.1}% progress", r.break_even * 100.0),
        ]);
    }
    t.render()
}

/// Forwarded-API statistics per workload (§V-C: DGSF reduces forwarded
/// CUDA APIs by up to 48 % for ONNX Runtime and up to 96 % for TensorFlow).
#[derive(Debug, Clone)]
pub struct ApiCountRow {
    /// Workload name.
    pub name: String,
    /// Calls the application issued.
    pub issued: u64,
    /// Calls forwarded individually without optimizations.
    pub remoted_noopt: u64,
    /// Calls forwarded individually with full optimizations.
    pub remoted_full: u64,
    /// `1 − full/noopt` — the paper's reduction metric.
    pub reduction: f64,
}

/// Per-workload forwarded-call reduction.
pub fn apicounts() -> Vec<ApiCountRow> {
    let suite = paper_suite();
    let cfg = PlatformConfig::paper_default();
    let mut noopt_cfg = cfg.clone();
    noopt_cfg.opts = OptConfig::none();
    suite
        .iter()
        .map(|w| {
            let dynw: Arc<dyn Workload> = Arc::clone(w) as Arc<dyn Workload>;
            let noopt = Testbed::run_dgsf_once(&noopt_cfg, dynw.clone());
            let full = Testbed::run_dgsf_once(&cfg, dynw.clone());
            let reduction = if noopt.api_stats.remoted_calls > 0 {
                1.0 - full.api_stats.remoted_calls as f64 / noopt.api_stats.remoted_calls as f64
            } else {
                0.0
            };
            ApiCountRow {
                name: w.name.clone(),
                issued: full.api_stats.issued_calls,
                remoted_noopt: noopt.api_stats.remoted_calls,
                remoted_full: full.api_stats.remoted_calls,
                reduction,
            }
        })
        .collect()
}

/// Render the API count table.
pub fn apicounts_text(rows: &[ApiCountRow]) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "issued",
        "forwarded (no-opt)",
        "forwarded (full)",
        "reduction",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.issued.to_string(),
            r.remoted_noopt.to_string(),
            r.remoted_full.to_string(),
            format!("{:.0}%", r.reduction * 100.0),
        ]);
    }
    t.render()
}
