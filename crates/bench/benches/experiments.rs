//! Criterion benches over the paper's experiments: each bench regenerates
//! (a scaled-down version of) one table/figure per iteration, giving a
//! stable wall-clock figure for the full simulation pipeline. The printed
//! tables themselves come from `dgsf-expt`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::workloads;
use dgsf_bench::{mixed, single};

fn bench_table2_single_workload(c: &mut Criterion) {
    // One representative Table II cell: face identification over DGSF.
    let cfg = PlatformConfig::paper_default();
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("faceid_dgsf_once", |b| {
        b.iter(|| {
            let w: Arc<dyn Workload> = Arc::new(workloads::face_identification());
            Testbed::run_dgsf_once(&cfg, w)
        })
    });
    g.bench_function("faceid_native_once", |b| {
        b.iter(|| {
            let w: Arc<dyn Workload> = Arc::new(workloads::face_identification());
            Testbed::run_native_once(1, &cfg.server.costs, w)
        })
    });
    g.finish();
}

fn bench_fig4_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.bench_function("faceid_all_levels", |b| {
        b.iter(|| {
            let cfg = PlatformConfig::paper_default();
            for (_label, opts) in single::ablation_levels() {
                let mut cc = cfg.clone();
                cc.opts = opts;
                let w: Arc<dyn Workload> = Arc::new(workloads::face_identification());
                let _ = Testbed::run_dgsf_once(&cc, w);
            }
        })
    });
    g.finish();
}

fn bench_table3_heavy_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3");
    g.sample_size(10);
    g.bench_function("heavy_load_quick", |b| b.iter(|| mixed::heavy_load(1, 42)));
    g.finish();
}

fn bench_table4_light_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("light_load_quick", |b| b.iter(|| mixed::light_load(1, 42)));
    g.finish();
}

fn bench_fig7_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("burst_quick", |b| b.iter(|| mixed::burst(2, 42)));
    g.finish();
}

fn bench_fig8_migration_case(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("four_scenarios", |b| b.iter(|| mixed::fig8(42)));
    g.finish();
}

fn bench_table5_synthetic(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5");
    g.sample_size(10);
    g.bench_function("smallest_size", |b| {
        b.iter(|| {
            let w: Arc<dyn Workload> = Arc::new(workloads::SyntheticMigration::mb(323));
            let cfg = PlatformConfig::paper_default();
            Testbed::run_dgsf_once(&cfg, w)
        })
    });
    g.finish();
}

criterion_group!(
    experiments,
    bench_table2_single_workload,
    bench_fig4_ablation,
    bench_table3_heavy_load,
    bench_table4_light_load,
    bench_fig7_burst,
    bench_fig8_migration_case,
    bench_table5_synthetic,
);
criterion_main!(experiments);
