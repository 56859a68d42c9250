//! `dgsf-expt` — regenerate the paper's tables and figures.
//!
//! Usage: `dgsf-expt <table2|fig3|fig4|table3|fig5|table4|fig6|fig7|fig8|table5|apicounts|restart|sjf|all|trace|sweep|fleet|pipeline|scale|obs|attribute> [--quick] [--out DIR]`
//!
//! An unknown subcommand prints this usage to stderr and exits with
//! status 2.
//!
//! `--quick` shrinks the mixed-workload experiments (2 copies instead of
//! 10) for fast smoke runs.
//!
//! `dgsf-expt trace [--quick] [--out DIR]` runs the heavy-load mix with
//! telemetry recording on and writes `metrics.json` plus a Chrome
//! trace-event `trace.json` (browsable in `chrome://tracing` / Perfetto)
//! to DIR (default `target/trace`). Deterministic: same seed ⇒
//! byte-identical files.
//!
//! `dgsf-expt sweep [--quick] [--out DIR]` drives the Poisson load sweep
//! against the autoscaled, admission-controlled fleet and writes
//! `BENCH_sweep.json` to DIR (default `target/sweep`). Deterministic:
//! same seed ⇒ byte-identical file.
//!
//! `dgsf-expt fleet [--quick] [--out DIR]` drives the two-tenant mix
//! across a 4-server fleet for every routing × shedding policy
//! combination and writes `BENCH_fleet.json` to DIR (default
//! `target/fleet`). Deterministic: same seed ⇒ byte-identical file.
//!
//! `dgsf-expt pipeline [--quick] [--out DIR]` runs the three-stage
//! function-DAG comparison — host-bounce vs GPU-resident inter-stage
//! handoff on the same launch schedule — and writes `BENCH_pipeline.json`
//! to DIR (default `target/pipeline`). Deterministic: same seed ⇒
//! byte-identical file.
//!
//! `dgsf-expt scale [--quick] [--out DIR]` drives the heavy-tailed
//! open-loop trace (log-normal service, Zipf tenant mix) through the
//! remoting stack — 1.2M invocations, or 50k with `--quick` — and
//! writes `BENCH_scale.json` to DIR (default `target/scale`).
//! Deterministic: same seed ⇒ byte-identical file; wall-clock
//! events/sec is printed but never serialized.
//!
//! `dgsf-expt obs [--quick] [--out DIR]` replays the sweep's workload on
//! a 10× diurnal ramp twice — reactive vs predictive autoscaling at an
//! equal hardware ceiling — with the online observability plane attached,
//! and writes `BENCH_obs.json` (shed counts, pool-grow latency, alert
//! counts per mode) plus the predictive run's `dashboard.json` (windows,
//! burn-rate alert log, health timeline) to DIR (default `target/obs`).
//! Deterministic: same seed ⇒ byte-identical files.
//!
//! `dgsf-expt attribute [--quick] [--out DIR]` runs the overloaded
//! two-tenant mix with causal tracing on, decomposes every request's
//! end-to-end latency into its exact critical-path segments, and writes
//! `BENCH_attrib.json` (per-tenant/workload contribution tables +
//! SLO burn) plus `attrib_traces.json` (slowest-k exemplar traces) to
//! DIR (default `target/attrib`). Deterministic: same seed ⇒
//! byte-identical files.

use std::fs;
use std::path::{Path, PathBuf};

use dgsf_bench::{attrib, fleet, mixed, obs, pipeline, scale, single, sweep, trace};

/// Subcommands that print a table or figure; `all` prints every one.
const PRINTED: [&str; 14] = [
    "table2",
    "fig3",
    "fig4",
    "table3",
    "fig5",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "table5",
    "apicounts",
    "restart",
    "sjf",
    "all",
];

/// Where each exporting subcommand writes when `--out` is not given.
const DEFAULT_OUT: [(&str, &str); 7] = [
    ("trace", "target/trace"),
    ("sweep", "target/sweep"),
    ("fleet", "target/fleet"),
    ("pipeline", "target/pipeline"),
    ("scale", "target/scale"),
    ("obs", "target/obs"),
    ("attribute", "target/attrib"),
];

/// Write each `(file name, contents)` artifact into `dir` and print its
/// path; exit with status 1 on the first I/O error.
fn export(dir: &Path, what: &str, files: &[(&str, String)]) {
    let written = fs::create_dir_all(dir).and_then(|()| {
        files.iter().try_for_each(|(name, contents)| {
            let path = dir.join(name);
            fs::write(&path, contents)?;
            println!("wrote {}", path.display());
            Ok(())
        })
    });
    if let Err(e) = written {
        eprintln!("{what} export failed: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let copies = if quick { 2 } else { 10 };
    let bursts = if quick { 3 } else { 10 };
    let mut out_dir: Option<PathBuf> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(v) => out_dir = Some(v.into()),
                None => {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if !a.starts_with('-') {
            positional.push(a.clone());
        }
    }
    let what = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let cmds: Vec<&str> = PRINTED
        .iter()
        .chain(DEFAULT_OUT.iter().map(|(cmd, _)| cmd))
        .copied()
        .collect();
    if !cmds.contains(&what.as_str()) {
        eprintln!("unknown subcommand {what:?}");
        eprintln!(
            "usage: dgsf-expt <{}> [--quick] [--out DIR]",
            cmds.join("|")
        );
        std::process::exit(2);
    }
    let seed = 42;
    let dir = out_dir.unwrap_or_else(|| {
        let default = DEFAULT_OUT.iter().find(|(cmd, _)| *cmd == what);
        PathBuf::from(default.map_or("target/trace", |(_, d)| *d))
    });

    if what == "sweep" {
        let s = sweep::sweep(seed, quick);
        println!("== Load sweep: autoscaled fleet with admission control ==");
        print!("{}", sweep::sweep_text(&s));
        let json = sweep::sweep_json(&s);
        export(&dir, "sweep", &[("BENCH_sweep.json", json)]);
        return;
    }

    if what == "fleet" {
        let f = fleet::fleet(seed, quick);
        println!("== Fleet sweep: cluster balancing × per-tenant fair shedding ==");
        print!("{}", fleet::fleet_text(&f));
        let json = fleet::fleet_json(&f);
        export(&dir, "fleet", &[("BENCH_fleet.json", json)]);
        return;
    }

    if what == "pipeline" {
        let o = pipeline::pipeline(seed, quick);
        println!("== DAG pipeline: host-bounce vs GPU-resident handoff ==");
        print!("{}", pipeline::pipeline_text(&o));
        let json = pipeline::pipeline_json(&o);
        export(&dir, "pipeline", &[("BENCH_pipeline.json", json)]);
        return;
    }

    if what == "scale" {
        let cfg = if quick {
            scale::ScaleConfig::quick(seed)
        } else {
            scale::ScaleConfig::full(seed)
        };
        println!(
            "== Scale: {} heavy-tailed open-loop invocations through the remoting stack ==",
            cfg.invocations
        );
        let (s, wall_secs) = scale::scale(&cfg);
        print!("{}", scale::scale_text(&s, wall_secs));
        let json = scale::scale_json(&s);
        export(&dir, "scale", &[("BENCH_scale.json", json)]);
        return;
    }

    if what == "obs" {
        let o = obs::obs(seed, quick);
        println!("== Observability: predictive vs reactive autoscaling on a 10x ramp ==");
        print!("{}", obs::obs_text(&o));
        let files = [
            ("BENCH_obs.json", obs::obs_json(&o)),
            ("dashboard.json", o.dashboard),
        ];
        export(&dir, "obs", &files);
        return;
    }

    if what == "attribute" {
        let a = attrib::attrib(seed, quick);
        println!("== Tail-latency attribution: critical-path decomposition ==");
        print!("{}", attrib::attrib_text(&a));
        let files = [
            ("BENCH_attrib.json", attrib::attrib_json(&a)),
            ("attrib_traces.json", attrib::traces_json(&a)),
        ];
        export(&dir, "attribution", &files);
        return;
    }

    if what == "trace" {
        let t = trace::trace(copies, seed);
        let files = [
            ("metrics.json", t.metrics_json),
            ("trace.json", t.chrome_trace_json),
        ];
        export(&dir, "trace", &files);
        println!("(open trace.json in chrome://tracing or ui.perfetto.dev)");
        return;
    }

    let run = |name: &str| what == name || what == "all";

    if run("table2") {
        println!("== Table II: workload runtimes across execution modes ==");
        println!("{}", single::table2_text(&single::table2()));
    }
    if run("fig3") {
        println!("== Figure 3: phase breakdown (native / DGSF-noopt / DGSF) ==");
        println!("{}", single::fig3_text(&single::fig3()));
    }
    if run("fig4") {
        println!("== Figure 4: optimization ablation (download excluded) ==");
        println!("{}", single::fig4_text(&single::fig4()));
    }
    if run("table3") || run("fig5") {
        let study = mixed::heavy_load(copies, seed);
        if run("table3") {
            println!("== Table III: heavy load (exp gaps, mean 2 s), 4 GPUs ==");
            println!("{}", mixed::table3_text(&study));
        }
        if run("fig5") {
            println!("== Figure 5: per-workload delays under heavy load ==");
            println!("{}", mixed::per_workload_delay_text(&study.runs));
        }
    }
    if run("table4") || run("fig6") {
        let study = mixed::light_load(copies, seed);
        if run("table4") {
            println!("== Table IV: light load (exp gaps, mean 3 s), 4 vs 3 GPUs ==");
            println!("{}", mixed::table4_text(&study));
        }
        if run("fig6") {
            println!("== Figure 6: per-workload delays under light load ==");
            let runs: Vec<(&'static str, mixed::SharingMode, dgsf::BackendRunOutput)> = study
                .runs
                .into_iter()
                .map(|(g, m, o)| (if g == 4 { "4-gpus" } else { "3-gpus" }, m, o))
                .collect();
            println!("{}", mixed::per_workload_delay_text(&runs));
        }
    }
    if run("fig7") {
        println!("== Figure 7: GPU utilization during bursts ==");
        println!("{}", mixed::fig7_text(&mixed::burst(bursts, seed)));
    }
    if run("fig8") {
        println!("== Figure 8: migration case study (2 NLP + 2 image-classification, 2 GPUs) ==");
        println!("{}", mixed::fig8_text(&mixed::fig8(seed)));
    }
    if run("table5") {
        println!("== Table V: synthetic migration microbenchmark ==");
        println!("{}", single::table5_text(&single::table5()));
    }
    if run("apicounts") {
        println!("== §V-C: forwarded CUDA API reduction ==");
        println!("{}", single::apicounts_text(&single::apicounts()));
    }
    if run("restart") {
        println!("== Extension: live migration vs restart-from-scratch break-even ==");
        println!("{}", single::restart_text(&single::migration_vs_restart()));
    }
    if run("sjf") {
        println!("== Extension (§VIII-D future work): FCFS vs smallest-first queueing ==");
        println!(
            "{}",
            mixed::queue_policy_text(&mixed::queue_policy(copies, seed))
        );
    }
}
