//! A production-like mixed inference pipeline on a shared GPU server.
//!
//! ```text
//! cargo run --release --example inference_pipeline
//! ```
//!
//! Launches a Poisson-ish stream of the paper's six workloads against one
//! disaggregated GPU server (4 V100s) under three configurations — no
//! sharing, sharing with best-fit, sharing + live migration — and prints
//! queueing delays, per-GPU utilization, and any migrations the monitor
//! decided to perform.

use dgsf::prelude::*;
use dgsf::workloads::{as_workloads, paper_suite};

fn main() {
    let suite = paper_suite();
    let schedule = Schedule::mixed(
        7,
        suite.len(),
        3, // three copies of each workload
        ArrivalPattern::Exponential {
            mean: Dur::from_secs(2),
        },
    );
    println!(
        "launching {} functions (3 x 6 workloads, exponential gaps, mean 2s)\n",
        schedule.len()
    );

    let configs: Vec<(&str, GpuServerConfig)> = vec![
        (
            "no sharing",
            GpuServerConfig::paper_default().gpus(4).sharing(1),
        ),
        (
            "sharing(2) best-fit",
            GpuServerConfig::paper_default()
                .gpus(4)
                .sharing(2)
                .with_policy(PlacementPolicy::BestFit),
        ),
        (
            "sharing(2) best-fit + migration",
            GpuServerConfig::paper_default()
                .gpus(4)
                .sharing(2)
                .with_policy(PlacementPolicy::BestFit)
                .with_migration(true),
        ),
    ];

    for (label, server) in configs {
        let cfg = PlatformConfig::paper_default()
            .with_seed(7)
            .with_server(server);
        let out = Testbed::run_platform_schedule(&cfg, &as_workloads(&suite), &schedule);
        let queue_delays: Vec<f64> = out
            .records
            .iter()
            .flatten()
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .collect();
        let s = dgsf::sim::Summary::from(&queue_delays);
        println!("== {label} ==");
        println!(
            "  provider end-to-end {:.1}s | function E2E sum {:.1}s",
            out.provider_e2e().as_secs_f64(),
            out.function_e2e_sum().as_secs_f64()
        );
        println!(
            "  queueing: mean {:.1}s  p95 {:.1}s  max {:.1}s",
            s.mean, s.p95, s.max
        );
        println!(
            "  mean GPU utilization {:.1}% | migrations {}",
            out.mean_utilization(out.first_launch, out.all_done) * 100.0,
            out.migrations.iter().map(Vec::len).sum::<usize>()
        );
        for m in out.migrations.iter().flatten() {
            println!(
                "    migrated server {} {:?} -> {:?}: moved {} MB in {:.2}s",
                m.server,
                m.from,
                m.to,
                m.report.bytes_moved >> 20,
                m.report.total.as_secs_f64()
            );
        }
        println!();
    }
}
