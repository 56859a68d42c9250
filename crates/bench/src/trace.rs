//! `dgsf-expt trace` — run an experiment with telemetry recording on and
//! write browsable trace artifacts.
//!
//! Two files come out of a trace run:
//!
//! * `metrics.json` — the full metrics snapshot: counters, gauges,
//!   histograms (with log₂ buckets and integer p50/p95/p99 bounds).
//! * `trace.json` — a Chrome trace-event file; open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> to browse invocation,
//!   phase, RPC and server spans on per-process tracks in virtual time.
//!
//! Both files are deterministic: the simulation records in virtual time
//! only, so the same seed produces byte-identical output on every run and
//! machine. That makes the trace usable as a regression oracle — diff the
//! files across commits to see exactly what changed in the platform's
//! behaviour.

use dgsf::prelude::*;
use dgsf::sim::TelemetryExport;
use dgsf::workloads::{as_workloads, paper_suite};

/// Run the heavy-load mixed experiment (paper suite, exponential arrivals
/// with mean 2 s, 4 GPUs, sharing(2) best-fit) with telemetry enabled and
/// export `metrics.json` + `trace.json`.
///
/// Same `seed` and `copies` ⇒ byte-identical files.
pub fn trace(copies: usize, seed: u64) -> TelemetryExport {
    let suite = paper_suite();
    let pattern = ArrivalPattern::Exponential {
        mean: Dur::from_secs(2),
    };
    let schedule = Schedule::mixed(seed, suite.len(), copies, pattern);
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(4).sharing(2));
    let (_out, tel) = Testbed::run_platform_schedule_traced(&cfg, &as_workloads(&suite), &schedule);
    tel.export()
}
