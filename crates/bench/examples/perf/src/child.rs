//! One measured instance of one workload, in a process of its own.
//!
//! The child pins itself to one CPU before it builds anything, so every
//! simulated process thread it spawns inherits the pin. It sets the
//! workload up several times and keeps the median set-up time, runs the
//! last set-up with the speed probe beside it, reads the process counters
//! around the run, checks the outputs, and prints one JSON sample as the
//! last line of its output.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::layer_values;
use crate::probe::Probe;
use crate::spans;
use crate::stats::{fnv1a, nearest_rank, Quartiles};
use crate::sys::{self, Usage};
use crate::workloads::{self, Config, Kind};

/// Set-ups per child; the child reports their median.
const SETUPS: usize = 11;

/// What the parent asks one child to do.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The workload.
    pub kind: Kind,
    /// Its configuration.
    pub cfg: Config,
    /// Record the benchmark's spans (and the per-layer sample).
    pub spans: bool,
    /// Include every recorded span in the sample, for `trace.json`.
    pub raw_spans: bool,
    /// Report a violation that did not happen: the self-test's check that
    /// a failing output makes the benchmark fail.
    pub forge_violation: bool,
}

/// Run `job` in this process and return its sample.
pub fn run(job: Job) -> Result<Json, String> {
    let cpu = sys::pin_to_first_cpu()?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(workloads::prepare(job.kind, job.cfg));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut instance = prepared.expect("at least one set-up");
    let setup_s = Quartiles::of(&setups).median;

    if job.spans {
        spans::start();
    }
    let probe = Probe::start();
    let usage0 = Usage::now();
    let wall0 = Instant::now();
    instance.run();
    let timed_s = wall0.elapsed().as_secs_f64();
    let usage = usage0.until(&Usage::now());
    let speed = probe.stop();
    let recording = job.spans.then(spans::stop);
    let peak_rss_mb = sys::peak_rss_mb();

    let mut out = instance.finish();
    if job.forge_violation {
        out.violations.push("forged violation (self-test)".into());
    }
    let mut by_id = out.latencies.clone();
    by_id.sort_unstable();
    let mut sorted: Vec<u64> = by_id.iter().map(|&(_, ns)| ns).collect();
    sorted.sort_unstable();
    let us = |q| nearest_rank(&sorted, q).map_or(0.0, |ns| ns as f64 / 1e3);
    let digest = fnv1a(by_id.iter().flat_map(|&(id, ns)| [id, ns]));
    let wall_us = timed_s * 1e6 / out.launched.max(1) as f64;

    let mut sample = Json::obj()
        .with("workload", job.kind.name())
        .with("seed", job.cfg.seed)
        .with("size", job.cfg.size)
        .with("telemetry", job.cfg.telemetry)
        .with("spans", job.spans)
        .with("pinned_cpu", cpu as u64)
        .with("launched", out.launched)
        .with("completed", out.completed)
        .with("shed", out.shed)
        .with("failed", out.failed)
        .with("host_wall_us_per_invocation", wall_us)
        .with("setup_wall_s", setup_s)
        .with("probe_ns", speed.mean_ns)
        .with("host_us_per_invocation", wall_us * speed.speed_factor())
        .with("setup_s", setup_s * speed.speed_factor())
        .with("peak_rss_mb", peak_rss_mb)
        .with("peak_threads", speed.peak_threads)
        .with("virt_p50_us", us(5_000))
        .with("virt_p99_us", us(9_900))
        .with("virt_digest", format!("{digest:016x}"))
        .with(
            "latencies_ns",
            sorted.iter().map(|&ns| Json::from(ns)).collect::<Vec<_>>(),
        );
    if let Some(err) = out.model_err_permille {
        sample = sample.with("model_err_permille", err);
    }
    if let Some(rec) = &recording {
        let layers = layer_values(&out, rec, &usage, speed.peak_threads)
            .into_iter()
            .fold(Json::obj(), |m, (name, _, value)| m.with(&name, value));
        sample = sample
            .with("layers", layers)
            .with("process_cpu_ns", usage.cpu_ns())
            .with("span_totals", span_totals(rec));
        if job.raw_spans {
            sample = sample.with("raw_spans", raw_spans(rec));
        }
    }
    Ok(sample.with(
        "violations",
        out.violations
            .into_iter()
            .map(Json::from)
            .collect::<Vec<_>>(),
    ))
}

/// Per-name span totals: closed spans, wall, CPU, self CPU and CPU of the
/// spans that had no parent, all in nanoseconds.
fn span_totals(rec: &spans::Recording) -> Json {
    rec.totals.iter().fold(Json::obj(), |m, (name, t)| {
        m.with(
            name,
            Json::obj()
                .with("count", t.count)
                .with("wall_ns", t.wall_ns)
                .with("cpu_ns", t.cpu_ns)
                .with("self_cpu_ns", t.self_cpu_ns)
                .with("top_cpu_ns", t.top_cpu_ns),
        )
    })
}

/// Chrome trace events (`ph: X`, microseconds) for every kept span.
fn raw_spans(rec: &spans::Recording) -> Json {
    Json::Arr(
        rec.raw
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name)
                    .with("ph", "X")
                    .with("tid", s.tid as u64)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.wall_ns as f64 / 1e3)
                    .with("args", Json::obj().with("cpu_us", s.cpu_ns as f64 / 1e3))
            })
            .collect(),
    )
}
