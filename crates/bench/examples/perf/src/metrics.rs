//! The benchmark's metrics: names, units and bounds, and how a traced
//! sample turns into the per-layer numbers. `BENCHMARK.json` at the root of
//! the repository lists the same metrics with the same bounds.

use crate::spans::Recording;
use crate::stats::nearest_rank;
use crate::sys::Usage;
use crate::workloads::Outcome;

/// An end-to-end metric: every one is lower-is-better.
pub struct E2e {
    /// Name, also the sample field it is read from.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and printed by the benchmark protocol.
    /// The others are only written to `perf.json` and judged by `compare`.
    pub gated: bool,
    /// Derived from virtual time: deterministic per seed, so `compare`
    /// judges it exactly and a host-time-only change must leave it alone.
    pub virtual_time: bool,
}

const fn metric(name: &'static str, unit: &'static str, bound: f64, gated: bool) -> E2e {
    E2e {
        name,
        unit,
        bound,
        gated,
        virtual_time: false,
    }
}

const fn virtual_metric(name: &'static str, bound: f64, gated: bool) -> E2e {
    E2e {
        name,
        unit: "us",
        bound,
        gated,
        virtual_time: true,
    }
}

/// The end-to-end metrics, measured with tracing off. Except for
/// `setup_s`, which gets the largest bound, bounds are at least three
/// times the spread measured over ten seeds (see `README.md`).
/// `virt_p99_us` varies by about 10 % from one seed's inputs to the next,
/// more than a third of any bound the benchmark protocol allows, so only
/// `compare` judges it, exactly.
pub const E2E: [E2e; 6] = [
    metric("host_us_per_invocation", "us", 0.1, true),
    metric("setup_s", "s", 0.25, true),
    metric("peak_rss_mb", "MB", 0.1, true),
    virtual_metric("virt_p50_us", 0.15, true),
    virtual_metric("virt_p99_us", 0.0, false),
    metric("host_wall_us_per_invocation", "us", 0.1, false),
];

/// RPC classes of the wire protocol, as the telemetry counters name them
/// (`rpc.calls.<class>`, `rpc.bytes.<class>`). Every class counts towards
/// the per-invocation totals; [`REPORTED_CLASSES`] get a metric each.
const RPC_CLASSES: [&str; 15] = [
    "init",
    "register_module",
    "device_query",
    "mem",
    "memcpy_h2d",
    "memcpy_d2h",
    "launch",
    "sync",
    "stream",
    "event",
    "cudnn",
    "cublas",
    "batch",
    "end_function",
    "resident",
];

/// The classes with a per-layer metric of their own: the others
/// (`device_query`, `stream`, `event`) are issued by no workload.
const REPORTED_CLASSES: [&str; 12] = [
    "init",
    "register_module",
    "mem",
    "memcpy_h2d",
    "memcpy_d2h",
    "launch",
    "sync",
    "cudnn",
    "cublas",
    "batch",
    "end_function",
    "resident",
];

/// The per-layer metrics with their units, in report order.
pub fn layers() -> Vec<(String, &'static str)> {
    let nothing = Outcome::default();
    layer_values(&nothing, &Recording::default(), &Usage::default(), 0)
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect()
}

/// The per-layer numbers one traced instance yields, as `(name, unit,
/// value)`. The two overheads compare arms with each other, so the parent
/// fills them in; here they are NaN.
pub fn layer_values(
    out: &Outcome,
    rec: &Recording,
    usage: &Usage,
    peak_threads: u64,
) -> Vec<(String, &'static str, f64)> {
    let n = out.launched.max(1) as f64;
    let cpu = usage.cpu_ns().max(1) as f64;
    let permille = |part: f64, whole: f64| part * 1000.0 / whole.max(1.0);
    let self_cpu = |name: &str| permille(rec.get(name).self_cpu_ns as f64, cpu);
    let tel = out.telemetry.as_deref();
    let counter = |name: &str| tel.map_or(0, |t| t.counter(name)) as f64;
    let bytes: u64 = RPC_CLASSES
        .iter()
        .filter_map(|c| tel?.histogram(&format!("rpc.bytes.{c}")))
        .map(|h| h.sum)
        .sum();
    let rpcs: f64 = RPC_CLASSES
        .iter()
        .map(|c| counter(&format!("rpc.calls.{c}")))
        .sum();
    let mut queue = out.queue_delays.clone();
    queue.sort_unstable();

    let mut v: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        v.push((name.to_string(), unit, value));
    };
    put(
        "sim.events_per_invocation",
        "count",
        out.events.map_or(0.0, |e| e as f64 / n),
    );
    put(
        "sim.driver_cpu_permille",
        "permille",
        permille(rec.get("sim.run").cpu_ns as f64, cpu),
    );
    put(
        "sim.sys_cpu_permille",
        "permille",
        permille(usage.sys_ns as f64, cpu),
    );
    put(
        "sim.ctx_switches_per_invocation",
        "count",
        usage.ctx_switches as f64 / n,
    );
    put("sim.peak_threads", "count", peak_threads as f64);
    put("remoting.rpcs_per_invocation", "count", rpcs / n);
    for c in REPORTED_CLASSES {
        let calls = counter(&format!("rpc.calls.{c}"));
        put(&format!("remoting.rpcs.{c}"), "count", calls / n);
    }
    put("remoting.bytes_per_invocation", "B", bytes as f64 / n);
    put(
        "remoting.call_cpu_permille",
        "permille",
        self_cpu("remoting.call"),
    );
    put(
        "remoting.serve_cpu_permille",
        "permille",
        self_cpu("remoting.serve"),
    );
    put(
        "workloads.cpu_permille",
        "permille",
        self_cpu("workloads.run"),
    );
    put(
        "server.queue_delay_p99_us",
        "us",
        nearest_rank(&queue, 9_900).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    put(
        "server.cold_starts",
        "count",
        counter("autoscale.scale_ups") + counter("autoscale.prewarms"),
    );
    put(
        "server.assignments_per_invocation",
        "count",
        counter("monitor.assignments") / n,
    );
    put("server.migrations", "count", counter("migrations"));
    put(
        "serverless.attempts_per_invocation",
        "count",
        out.attempts as f64 / n,
    );
    put("serverless.shed", "count", out.shed as f64);
    put(
        "serverless.invoke_dag_cpu_permille",
        "permille",
        self_cpu("serverless.invoke_dag"),
    );
    put(
        "serverless.transfer_permille",
        "permille",
        permille(out.transfer_ns as f64, out.e2e_ns as f64),
    );
    put(
        "serverless.resident_adopts_per_invocation",
        "count",
        out.resident_adopts as f64 / n,
    );
    put("telemetry.overhead_permille", "permille", f64::NAN);
    put("bench.trace_overhead_permille", "permille", f64::NAN);
    put(
        "bench.unattributed_cpu_permille",
        "permille",
        permille(cpu - rec.top_level_cpu_ns() as f64, cpu),
    );
    v
}
