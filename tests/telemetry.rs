//! Telemetry as a test oracle: exports must be byte-identical across
//! same-seed runs (golden determinism), recording must not perturb the
//! simulation, and the trace must carry the structure the harness already
//! measures (phases, RPC classes, per-GPU gauges).

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::sim::TelemetryExport;
use dgsf::workloads::{as_workloads, paper_suite};

fn mixed_cfg(seed: u64) -> (PlatformConfig, Vec<Arc<dyn Workload>>, Schedule) {
    let suite = paper_suite();
    let schedule = Schedule::mixed(
        seed,
        suite.len(),
        2,
        ArrivalPattern::Exponential {
            mean: Dur::from_secs(2),
        },
    );
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(4).sharing(2));
    (cfg, as_workloads(&suite), schedule)
}

fn traced_export(seed: u64) -> TelemetryExport {
    let (cfg, suite, schedule) = mixed_cfg(seed);
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    dgsf::check_backend_counters(&out, &tel).assert_ok();
    tel.export()
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let a = traced_export(42);
    let b = traced_export(42);
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "metrics snapshot must replay byte-for-byte"
    );
    assert_eq!(
        a.chrome_trace_json, b.chrome_trace_json,
        "chrome trace must replay byte-for-byte"
    );
    // The trace is not vacuous: it carries the structures the layer is
    // supposed to record.
    assert!(a.metrics_json.contains("\"rpc.calls.init\""));
    assert!(a.metrics_json.contains("\"rpc.latency_ns.cudnn\""));
    assert!(a.metrics_json.contains("\"gpu.0.mem_used_bytes\""));
    assert!(a.metrics_json.contains("\"monitor.queue_depth\""));
    assert!(a.chrome_trace_json.contains("\"thread_name\""));
    assert!(a.chrome_trace_json.contains("\"cat\": \"phase\""));
    assert!(a.chrome_trace_json.contains("\"cat\": \"invocation\""));
    assert!(a.chrome_trace_json.contains("\"cat\": \"rpc\""));
    // And it is seed-sensitive: a different arrival schedule must not
    // accidentally export the same bytes.
    let c = traced_export(7);
    assert_ne!(a.chrome_trace_json, c.chrome_trace_json);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Recording must be an observer: the traced run's outcomes are
    // bit-identical to the untraced run's.
    let digest = |out: &BackendRunOutput| -> Vec<(Arc<str>, u64, u64)> {
        out.results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.launched_at.as_nanos(),
                    r.finished_at.as_nanos(),
                )
            })
            .collect()
    };
    let (cfg, suite, schedule) = mixed_cfg(42);
    let plain = Testbed::run_platform_schedule(&cfg, &suite, &schedule);
    let (traced, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    dgsf::check_backend_counters(&traced, &tel).assert_ok();
    assert_eq!(digest(&plain), digest(&traced));
    assert_eq!(plain.all_done, traced.all_done);
    assert!(tel.counter("backend.invocations") > 0 || tel.counter("monitor.assignments") > 0);
}

#[test]
fn untraced_runs_record_nothing() {
    // The default is off: a full invocation through every instrumented
    // layer leaves the registry empty, so the no-op path costs at most one
    // relaxed atomic load per call site.
    use dgsf::server::GpuServer;
    use dgsf::serverless::{Backend, ObjectStore};
    let mut sim = dgsf::sim::Sim::new(5);
    let tel = sim.telemetry();
    let h = sim.handle();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(1));
        let store = ObjectStore::new(NetProfile::datacenter().s3_bw);
        let w = dgsf::workloads::kmeans();
        let backend = Backend::new(&h, vec![server], FleetPolicy::RoundRobin);
        let r = backend.invoke(p, &store, &w, OptConfig::full());
        assert!(r.succeeded());
    });
    sim.run();
    assert!(tel.counters().is_empty());
    assert!(tel.spans().is_empty());
    assert!(tel.instants().is_empty());
}

#[test]
fn rpc_accounting_is_consistent() {
    // Cross-layer consistency: the server saw exactly as many requests per
    // class as clients issued, and every histogram's count matches its
    // class counter.
    let (cfg, suite, schedule) = mixed_cfg(42);
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    dgsf::check_backend_counters(&out, &tel).assert_ok();
    for (name, calls) in tel.counters() {
        if let Some(class) = name.strip_prefix("rpc.calls.") {
            assert_eq!(
                tel.counter(&format!("server.requests.{class}")),
                calls,
                "server-side count must match client-side for {class}"
            );
            let lat = tel
                .histogram(&format!("rpc.latency_ns.{class}"))
                .expect("every called class has a latency histogram");
            assert!(lat.count > 0);
            assert!(lat.min <= lat.max);
        }
    }
}
