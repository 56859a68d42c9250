//! Cross-layer consistency of causal traces: for every request the
//! platform reports — completed, shed or terminally failed, across the
//! happy-path, chaos and overload suites — the assembled trace's
//! critical-path segments must sum **exactly** (integer nanoseconds) to
//! the recorded end-to-end latency, and re-running the same seed must
//! reproduce the same trees byte-for-byte.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::GpuServer;
use dgsf::serverless::{Backend, FleetPolicy, FunctionResult, ObjectStore};
use dgsf::sim::trace::{assemble, TraceTree};
use dgsf::sim::SimCell;
use dgsf::workloads::{as_workloads, paper_suite};

const GB: u64 = 1 << 30;

/// Check every platform-reported result against its assembled trace: the
/// tree exists, carries the matching terminal state and window, and its
/// segments partition the end-to-end latency exactly.
fn check_consistency(results: &[FunctionResult], trees: &[TraceTree]) {
    for r in results {
        let id = r
            .trace
            .expect("every DGSF-path result must carry a trace id");
        let t = trees
            .iter()
            .find(|t| t.id == id)
            .unwrap_or_else(|| panic!("no assembled trace for request {id}"));
        assert_eq!(t.outcome, r.outcome(), "trace {id} terminal state");
        assert_eq!(t.start, r.launched_at, "trace {id} window start");
        assert_eq!(t.end, r.finished_at, "trace {id} window end");
        assert_eq!(t.attempts, r.attempts, "trace {id} attempt count");
        assert_eq!(
            t.segment_total(),
            r.e2e(),
            "trace {id}: segments must sum exactly to the recorded e2e \
             (segments: {:?})",
            t.segments
        );
    }
}

#[test]
fn happy_path_traces_decompose_exactly() {
    // The end-to-end mixed suite on a fault-free testbed: everything
    // completes, and every completion decomposes exactly.
    let run = |seed: u64| {
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
        let (out, tel) =
            Testbed::run_platform_schedule_traced(&cfg, &as_workloads(&suite), &schedule);
        (out.results, assemble(&tel))
    };
    let (results, trees) = run(42);
    assert!(!results.is_empty());
    assert_eq!(results.len(), trees.len(), "one tree per request");
    assert!(results.iter().all(|r| r.succeeded()));
    check_consistency(&results, &trees);
    // Completed requests spend real time executing: the decomposition must
    // attribute some of it to `exec`, not lump everything into one label.
    assert!(
        trees.iter().any(|t| t.segment("exec") > Dur::ZERO),
        "remote kernel time must surface as exec segments"
    );
    assert!(
        trees.iter().any(|t| t.segment("download") > Dur::ZERO),
        "object-store time must surface as download segments"
    );
    // Same seed ⇒ same trees, exactly.
    let (_, trees2) = run(42);
    assert_eq!(trees, trees2, "trace assembly must replay byte-for-byte");
}

fn t(secs: f64) -> SimTime {
    SimTime::ZERO + Dur::from_secs_f64(secs)
}

/// Run `n` staggered functions through a two-server backend where server A
/// carries `faults`, with telemetry recording on. Returns the full results
/// plus the run's assembled traces.
fn chaos_run(seed: u64, n: usize, faults: FaultPlan) -> (Vec<FunctionResult>, Vec<TraceTree>) {
    let mut sim = Sim::new(seed);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out: Rc<SimCell<Vec<FunctionResult>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("chaos-root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2))
            .with_queue_timeout(Dur::from_secs(10))
            .with_idle_timeout(Dur::from_secs(5));
        let a = GpuServer::provision(p, &h2, cfg.clone().with_faults(faults));
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Rc::new(Backend::new(&h2, vec![a, b], FleetPolicy::RoundRobin));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..n {
            let backend = Rc::clone(&backend);
            let store = Arc::clone(&store);
            let out = Rc::clone(&o2);
            h2.spawn_at(&format!("fn-{i}"), t(0.6 * i as f64), move |p| {
                // One kernel long enough that a mid-run server kill lands
                // inside it.
                let spin = Spin {
                    gpu_secs: 1.5,
                    ..Spin::default()
                };
                let r = backend.invoke(p, &store, &spin, OptConfig::full());
                out.lock().push(r);
            });
        }
    });
    sim.run();
    let results = out.lock().clone();
    (results, assemble(&tel))
}

#[test]
fn chaos_traces_decompose_exactly_including_retry_gaps() {
    // Server A dies 1 s in (mid-kernel of the first function) and its link
    // eats one early RPC round trip: requests retry across servers, some
    // fail terminally — and every one of them still decomposes exactly.
    let plan = FaultPlan::new(11).kill_server(0, t(1.0)).drop_message(6);
    let (results, trees) = chaos_run(11, 6, plan.clone());
    assert_eq!(results.len(), 6, "no invocation may hang or get lost");
    assert_eq!(trees.len(), 6, "one tree per request");
    check_consistency(&results, &trees);
    // The kill forces at least one retry, whose backoff gap must be
    // accounted as an explicit segment — not silently dropped.
    let retried: Vec<&TraceTree> = trees.iter().filter(|t| t.attempts > 1).collect();
    assert!(!retried.is_empty(), "the dead server must force retries");
    assert!(
        retried.iter().any(|t| t.segment("backoff") > Dur::ZERO),
        "retry gaps must surface as backoff segments"
    );
    // Same chaos, same seed ⇒ same trees.
    let (_, trees2) = chaos_run(11, 6, plan);
    assert_eq!(trees, trees2, "chaos traces must replay byte-for-byte");
}

#[test]
fn overloaded_fleet_traces_decompose_exactly_including_sheds() {
    // Fleet-suite shape: a two-tenant Poisson mix against a 2-server
    // platform with a tight admission budget, so overload surfaces as
    // shed-on-arrival requests (zero-width trees) alongside completions.
    let run = |seed: u64| {
        let suite: Vec<Arc<dyn Workload>> = vec![
            Arc::new(Tenanted::new(
                "hot",
                Spin {
                    gpu_secs: 0.3,
                    ..Spin::default()
                },
            )),
            Arc::new(Tenanted::new(
                "cold",
                Spin {
                    gpu_secs: 1.2,
                    mem: 4 * GB,
                    ..Spin::default()
                },
            )),
        ];
        let schedule = Schedule::merged(
            seed,
            &[
                (
                    0,
                    24,
                    ArrivalPattern::Exponential {
                        mean: Dur(125_000_000),
                    },
                ),
                (
                    1,
                    6,
                    ArrivalPattern::Exponential {
                        mean: Dur(500_000_000),
                    },
                ),
            ],
        );
        let cfg = PlatformConfig::paper_default()
            .with_seed(seed)
            .with_server(GpuServerConfig::paper_default().gpus(1))
            .with_num_servers(2)
            .with_fleet_policy(FleetPolicy::LoadAware)
            .with_max_inflight(4);
        let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
        (out.results, assemble(&tel))
    };
    let (results, trees) = run(42);
    assert_eq!(results.len(), trees.len(), "one tree per request");
    assert!(
        results.iter().any(|r| r.shed),
        "the scenario must actually shed"
    );
    assert!(
        results.iter().any(|r| r.succeeded()),
        "the scenario must also complete work"
    );
    check_consistency(&results, &trees);
    // Shed-on-arrival requests are zero-width: empty decomposition, sum 0.
    for t in trees.iter().filter(|t| t.attempts == 0) {
        assert_eq!(t.e2e(), Dur::ZERO);
        assert!(t.segments.is_empty());
    }
    let (_, trees2) = run(42);
    assert_eq!(trees, trees2, "overload traces must replay byte-for-byte");
}
