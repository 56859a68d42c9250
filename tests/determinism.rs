//! Determinism and robustness of the whole stack: identical seeds must
//! produce bit-identical experiment outcomes, and the scheduler/queueing
//! machinery must behave sanely under load.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::workloads::{as_workloads, paper_suite, smaller_suite};

fn run_once(seed: u64, copies: usize) -> (Vec<(Arc<str>, u64)>, u64, usize) {
    let suite = paper_suite();
    let schedule = Schedule::mixed(
        seed,
        suite.len(),
        copies,
        ArrivalPattern::Exponential {
            mean: Dur::from_secs(2),
        },
    );
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(4).sharing(2));
    let out = Testbed::run_platform_schedule(&cfg, &as_workloads(&suite), &schedule);
    let results: Vec<(Arc<str>, u64)> = out
        .results
        .iter()
        .map(|r| (r.name.clone(), r.e2e().as_nanos()))
        .collect();
    let migrations = out.migrations.iter().map(Vec::len).sum();
    (results, out.provider_e2e().as_nanos(), migrations)
}

#[test]
fn same_seed_same_everything() {
    let a = run_once(1234, 2);
    let b = run_once(1234, 2);
    assert_eq!(a, b, "same seed must give bit-identical outcomes");
}

#[test]
fn different_seed_different_schedule() {
    let a = run_once(1, 2);
    let b = run_once(2, 2);
    assert_ne!(a.1, b.1, "different arrival draws change the makespan");
}

#[test]
fn every_function_completes_under_heavy_load() {
    let suite = paper_suite();
    let n = suite.len() * 3;
    let schedule = Schedule::mixed(
        9,
        suite.len(),
        3,
        ArrivalPattern::Exponential {
            mean: Dur::from_secs(1), // heavier than the paper's heavy load
        },
    );
    let cfg = PlatformConfig::paper_default()
        .with_seed(9)
        .with_server(GpuServerConfig::paper_default().gpus(4));
    let out = Testbed::run_platform_schedule(&cfg, &as_workloads(&suite), &schedule);
    assert_eq!(out.results.len(), n);
    assert!(out.records.iter().flatten().all(|r| r.done_at.is_some()));
    // FCFS: assignment order follows request order
    let mut assigned: Vec<_> = out
        .records
        .iter()
        .flatten()
        .map(|r| (r.requested_at, r.assigned_at.unwrap()))
        .collect();
    assigned.sort();
    for w in assigned.windows(2) {
        assert!(
            w[0].1 <= w[1].1,
            "strict FCFS: earlier requests are assigned no later"
        );
    }
}

#[test]
fn queueing_delay_drops_when_gpus_are_added() {
    let suite = smaller_suite();
    let schedule = Schedule::mixed(
        5,
        suite.len(),
        3,
        ArrivalPattern::Exponential {
            mean: Dur::from_secs(2),
        },
    );
    let total_queue = |gpus: u32| {
        let cfg = PlatformConfig::paper_default()
            .with_seed(5)
            .with_server(GpuServerConfig::paper_default().gpus(gpus));
        let out = Testbed::run_platform_schedule(&cfg, &as_workloads(&suite), &schedule);
        out.records
            .iter()
            .flatten()
            .filter_map(|r| r.queue_delay())
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
    };
    let q2 = total_queue(2);
    let q4 = total_queue(4);
    assert!(
        q4 < q2,
        "more GPUs must reduce total queueing: 4 GPUs {q4:.1}s vs 2 GPUs {q2:.1}s"
    );
}

#[test]
fn memory_fully_returns_after_a_run() {
    // After every function completes, the GPUs hold only the provisioned
    // idle footprints — nothing leaks across invocations.
    use dgsf::server::GpuServer;
    use dgsf::serverless::{Backend, ObjectStore};
    use dgsf::sim::{Sim, SimCell};

    let mut sim = Sim::new(3);
    let h = sim.handle();
    let leaked = Rc::new(SimCell::new(&h, None));
    let l2 = leaked.clone();
    sim.spawn("root", move |p| {
        let server =
            GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2).sharing(2));
        let baseline: Vec<u64> = server.gpus.iter().map(|g| g.used_mem()).collect();
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let w = dgsf::workloads::face_identification();
        let backend = Backend::new(&h, vec![Arc::clone(&server)], FleetPolicy::RoundRobin);
        for _ in 0..3 {
            backend.invoke(p, &store, &w, OptConfig::full());
        }
        p.sleep(Dur::from_secs(2));
        let after: Vec<u64> = server.gpus.iter().map(|g| g.used_mem()).collect();
        *l2.lock() = Some((baseline, after));
    });
    sim.run();
    let (baseline, after) = leaked.lock().take().unwrap();
    assert_eq!(baseline, after, "device memory must fully return");
}
