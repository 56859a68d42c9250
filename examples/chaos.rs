//! Fault injection + recovery demo.
//!
//! ```text
//! cargo run --release --example chaos
//! ```
//!
//! Two 1-GPU servers serve a burst of inference functions while server A is
//! killed mid-run and its link eats one RPC outright. The backend detects
//! the failures (RPC timeouts, heartbeat leases) and retries each function
//! on the surviving server, so every invocation terminates. The whole
//! chaotic timeline replays byte-identically from the seed.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::GpuServer;
use dgsf::serverless::{Backend, FleetPolicy, ObjectStore, RetryPolicy};
use dgsf::sim::SimCell;

/// One function's client-observed outcome.
type Outcome = (usize, u64, u32, Option<String>);

fn chaos_run(seed: u64, n: usize) -> (Vec<Outcome>, u64, usize) {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let out: Rc<SimCell<Vec<Outcome>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let servers: Rc<SimCell<Vec<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let (o2, s2, h2) = (Rc::clone(&out), Rc::clone(&servers), h.clone());
    sim.spawn("chaos-root", move |p| {
        // Server A dies 8 s in — mid-invocation — and its link drops the
        // 6th message. Timeouts are filled in by "chaos implies hardening"
        // defaults, but we tighten the RPC timeout for a snappier demo.
        let faults = FaultPlan::new(seed)
            .kill_server(0, SimTime::ZERO + Dur::from_secs(8))
            .drop_message(6);
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2));
        let a = GpuServer::provision(p, &h2, cfg.clone().with_faults(faults));
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Rc::new(
            Backend::new(
                &h2,
                vec![Arc::clone(&a), Arc::clone(&b)],
                FleetPolicy::RoundRobin,
            )
            .with_retry(RetryPolicy::default()),
        );
        *s2.lock() = vec![a, b];
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..n {
            let (backend, store, out) = (Rc::clone(&backend), Arc::clone(&store), Rc::clone(&o2));
            h2.spawn_at(
                &format!("fn-{i}"),
                SimTime::ZERO + Dur::from_secs(2 * i as u64),
                move |p| {
                    let w = dgsf::workloads::face_identification();
                    let r = backend.invoke(p, &store, &w, OptConfig::full());
                    out.lock()
                        .push((i, r.e2e().as_nanos(), r.attempts, r.failure.clone()));
                },
            );
        }
    });
    sim.run();
    let mut results = out.lock().clone();
    results.sort_by_key(|(i, ..)| *i);
    let servers = servers.lock();
    let dropped = servers[0].fault_stats().map(|s| s.dropped).unwrap_or(0);
    let failed = servers
        .iter()
        .flat_map(|s| s.records())
        .filter(|r| r.failed_at.is_some())
        .count();
    (results, dropped, failed)
}

fn main() {
    let (n, seed) = (6usize, 11u64);
    println!("chaos: 2 servers, server A killed at t=8s + one dropped RPC\n");
    let (results, dropped, failed) = chaos_run(seed, n);
    for (i, e2e, attempts, failure) in &results {
        println!(
            "fn-{i}: e2e {:6.2}s  attempts {attempts}  {}",
            *e2e as f64 / 1e9,
            match failure {
                None => "ok".to_string(),
                Some(f) => format!("FAILED: {f}"),
            }
        );
    }
    println!(
        "\nserver-side: {failed} invocation(s) recorded failed, {dropped} transfer(s) dropped"
    );

    let replay = chaos_run(seed, n);
    println!(
        "same-seed replay identical: {}",
        replay == (results, dropped, failed)
    );
}
