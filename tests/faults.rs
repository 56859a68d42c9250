//! Chaos tests for the fault-injection + recovery stack.
//!
//! The contract under test: with a seeded [`FaultPlan`] installed, every
//! invocation either completes or is reported failed after a bounded number
//! of attempts — none hang, none are silently lost — and the whole chaotic
//! timeline is reproducible byte-for-byte from the seed. An *empty* fault
//! plan must be invisible: bit-identical to a run with no plan at all.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::{GpuServer, InvocationRecord};
use dgsf::serverless::{Backend, FleetPolicy, ObjectStore};
use dgsf::sim::SimCell;

fn t(secs: f64) -> SimTime {
    SimTime::ZERO + Dur::from_secs_f64(secs)
}

/// Comparable digest of one function outcome.
type ResultKey = (u64, u64, u32, Option<String>, Option<u64>);

/// Comparable digest of one server-side invocation record.
type RecordKey = (
    u64,
    String,
    u64,
    u64,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    u32,
);

fn record_key(r: &InvocationRecord) -> RecordKey {
    (
        r.invocation,
        r.name.clone(),
        r.requested_at.as_nanos(),
        r.mem,
        r.assigned_at.map(|x| x.as_nanos()),
        r.done_at.map(|x| x.as_nanos()),
        r.failed_at.map(|x| x.as_nanos()),
        r.attempts,
    )
}

/// Run `n` staggered functions through a two-server backend where server A
/// carries `faults` (none: no fault plan at all), with telemetry recording
/// on. Returns (per-function outcome digests in launch order, the
/// concatenated record digests of both servers, dropped-transfer count on
/// the faulted link, the run's telemetry registry).
fn chaos_run(
    seed: u64,
    n: usize,
    faults: Option<FaultPlan>,
) -> (
    Vec<ResultKey>,
    Vec<Vec<InvocationRecord>>,
    u64,
    Arc<dgsf::sim::Telemetry>,
) {
    let mut sim = Sim::new(seed);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out: Rc<SimCell<Vec<(usize, ResultKey)>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let fleet: Rc<SimCell<Vec<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let f2 = Rc::clone(&fleet);
    let h2 = h.clone();
    sim.spawn("chaos-root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2))
            .with_queue_timeout(Dur::from_secs(10))
            .with_idle_timeout(Dur::from_secs(5));
        let a_cfg = match faults {
            Some(plan) => cfg.clone().with_faults(plan),
            None => cfg.clone(),
        };
        let a = GpuServer::provision(p, &h2, a_cfg);
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Rc::new(Backend::new(
            &h2,
            vec![Arc::clone(&a), Arc::clone(&b)],
            FleetPolicy::RoundRobin,
        ));
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
                out.lock().push((
                    i,
                    (
                        r.launched_at.as_nanos(),
                        r.finished_at.as_nanos(),
                        r.attempts,
                        r.failure.clone(),
                        r.invocation,
                    ),
                ));
            });
        }
        // The servers' logs are read once the run is over: a server marks
        // an invocation's record terminal only after the client has its
        // reply.
        *f2.borrow_in(p) = vec![a, b];
    });
    sim.run();
    let mut results = out.lock().clone();
    assert_eq!(results.len(), n, "every function returned");
    results.sort_by_key(|(i, _)| *i);
    let results = results.into_iter().map(|(_, k)| k).collect();
    let fleet = fleet.lock().clone();
    let records = fleet.iter().map(|s| s.records()).collect();
    let dropped = fleet[0].fault_stats().map(|s| s.dropped).unwrap_or(0);
    (results, records, dropped, tel)
}

/// FNV-1a over a run's telemetry export: the metrics JSON, then the
/// Chrome trace JSON.
fn export_digest(tel: &dgsf::sim::Telemetry) -> u64 {
    let e = tel.export();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in e
        .metrics_json
        .as_bytes()
        .iter()
        .chain(e.chrome_trace_json.as_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Telemetry export digest of the kill-and-drops run (seed 11, six
/// functions). It retries and completes requests, paths no golden file
/// covers: any change to what they record changes the digest.
const PINNED_KILL_AND_DROPS: u64 = 0x2335_0899_edc5_e42d;

#[test]
fn kill_and_drops_recover_and_replay_identically() {
    // Server A dies 1 s in (mid-kernel of the first function) and its link
    // eats one early RPC round trip outright.
    let plan = FaultPlan::new(11).kill_server(0, t(1.0)).drop_message(6);
    let (results, records, dropped, tel) = chaos_run(11, 6, Some(plan.clone()));

    // Termination: every launched function produced an outcome.
    assert_eq!(results.len(), 6, "no invocation may hang or get lost");
    // Recovery: attempts stay within the budget, and the kill forced at
    // least one function through a retry.
    for (launched, finished, attempts, _failure, _inv) in &results {
        assert!(*attempts >= 1 && *attempts <= 3);
        assert!(finished > launched);
    }
    assert!(
        results.iter().any(|(_, _, attempts, _, _)| *attempts > 1),
        "the dead server must force retries"
    );
    // Detection: the monitor recorded failed invocations on the dead server.
    let failed: usize = records
        .iter()
        .flatten()
        .filter(|r| r.failed_at.is_some())
        .count();
    assert!(
        failed >= 1,
        "the kill must surface as failed invocation records"
    );
    assert!(
        dropped >= 1,
        "the indexed drop must claim at least one transfer"
    );
    // Accounting: a record never carries both outcomes.
    for r in records.iter().flatten() {
        assert!(
            !(r.done_at.is_some() && r.failed_at.is_some()),
            "done and failed are mutually exclusive"
        );
    }

    // Determinism: replaying the same seed gives byte-identical outcomes,
    // byte-identical server-side timelines, and byte-identical telemetry
    // exports — chaos and all.
    let (results2, records2, dropped2, tel2) = chaos_run(11, 6, Some(plan));
    assert_eq!(results, results2, "chaos outcomes must replay exactly");
    assert_eq!(dropped, dropped2);
    let keys = |rs: &Vec<Vec<InvocationRecord>>| -> Vec<_> {
        rs.iter().flatten().map(record_key).collect::<Vec<_>>()
    };
    assert_eq!(
        keys(&records),
        keys(&records2),
        "record timelines must replay exactly"
    );
    assert_eq!(
        tel.export(),
        tel2.export(),
        "telemetry exports must replay byte-for-byte under chaos"
    );
    assert!(
        results
            .iter()
            .all(|(_, _, _, failure, _)| failure.is_none()),
        "every request completes, some only after a retry"
    );
    assert_eq!(
        export_digest(&tel),
        PINNED_KILL_AND_DROPS,
        "the kill-and-drops telemetry export moved"
    );
}

#[test]
fn chaos_counters_match_invocation_records_exactly() {
    // The telemetry counters are exact, not approximate: they must agree
    // with the ground truth the backend and servers already report.
    let plan = FaultPlan::new(11).kill_server(0, t(1.0)).drop_message(6);
    let (results, records, dropped, tel) = chaos_run(11, 6, Some(plan));

    let total_attempts: u64 = results.iter().map(|(_, _, a, _, _)| u64::from(*a)).sum();
    let failed_functions = results
        .iter()
        .filter(|(_, _, _, failure, _)| failure.is_some())
        .count() as u64;
    let failed_records = records
        .iter()
        .flatten()
        .filter(|r| r.failed_at.is_some())
        .count() as u64;

    assert_eq!(tel.counter("backend.invocations"), 6);
    assert_eq!(
        tel.counter("backend.attempts"),
        total_attempts,
        "attempt counter must equal the sum of per-function attempts"
    );
    assert_eq!(
        tel.counter("backend.retries"),
        total_attempts - 6,
        "every attempt beyond the first is exactly one retry"
    );
    assert_eq!(tel.counter("backend.failures"), failed_functions);
    assert_eq!(
        tel.counter("invocation.failures"),
        failed_records,
        "failure counter must match records with failed_at set"
    );
    assert_eq!(
        tel.counter("net.dropped"),
        dropped,
        "drop counter must match the faulted link's own accounting"
    );
    assert!(
        tel.counter("rpc.transport_errors") >= 1,
        "the kill+drop plan must surface transport errors"
    );
    // Every retry left an instant event, one per counted retry.
    let retry_events = tel.instants().iter().filter(|e| e.name == "retry").count() as u64;
    assert_eq!(retry_events, tel.counter("backend.retries"));
}

#[test]
fn empty_fault_plan_is_invisible() {
    // A plan that injects nothing must leave the run bit-identical to one
    // provisioned with no plan at all (the no-chaos baseline) — including
    // the telemetry exports, byte for byte.
    let (base_results, base_records, _, base_tel) = chaos_run(17, 4, None);
    let (results, records, dropped, tel) = chaos_run(17, 4, Some(FaultPlan::new(17)));
    assert_eq!(dropped, 0);
    assert_eq!(
        results, base_results,
        "an empty plan must not perturb outcomes"
    );
    let keys = |rs: &Vec<Vec<InvocationRecord>>| -> Vec<_> {
        rs.iter().flatten().map(record_key).collect::<Vec<_>>()
    };
    assert_eq!(keys(&records), keys(&base_records));
    for (_, _, attempts, failure, _) in &results {
        assert_eq!(*attempts, 1);
        assert!(
            failure.is_none(),
            "nothing may fail without injected faults"
        );
    }
    let base_export = base_tel.export();
    let export = tel.export();
    assert_eq!(
        export.metrics_json, base_export.metrics_json,
        "empty plan must leave metrics byte-identical to no plan"
    );
    assert_eq!(
        export.chrome_trace_json, base_export.chrome_trace_json,
        "empty plan must leave the trace byte-identical to no plan"
    );
    assert_eq!(tel.counter("backend.retries"), 0);
    assert_eq!(tel.counter("invocation.failures"), 0);
    assert_eq!(tel.counter("rpc.transport_errors"), 0);
}

#[test]
fn blackhole_window_terminates_every_invocation() {
    // The faulted link goes completely dark for a second and additionally
    // drops 5% of transfers at random; everything must still terminate.
    let plan = FaultPlan::new(3)
        .blackhole(t(0.5), t(1.5))
        .drop_probability(0.05);
    let (results, _records, dropped, _tel) = chaos_run(3, 5, Some(plan));
    assert_eq!(
        results.len(),
        5,
        "blackholed invocations must time out, not hang"
    );
    assert!(
        dropped >= 1,
        "the blackhole must claim at least one transfer"
    );
    for (launched, finished, attempts, _failure, _inv) in &results {
        assert!(*attempts <= 3);
        assert!(finished > launched);
    }
}

/// Record of the first invocation on a one-GPU server whose API server 0
/// the fault plan kills at `kill_at`, while one 5 s kernel launched and
/// assigned at t = 0 runs there.
fn killed_lease_record(kill_at: SimTime) -> InvocationRecord {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let slot: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let s2 = Rc::clone(&slot);
    let h2 = h.clone();
    sim.spawn("lease-root", move |p| {
        let plan = FaultPlan::new(1).kill_server(0, kill_at);
        let cfg = GpuServerConfig::paper_default().gpus(1).with_faults(plan);
        let server = GpuServer::provision(p, &h2, cfg);
        *s2.borrow_in(p) = Some(Arc::clone(&server));
        let backend = Backend::new(&h2, vec![server], FleetPolicy::RoundRobin);
        let store = ObjectStore::new(NetProfile::datacenter().s3_bw);
        let spin = Spin {
            gpu_secs: 5.0,
            ..Spin::default()
        };
        backend.invoke(p, &store, &spin, OptConfig::full());
    });
    sim.run();
    let server = slot.lock().clone().expect("provisioned");
    server.records()[0].clone()
}

#[test]
fn a_killed_servers_lease_lapses_one_timeout_after_its_last_beat() {
    // Beats fall every 200 ms from the assignment, and a beat due at the
    // kill instant is not sent. The 200 ms monitor tick fails the
    // invocation at the first tick more than 1 s after the last beat.
    let ns = |n: u64| SimTime::ZERO + Dur(n);
    for (kill_at, failed_at) in [
        (ns(0), t(1.2)),
        (ns(1), t(1.2)),
        (ns(599_999_999), t(1.6)),
        (ns(600_000_000), t(1.6)),
        (ns(600_000_001), t(1.8)),
        (t(2.0), t(3.0)),
    ] {
        let rec = killed_lease_record(kill_at);
        assert_eq!(rec.assigned_at, Some(SimTime::ZERO), "kill at {kill_at:?}");
        assert_eq!(rec.failed_at, Some(failed_at), "kill at {kill_at:?}");
        assert_eq!(rec.done_at, None, "kill at {kill_at:?}");
    }
}

#[test]
fn a_planned_kill_of_an_autoscaled_server_fails_over_through_its_lease() {
    // One GPU, one provisioned server (id 0) and room for one more: the
    // autoscaler starts server 1 once the second of two 2 s functions has
    // queued past the 500 ms target for two ticks. The plan kills server 1
    // while that function runs there.
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let slot: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let results = Rc::new(SimCell::new(&h, Vec::new()));
    let (s2, r2, h2) = (Rc::clone(&slot), Rc::clone(&results), h.clone());
    sim.spawn("autoscaled-kill-root", move |p| {
        let plan = FaultPlan::new(1).kill_server(1, t(1.5));
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_autoscale(AutoscaleConfig::new(1, 2))
            .with_faults(plan);
        let server = GpuServer::provision(p, &h2, cfg);
        let backend = Rc::new(Backend::new(
            &h2,
            vec![Arc::clone(&server)],
            FleetPolicy::RoundRobin,
        ));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..2 {
            let (backend, store, out) = (Rc::clone(&backend), Arc::clone(&store), Rc::clone(&r2));
            h2.spawn(&format!("fn-{i}"), move |p| {
                let spin = Spin {
                    gpu_secs: 2.0,
                    ..Spin::default()
                };
                let r = backend.invoke(p, &store, &spin, OptConfig::full());
                out.lock().push((r.attempts, r.failure.clone()));
            });
        }
        *s2.borrow_in(p) = Some(server);
    });
    // Terminates: the lapsed server keeps no tick armed.
    sim.run();
    let server = slot.lock().clone().expect("provisioned");
    let records = server.records();
    let ms = |m: u64| SimTime::ZERO + Dur::from_millis(m);
    let on_1: Vec<&InvocationRecord> = records.iter().filter(|r| r.server == Some(1)).collect();
    assert_eq!(on_1.len(), 1, "{records:#?}");
    let killed = on_1[0];
    // Scaled up at the 800 ms tick; killed at 1.5 s, after its 1.4 s beat;
    // failed over at the first tick more than 1 s after that beat.
    assert_eq!(killed.assigned_at, Some(ms(800)));
    assert_eq!(killed.failed_at, Some(ms(2600)), "{killed:?}");
    assert_eq!(killed.done_at, None);
    // Both functions completed, the killed one on its second attempt.
    let mut outcomes = results.lock().clone();
    outcomes.sort();
    assert_eq!(outcomes, vec![(1, None), (2, None)]);
    // The lapsed server counts toward neither the floor nor the servers
    // above it: one live server stays and every extra one was retired.
    let g = server.gauges();
    assert_eq!(g.failed_api_servers, 1);
    assert_eq!(g.live_api_servers(), 1);
}

#[test]
fn a_backend_retry_records_its_attempt_number_under_one_trace() {
    // Round robin sends the first attempt to server A, whose link drops one
    // early message: that RPC times out and the retry runs on server B.
    let mut sim = Sim::new(3);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let (o2, h2) = (Rc::clone(&out), h.clone());
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2));
        let a_cfg = cfg.clone().with_faults(FaultPlan::new(3).drop_message(2));
        let a = GpuServer::provision(p, &h2, a_cfg);
        let b = GpuServer::provision(p, &h2, cfg);
        let backend = Backend::new(
            &h2,
            vec![Arc::clone(&a), Arc::clone(&b)],
            FleetPolicy::RoundRobin,
        );
        let store = ObjectStore::new(NetProfile::datacenter().s3_bw);
        let r = backend.invoke(p, &store, &Spin::default(), OptConfig::full());
        *o2.borrow_in(p) = Some((r, a, b));
    });
    sim.run();
    let (r, a, b) = out.lock().take().expect("the function returned");
    let (a, b) = (a.records(), b.records());

    assert!(r.succeeded(), "the retry completes: {:?}", r.failure);
    assert_eq!(r.attempts, 2);
    let trace = r.trace.expect("a backend request is traced");
    assert_eq!(a.len(), 1);
    assert_eq!((a[0].attempts, a[0].trace), (1, Some(trace)));
    assert!(a[0].failed_at.is_some(), "the first attempt failed on A");
    assert_eq!(b.len(), 1);
    assert_eq!((b[0].attempts, b[0].trace), (2, Some(trace)));
    assert!(b[0].done_at.is_some(), "the retry completed on B");
    assert_eq!(r.invocation, Some(b[0].invocation));
    let chrome = tel.export().chrome_trace_json;
    for span in ["\"req:spin\"", "\"invoke:spin:a1\"", "\"invoke:spin:a2\""] {
        assert!(chrome.contains(span), "{span} recorded");
    }
}
