//! Integration tests for function DAGs over the GPU-resident handoff path.
//!
//! The contract under test: [`Invoker::invoke_dag`] in
//! [`HandoffMode::GpuResident`] pins successor stages to the API server
//! holding the published intermediate, never moves the intermediate bytes
//! over the link (so it beats the host-bounce baseline end to end), and —
//! fault-free or under chaos — every published buffer reaches exactly one
//! terminal state (adopted or reclaimed) with the resident store empty at
//! quiescence.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::GpuServer;
use dgsf::serverless::{DagWorkload, HandoffMode, ObjectStore};
use dgsf::sim::{SimCell, TraceOutcome};

const MB: u64 = 1 << 20;

fn t(secs: f64) -> SimTime {
    SimTime::ZERO + Dur::from_secs_f64(secs)
}

/// Comparable digest of one DAG outcome: (e2e ns, attempts, failure, shed,
/// per-stage server ids, trace id).
type DagKey = (u64, u32, Option<String>, bool, Vec<Option<u32>>, u64);

/// What one simulated run leaves behind for the assertions.
struct DagRunOut {
    /// Per-DAG digests in launch order.
    results: Vec<DagKey>,
    /// `check_resident_handoff` violations at quiescence.
    handoff_violations: Vec<String>,
    /// `check_memory_balance` violations at quiescence.
    memory_violations: Vec<String>,
    /// Resident-store audit-log length (0 in host-bounce mode).
    resident_events: usize,
}

/// Run `n` staggered copies of the three-stage vision pipeline in `mode`
/// through one two-API-server GPU server, optionally under a fault plan.
/// Oracles run once the run is over, when every DAG and every teardown
/// (EndFunction, idle retirements) has settled.
fn run_dags(
    seed: u64,
    mode: HandoffMode,
    n: usize,
    gpu_secs: [f64; 3],
    faults: Option<FaultPlan>,
    strict_memory: bool,
) -> DagRunOut {
    let mut sim = Sim::new(seed);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out: Rc<SimCell<Vec<(usize, DagKey)>>> = Rc::new(SimCell::new(&h, Vec::new()));
    let server_out: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let (o2, s2) = (Rc::clone(&out), Rc::clone(&server_out));
    let h2 = h.clone();
    sim.spawn("dag-root", move |p| {
        let mut cfg = GpuServerConfig::paper_default()
            .gpus(2)
            .with_rpc_timeout(Dur::from_secs(2))
            .with_queue_timeout(Dur::from_secs(10))
            .with_idle_timeout(Dur::from_secs(5));
        if let Some(plan) = faults {
            cfg = cfg.with_faults(plan);
        }
        let server = GpuServer::provision(p, &h2, cfg);
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..n {
            let server = Arc::clone(&server);
            let store = Arc::clone(&store);
            let out = Rc::clone(&o2);
            // Two tenants interleave so placement sees real contention.
            let tenant = if i % 2 == 0 { "acme" } else { "globex" };
            let dag = DagWorkload::pipeline3("vision", mode, 8 * MB, 128 * MB, MB, gpu_secs)
                .with_tenant(tenant);
            h2.spawn_at(&format!("dag-{i}"), t(0.5 * i as f64), move |p| {
                let inv = Invoker::new(&server, &store);
                let r = inv.invoke_dag(p, &dag, InvokeOptions::new(OptConfig::full()), 3);
                out.lock().push((
                    i,
                    (
                        r.e2e().as_nanos(),
                        r.attempts,
                        r.failure.clone(),
                        r.shed,
                        r.stages.iter().map(|s| s.server).collect(),
                        r.trace,
                    ),
                ));
            });
        }
        *s2.borrow_in(p) = Some(server);
    });
    sim.run();
    let mut results = out.lock().clone();
    results.sort_by_key(|(i, _)| *i);
    let server = server_out
        .lock()
        .take()
        .expect("the root provisioned the server");
    let violations = |rep: dgsf::sim::InvariantReport| -> Vec<String> {
        rep.violations.iter().map(|v| format!("{v:?}")).collect()
    };
    DagRunOut {
        results: results.into_iter().map(|(_, k)| k).collect(),
        handoff_violations: violations(dgsf::check_resident_handoff(&server)),
        memory_violations: violations(dgsf::check_memory_balance(&server, strict_memory)),
        resident_events: server.resident_events().len(),
    }
}

#[test]
fn resident_dags_pin_stages_and_beat_host_bounce() {
    let quick = [0.02, 0.2, 0.02];
    let bounce = run_dags(7, HandoffMode::HostBounce, 4, quick, None, true);
    let resident = run_dags(7, HandoffMode::GpuResident, 4, quick, None, true);

    for out in [&bounce, &resident] {
        assert_eq!(out.results.len(), 4, "every DAG reaches an outcome");
        for (_, attempts, failure, shed, servers, _) in &out.results {
            assert_eq!(*attempts, 1, "fault-free runs need no retries");
            assert!(failure.is_none() && !shed, "fault-free DAGs complete");
            assert_eq!(servers.len(), 3, "all three stages ran");
        }
        assert!(
            out.memory_violations.is_empty(),
            "strict memory balance at quiescence: {:?}",
            out.memory_violations
        );
        assert!(
            out.handoff_violations.is_empty(),
            "handoff oracle: {:?}",
            out.handoff_violations
        );
    }

    // Host bounce never touches the resident store; the resident arm logs
    // one publish + one adopt per interior edge (2 edges × 4 DAGs).
    assert_eq!(bounce.resident_events, 0);
    assert_eq!(resident.resident_events, 2 * 2 * 4);

    // Pinning: in resident mode every stage of a DAG runs on the server
    // holding its input buffer — one server id per DAG.
    for (_, _, _, _, servers, _) in &resident.results {
        let first = servers[0].expect("stage records its server");
        assert!(
            servers.iter().all(|s| *s == Some(first)),
            "resident stages must stay on the publishing server: {servers:?}"
        );
    }

    // The point of the whole exercise: skipping the double bounce of the
    // 128 MB intermediates makes every DAG faster end to end.
    for (i, ((b, ..), (r, ..))) in bounce.results.iter().zip(&resident.results).enumerate() {
        assert!(
            r < b,
            "DAG {i}: resident e2e {r} ns should beat host bounce {b} ns"
        );
    }
}

#[test]
fn dag_chaos_holds_handoff_exactly_once_and_replays() {
    // One API server dies mid-run; the link eats and delays messages.
    let plan = || {
        FaultPlan::new(23)
            .kill_server(0, t(1.5))
            .drop_probability(0.02)
            .delay_probability(0.05, Dur::from_millis(5))
    };
    let slow = [0.05, 0.5, 0.05];
    let run = || run_dags(23, HandoffMode::GpuResident, 6, slow, Some(plan()), false);
    let a = run();

    assert_eq!(a.results.len(), 6, "no DAG may hang or get lost");
    for (_, attempts, _, _, _, _) in &a.results {
        assert!(*attempts >= 1 && *attempts <= 3, "attempts stay bounded");
    }
    assert!(
        a.results
            .iter()
            .any(|(_, attempts, failure, ..)| *attempts > 1 || failure.is_some()),
        "the chaos plan must actually bite (a retry or a failure)"
    );
    assert!(
        a.results
            .iter()
            .any(|(_, _, failure, shed, _, _)| failure.is_none() && !shed),
        "the surviving server must complete some DAGs"
    );
    // The invariant this PR exists to keep: even with a killed server and a
    // lossy link, every published intermediate is adopted or reclaimed
    // exactly once and nothing stays parked.
    assert!(
        a.handoff_violations.is_empty(),
        "handoff exactly-once under chaos: {:?}",
        a.handoff_violations
    );
    // Killed servers leak session memory by design; non-strict still
    // catches under-accounting.
    assert!(
        a.memory_violations.is_empty(),
        "memory may leak under chaos but never under-account: {:?}",
        a.memory_violations
    );

    // Determinism: the whole chaotic timeline replays byte-for-byte.
    let b = run();
    assert_eq!(a.results, b.results, "same seed, same chaotic timeline");
    assert_eq!(a.resident_events, b.resident_events);
}

#[test]
fn a_dag_shed_on_queue_age_reports_the_overloaded_reason() {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("dag-root", move |p| {
        // One GPU with one API server: the second DAG's first stage queues
        // behind the first DAG's, longer than its queue-age bound.
        let server = GpuServer::provision(p, &h2, GpuServerConfig::paper_default().gpus(1));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let dag =
            || DagWorkload::pipeline3("vision", HandoffMode::HostBounce, MB, MB, MB, [1.0; 3]);
        let (s2, st2, busy) = (Arc::clone(&server), Arc::clone(&store), dag());
        h2.spawn("dag-busy", move |p| {
            let r = Invoker::new(&s2, &st2).invoke_dag(
                p,
                &busy,
                InvokeOptions::new(OptConfig::full()),
                1,
            );
            assert!(
                r.succeeded(),
                "the first DAG runs unhindered: {:?}",
                r.failure
            );
        });
        h2.spawn_at("dag-shed", t(0.1), move |p| {
            let opts = InvokeOptions::new(OptConfig::full())
                .with_max_queue_age(Some(Dur::from_millis(100)));
            let r = Invoker::new(&server, &store).invoke_dag(p, &dag(), opts, 3);
            *o2.borrow_in(p) = Some(r);
        });
    });
    sim.run();
    let r = out.lock().take().expect("the second DAG returned");
    assert!(r.shed);
    assert_eq!(r.outcome(), TraceOutcome::Shed);
    assert_eq!(r.attempts, 1, "a shed DAG is not retried");
    assert!(
        r.failure
            .as_deref()
            .is_some_and(|f| f.starts_with("overloaded:")),
        "a shed DAG's failure names the overload, as a shed function's does: {:?}",
        r.failure
    );
}

#[test]
fn a_retried_dag_records_its_second_attempt_under_one_trace() {
    // The link drops one message of the first attempt's first stage: that
    // RPC times out, a transient failure, and the whole DAG runs again.
    let mut sim = Sim::new(5);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let (o2, h2) = (Rc::clone(&out), h.clone());
    sim.spawn("dag-root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_rpc_timeout(Dur::from_secs(2))
            .with_faults(FaultPlan::new(5).drop_message(2));
        let server = GpuServer::provision(p, &h2, cfg);
        let store = ObjectStore::new(NetProfile::datacenter().s3_bw);
        let dag = DagWorkload::pipeline3("vision", HandoffMode::GpuResident, MB, MB, MB, [0.1; 3]);
        let opts = InvokeOptions::new(OptConfig::full());
        let r = Invoker::new(&server, &store).invoke_dag(p, &dag, opts, 3);
        *o2.borrow_in(p) = Some((r, server));
    });
    sim.run();
    let (r, server) = out.lock().take().expect("the DAG returned");
    // Read once the run is over: a server marks a record done only after
    // the client has its reply.
    let records = server.records();

    assert!(r.succeeded(), "the retry completes: {:?}", r.failure);
    assert_eq!(r.attempts, 2);
    assert_eq!(r.stages.len(), 3, "the second attempt's stages");
    for s in &r.stages {
        assert_eq!(s.trace, Some(r.trace), "{}: one trace per DAG", s.name);
        assert_eq!(s.attempts, 2, "{}", s.name);
        let rec = records
            .iter()
            .find(|x| Some(x.invocation) == s.invocation)
            .expect("each stage has a record");
        assert_eq!(rec.attempts, 2, "{}: the record's attempt", s.name);
        assert!(rec.done_at.is_some());
    }
    assert!(
        records.iter().all(|x| x.trace == Some(r.trace)),
        "every attempt's records carry the DAG's trace"
    );
    assert!(
        records
            .iter()
            .any(|x| x.attempts == 1 && x.failed_at.is_some()),
        "the first attempt's stage failed"
    );
    let chrome = tel.export().chrome_trace_json;
    assert!(chrome.contains("\"invoke:vision/preprocess:a1\""));
    for stage in ["preprocess", "infer", "postprocess"] {
        let span = format!("\"invoke:vision/{stage}:a2\"");
        assert!(chrome.contains(&span), "{span} recorded");
    }
}
