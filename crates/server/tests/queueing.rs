//! Monitor queue-discipline tests: strict FCFS vs SmallestFirst ordering,
//! tie-breaking, queue-timeout abandonment, and the MQFQ fairness
//! battery — proptests over the pure per-tenant virtual-time queue
//! (no starvation, work conservation, bounded normalized-service lag, and
//! the dispatch decision against sort-then-first-fit) plus the externally
//! observable MQFQ serving order.
//!
//! These run through the public `GpuServer` surface (a real provisioned
//! server, real API servers) rather than poking the monitor directly, so
//! they pin the externally observable serving order.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CudaApi, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf_gpu::GB;
use dgsf_remoting::{OptConfig, RemoteCuda};
use dgsf_server::fairqueue::{ASSUMED_SERVICE_NS, VTIME_SCALE};
use dgsf_server::{AcquireError, GpuServer, GpuServerConfig, MqfqQueues, QueuePolicy};
use dgsf_sim::{Dur, ProcCtx, Sim, SimCell, SimTime, TraceCtx};
use proptest::prelude::*;

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(ModuleRegistry::new().with(KernelDef::timed("work")))
}

/// Acquire a GPU under `name`, hold it for `secs` of kernel time, release.
fn hold_gpu(p: &ProcCtx, srv: &GpuServer, name: &str, mem: u64, secs: f64) {
    let (client, _inv) = srv.request_gpu(p, name, mem, registry());
    let mut api = RemoteCuda::new(client, OptConfig::full());
    api.runtime_init(p).unwrap();
    api.register_module(p, registry()).unwrap();
    api.launch_kernel(
        p,
        "work",
        LaunchConfig::linear(1 << 20, 256),
        KernelArgs::timed(secs, 0),
    )
    .unwrap();
    api.device_synchronize(p).unwrap();
    api.finish(p).unwrap();
}

/// Run the canonical contention scenario — one holder plus three queued
/// functions of decreasing memory footprint — and return the names in the
/// order the monitor assigned them a GPU.
fn serve_order(policy: QueuePolicy) -> Vec<String> {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_policy(policy),
        );
        // fn-hold occupies the only API server; big/mid/small arrive while
        // it runs and must queue.
        let arrivals: [(&str, u64, f64); 4] = [
            ("hold", GB, 1.0),
            ("big", 8 * GB, 0.2),
            ("mid", 4 * GB, 0.2),
            ("small", 2 * GB, 0.2),
        ];
        for (i, (name, mem, secs)) in arrivals.into_iter().enumerate() {
            let srv = Arc::clone(&srv);
            h2.spawn_at(
                name,
                SimTime::ZERO + Dur::from_millis(100 * i as u64),
                move |p| hold_gpu(p, &srv, name, mem, secs),
            );
        }
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            let mut recs = srv.records();
            recs.sort_by_key(|r| r.assigned_at.expect("all four got served"));
            *o3.lock() = recs.into_iter().map(|r| r.name).collect();
        });
    });
    sim.run();
    let v = out.lock().clone();
    v
}

#[test]
fn fcfs_serves_in_strict_arrival_order() {
    assert_eq!(
        serve_order(QueuePolicy::Fcfs),
        ["hold", "big", "mid", "small"]
    );
}

#[test]
fn smallest_first_serves_by_footprint() {
    assert_eq!(
        serve_order(QueuePolicy::SmallestFirst),
        ["hold", "small", "mid", "big"]
    );
}

#[test]
fn smallest_first_breaks_ties_by_arrival() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_policy(QueuePolicy::SmallestFirst),
        );
        for (i, name) in ["hold", "first", "second", "third"].into_iter().enumerate() {
            let srv = Arc::clone(&srv);
            let secs = if i == 0 { 1.0 } else { 0.2 };
            h2.spawn_at(
                name,
                SimTime::ZERO + Dur::from_millis(100 * i as u64),
                move |p| hold_gpu(p, &srv, name, GB, secs),
            );
        }
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            let mut recs = srv.records();
            recs.sort_by_key(|r| r.assigned_at.expect("all got served"));
            *o3.lock() = recs.into_iter().map(|r| r.name).collect();
        });
    });
    sim.run();
    assert_eq!(*out.lock(), ["hold", "first", "second", "third"]);
}

#[test]
fn queue_timeout_abandons_the_request_and_records_the_failure() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_timeout(Dur::from_secs(1)),
        );
        let s2 = Arc::clone(&srv);
        h2.spawn("hold", move |p| hold_gpu(p, &s2, "hold", GB, 3.0));
        let s3 = Arc::clone(&srv);
        let o3 = Rc::clone(&o2);
        h2.spawn_at("starved", SimTime::ZERO + Dur::from_millis(100), move |p| {
            let requested = p.now();
            let err = match s3.try_request_gpu(p, "starved", GB, registry()) {
                Err(e) => e,
                Ok(_) => panic!("the GPU is held for 3 s, past the 1 s queue timeout"),
            };
            let waited = p.now().since(requested);
            let rec = s3
                .records()
                .into_iter()
                .find(|r| r.name == "starved")
                .expect("the abandoned request still left a record");
            *o3.lock() = Some((err, waited, rec));
        });
    });
    sim.run();
    let (err, waited, rec) = out.lock().take().expect("starved ran");
    assert!(matches!(err, AcquireError::Timeout { .. }));
    assert_eq!(waited, Dur::from_secs(1), "gives up exactly at the timeout");
    assert!(
        rec.failed_at.is_some(),
        "abandonment is recorded as a failure"
    );
    assert!(rec.assigned_at.is_none() && rec.done_at.is_none());
}

/// Regression for the cancelled-head-of-line stall. A 64 GB request can
/// never fit a 16 GB V100, so it queues until its timeout cancels it; a
/// small live request queued behind it under FCFS must then be served from
/// the warm server that was free all along. Before the fix, the cancelled
/// corpse was only purged on *message* arrival (never mid-tick), and the
/// tick drained the queue only after a lease expiry — so the small request
/// starved against a free server until its own timeout killed it.
fn cancelled_unplaceable_head_cannot_stall(policy: QueuePolicy) {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_policy(policy)
                .with_queue_timeout(Dur::from_secs(1)),
        );
        // 64 GB never fits a 16 GB V100: this request can only queue until
        // its 1 s timeout cancels it (at t = 1 s).
        let s2 = Arc::clone(&srv);
        h2.spawn("giant", move |p| {
            let err = match s2.try_request_gpu(p, "giant", 64 * GB, registry()) {
                Err(e) => e,
                Ok(_) => panic!("64 GB can never be placed"),
            };
            assert!(matches!(err, AcquireError::Timeout { .. }));
        });
        // Queued behind the giant at t = 0.5 s (FCFS head-of-line). Its own
        // timeout budget runs to t = 1.5 s — the giant cancels at 1 s, so a
        // correct monitor has half a second to notice and place it.
        let s3 = Arc::clone(&srv);
        h2.spawn_at("small", SimTime::ZERO + Dur::from_millis(500), move |p| {
            hold_gpu(p, &s3, "small", GB, 0.2);
        });
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            *o3.lock() = srv.records();
        });
    });
    sim.run();
    let recs = out.lock().clone();
    let by_name = |n: &str| recs.iter().find(|r| r.name == n).unwrap().clone();
    let giant = by_name("giant");
    assert!(giant.failed_at.is_some() && giant.assigned_at.is_none());
    let small = by_name("small");
    assert!(
        small.done_at.is_some(),
        "the free server must serve the live request once the cancelled \
         unplaceable head is purged"
    );
}

#[test]
fn cancelled_unplaceable_head_cannot_stall_fcfs() {
    // Genuinely fails before the fix: FCFS refuses to look past its head.
    cancelled_unplaceable_head_cannot_stall(QueuePolicy::Fcfs);
}

#[test]
fn cancelled_unplaceable_head_cannot_stall_smallest_first() {
    // SmallestFirst would place `small` anyway (placement is monotone in
    // size), but the cancelled giant must still be purged, not resurrected.
    cancelled_unplaceable_head_cannot_stall(QueuePolicy::SmallestFirst);
}

#[test]
fn abandoned_request_never_occupies_a_server() {
    // After "starved" gives up, the GPU freed by "hold" must go to a later
    // arrival, not to the cancelled request.
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_timeout(Dur::from_secs(1)),
        );
        let s2 = Arc::clone(&srv);
        h2.spawn("hold", move |p| hold_gpu(p, &s2, "hold", GB, 2.0));
        let s3 = Arc::clone(&srv);
        h2.spawn_at("starved", SimTime::ZERO + Dur::from_millis(100), move |p| {
            let _ = s3.try_request_gpu(p, "starved", GB, registry());
        });
        // Arrives just before the GPU frees (~2.3 s), well inside its own
        // 1 s queue-timeout budget.
        let s4 = Arc::clone(&srv);
        h2.spawn_at("late", SimTime::ZERO + Dur::from_secs(2), move |p| {
            hold_gpu(p, &s4, "late", GB, 0.2);
        });
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            *o3.lock() = srv.records();
        });
    });
    sim.run();
    let recs = out.lock().clone();
    let by_name = |n: &str| recs.iter().find(|r| r.name == n).unwrap().clone();
    assert!(by_name("hold").done_at.is_some());
    assert!(
        by_name("late").done_at.is_some(),
        "the freed GPU serves the live request"
    );
    let starved = by_name("starved");
    assert!(starved.failed_at.is_some() && starved.assigned_at.is_none());
}

// ---------------------------------------------------------------------------
// MQFQ fairness battery — proptests over the pure virtual-time queue.
//
// The model mirrors the monitor's serial dispatch loop on a single slot:
// decide on the lowest-virtual-time backlogged tenant, take its head, run
// it, charge its actual service. Items carry their tenant index so the
// tests can attribute every dispatch.
// ---------------------------------------------------------------------------

/// Build an equal-arity queue: `tenants` tenants `t{i}`, every one
/// backlogged with `depth` items (each item = its tenant's index).
fn backlogged_queues(tenants: usize, depth: usize) -> MqfqQueues<usize> {
    let mut q = MqfqQueues::default();
    for i in 0..tenants {
        for _ in 0..depth {
            q.push(&format!("t{i}"), i);
        }
    }
    q
}

/// Decide on the heads that place (every one, here) and take the choice,
/// as the monitor's drain loop does.
fn dispatch(q: &mut MqfqQueues<usize>) -> Option<usize> {
    let (pick, ()) = q.decide(|_| 0, |_| Some(()))?;
    Some(q.take(pick))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No starvation: with every tenant backlogged, each one is dispatched
    /// at least once well before the round count exceeds the tenant count,
    /// whatever the per-dispatch costs.
    #[test]
    fn mqfq_never_starves_a_backlogged_tenant(
        tenants in 2usize..6,
        costs in proptest::collection::vec(1u64..10_000_001, 64),
    ) {
        let mut q = backlogged_queues(tenants, costs.len());
        let mut served = vec![0u64; tenants];
        for &c in &costs {
            let tenant = dispatch(&mut q).expect("backlogged");
            served[tenant] += 1;
            q.charge(&format!("t{tenant}"), c);
        }
        for (i, &n) in served.iter().enumerate() {
            prop_assert!(n >= 1, "tenant t{i} starved over {} dispatches", costs.len());
        }
    }

    /// Work conservation: as long as *anything* is queued, a dispatch that
    /// fits everything must produce an item — the fair queue never idles a
    /// free slot to preserve inter-tenant order.
    #[test]
    fn mqfq_dispatch_is_work_conserving(
        ops in proptest::collection::vec((0usize..5, any::<bool>()), 1..200),
    ) {
        let mut q = MqfqQueues::default();
        for (tenant, is_push) in ops {
            if is_push {
                let before = q.len();
                q.push(&format!("t{tenant}"), tenant);
                prop_assert_eq!(q.len(), before + 1);
            } else {
                let backlogged = !q.is_empty();
                let popped = dispatch(&mut q);
                prop_assert_eq!(
                    popped.is_some(),
                    backlogged,
                    "pop must succeed exactly when the queue is non-empty"
                );
                if let Some(t) = popped {
                    q.charge(&format!("t{t}"), 1);
                }
            }
        }
    }

    /// Bounded lag: under serial dispatch+charge with every tenant
    /// backlogged, each tenant's normalized service stays within
    /// `2 · VTIME_SCALE · max_cost` of every other's — the
    /// start-time-fair-queueing guarantee that nobody drifts arbitrarily
    /// far from its equal share.
    #[test]
    fn mqfq_normalized_service_lag_is_bounded(
        tenants in 2usize..6,
        costs in proptest::collection::vec(1u64..10_000_001, 32..129),
    ) {
        let mut q = backlogged_queues(tenants, costs.len());
        for &c in &costs {
            let tenant = dispatch(&mut q).expect("backlogged");
            q.charge(&format!("t{tenant}"), c);
        }
        let normalized: Vec<u128> = (0..tenants)
            .map(|i| q.service_of(&format!("t{i}")) as u128 * VTIME_SCALE)
            .collect();
        let max = *normalized.iter().max().unwrap();
        let min = *normalized.iter().min().unwrap();
        let max_cost = *costs.iter().max().unwrap() as u128;
        let bound = 2 * VTIME_SCALE * max_cost;
        prop_assert!(
            max - min <= bound,
            "normalized service spread {} exceeds the SFQ bound {}",
            max - min,
            bound
        );
    }
}

/// An item of the decision proptest: its tenant's index and a sequence
/// number unique across the run.
type Item = (usize, u64);

/// The dispatch decision by its definition: sort the backlogged flows'
/// candidates (each flow's first item of least `rank`) by effective key —
/// virtual time plus the provisional charge of the `inflight` functions
/// — then tenant name, and take the first that `fits`.
fn first_fit_in_key_order(
    q: &MqfqQueues<Item>,
    inflight: &[u64],
    rank: impl Fn(&Item) -> u64,
    fits: impl Fn(&Item) -> bool,
) -> Option<Item> {
    let mut heads: Vec<(u128, String, Item)> = Vec::new();
    for (t, &n) in inflight.iter().enumerate() {
        let name = format!("t{t}");
        let Some(&head) = q.iter().filter(|it| it.0 == t).min_by_key(|it| rank(it)) else {
            continue;
        };
        let hold = n as u128 * ASSUMED_SERVICE_NS as u128 * VTIME_SCALE;
        heads.push((q.vtime_of(&name).expect("pushed") + hold, name, head));
    }
    heads.sort();
    heads.into_iter().map(|h| h.2).find(|it| fits(it))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dispatch decision (no sort) equals sort-then-first-fit after
    /// any mix of pushes, charges and dispatches: random tenant counts,
    /// service charges, in-flight holds and fit masks, with each flow
    /// offering its head or (`ranked`) its first item of least rank.
    #[test]
    fn mqfq_decision_is_the_first_fit_in_key_order(
        tenants in 1usize..6,
        ops in proptest::collection::vec((0usize..6, 0u8..3, 1u64..300_000_001, any::<u64>()), 1..160),
        ranked in any::<bool>(),
    ) {
        let mut q = MqfqQueues::default();
        let mut inflight = vec![0u64; tenants];
        let rank = |it: &Item| if ranked { it.1 * 7919 % 5 } else { 0 };
        for (seq, (t, op, cost, mask)) in ops.into_iter().enumerate() {
            let t = t % tenants;
            match op {
                0 => q.push(&format!("t{t}"), (t, seq as u64)),
                1 => {
                    q.charge(&format!("t{t}"), cost);
                    inflight[t] = inflight[t].saturating_sub(1);
                }
                _ => {
                    let fits = |it: &Item| mask >> (it.1 % 64) & 1 == 1;
                    let want = first_fit_in_key_order(&q, &inflight, rank, fits);
                    let got = q.decide(rank, |it| fits(it).then_some(*it));
                    prop_assert_eq!(got.map(|(_, it)| it), want);
                    if let Some((pick, it)) = got {
                        prop_assert_eq!(q.take(pick), it);
                        inflight[it.0] += 1;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MQFQ end-to-end: the externally observable serving order through a real
// provisioned server, with tenants riding the causal trace context.
// ---------------------------------------------------------------------------

/// Acquire a GPU as `tenant`, hold it for `secs` of kernel time, release.
fn hold_gpu_as(p: &ProcCtx, srv: &GpuServer, tenant: &str, id: u64, name: &str, secs: f64) {
    let (client, _inv) = srv
        .try_request_gpu_with_timeout(
            p,
            name,
            GB,
            registry(),
            None,
            Some(TraceCtx::new(id, tenant)),
            None,
        )
        .expect("monitor alive for the run's duration");
    let mut api = RemoteCuda::new(client, OptConfig::full());
    api.runtime_init(p).unwrap();
    api.register_module(p, registry()).unwrap();
    api.launch_kernel(
        p,
        "work",
        LaunchConfig::linear(1 << 20, 256),
        KernelArgs::timed(secs, 0),
    )
    .unwrap();
    api.device_synchronize(p).unwrap();
    api.finish(p).unwrap();
}

/// One holder plus three queued requests from each of two tenants; returns
/// the names in monitor-assignment order.
fn tenant_serve_order(fair: bool) -> Vec<String> {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let mut cfg = GpuServerConfig::paper_default().gpus(1);
        if fair {
            cfg = cfg.with_queue_policy(QueuePolicy::Mqfq);
        }
        let srv = GpuServer::provision(p, &h2, cfg);
        let s0 = Arc::clone(&srv);
        h2.spawn("hold", move |p| hold_gpu(p, &s0, "hold", GB, 1.0));
        // All of alpha's requests land before any of beta's, so FCFS
        // drains alpha completely first while MQFQ alternates.
        let arrivals: [(&str, &str); 6] = [
            ("alpha", "a1"),
            ("alpha", "a2"),
            ("alpha", "a3"),
            ("beta", "b1"),
            ("beta", "b2"),
            ("beta", "b3"),
        ];
        for (i, (tenant, name)) in arrivals.into_iter().enumerate() {
            let srv = Arc::clone(&srv);
            h2.spawn_at(
                name,
                SimTime::ZERO + Dur::from_millis(100 + 10 * i as u64),
                move |p| hold_gpu_as(p, &srv, tenant, i as u64 + 1, name, 0.2),
            );
        }
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(20));
            let mut recs = srv.records();
            recs.sort_by_key(|r| r.assigned_at.expect("all seven got served"));
            *o3.lock() = recs.into_iter().map(|r| r.name).collect();
        });
    });
    sim.run();
    let v = out.lock().clone();
    v
}

#[test]
fn mqfq_alternates_equal_weight_tenants_where_fcfs_drains_in_arrival_order() {
    assert_eq!(
        tenant_serve_order(false),
        ["hold", "a1", "a2", "a3", "b1", "b2", "b3"],
        "FCFS serves strictly by arrival"
    );
    assert_eq!(
        tenant_serve_order(true),
        ["hold", "a1", "b1", "a2", "b2", "a3", "b3"],
        "equal-weight MQFQ alternates tenants regardless of arrival order"
    );
}

#[test]
fn mqfq_records_tenants_on_invocation_records() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_queue_policy(QueuePolicy::Mqfq),
        );
        let s2 = Arc::clone(&srv);
        h2.spawn("a", move |p| hold_gpu_as(p, &s2, "alpha", 1, "a", 0.1));
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            *o3.lock() = srv.records();
        });
    });
    sim.run();
    let recs = out.lock().clone();
    let a = recs.iter().find(|r| r.name == "a").expect("record exists");
    assert_eq!(&*a.tenant, "alpha", "the trace tenant lands on the record");
    assert!(a.done_at.is_some());
}

/// Regression for a tenant re-entering MQFQ behind its own timed-out
/// request. Tenant alpha runs a backlog of short functions on the only
/// server; tenant beta's only request (64 GB, unplaceable) waits at beta's
/// virtual time from t = 5 ms until its 0.5 s timeout. At that same instant
/// the timed-out process queues three normal beta requests. Beta was idle
/// the moment its request gave up, so the first new push re-enters it at
/// alpha's virtual time: with equal service per function and alpha winning
/// ties by name, the two alternate. Counting the dead request as backlog
/// skipped that clamp, and beta, still at its t = 5 ms virtual time, ran
/// its whole batch ahead of alpha.
#[test]
fn mqfq_tenant_reenters_at_the_active_virtual_time_after_its_request_times_out() {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(1)
            .with_queue_policy(QueuePolicy::Mqfq);
        let srv = GpuServer::provision(p, &h2, cfg);
        for i in 0..12u64 {
            let srv = Arc::clone(&srv);
            let name = format!("a{}", i + 1);
            h2.spawn_at(&name.clone(), SimTime::ZERO + Dur(i), move |p| {
                hold_gpu_as(p, &srv, "alpha", 100 + i, &name, 0.1)
            });
        }
        let s2 = Arc::clone(&srv);
        let h3 = h2.clone();
        h2.spawn_at("giant", SimTime::ZERO + Dur::from_millis(5), move |p| {
            let got = s2.try_request_gpu_with_timeout(
                p,
                "giant",
                64 * GB,
                registry(),
                Some(Dur::from_millis(500)),
                Some(TraceCtx::new(1, "beta")),
                None,
            );
            assert!(matches!(got, Err(AcquireError::Timeout { .. })));
            for i in 0..3u64 {
                let srv = Arc::clone(&s2);
                let name = format!("b{}", i + 1);
                h3.spawn(&name.clone(), move |p| {
                    hold_gpu_as(p, &srv, "beta", 2 + i, &name, 0.1)
                });
            }
        });
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(20));
            let mut recs: Vec<_> = srv.records().into_iter().filter(|r| !r.failed()).collect();
            recs.sort_by_key(|r| r.assigned_at.expect("every live request got served"));
            *o3.lock() = recs.into_iter().map(|r| r.name).collect();
        });
    });
    sim.run();
    let order = out.lock().clone();
    assert_eq!(
        order,
        [
            "a1", "a2", "a3", "a4", "a5", "a6", "b1", "a7", "b2", "a8", "b3", "a9", "a10", "a11",
            "a12"
        ],
        "beta re-enters at alpha's virtual time and alternates with it"
    );
}

/// A zero queue timeout: the requester gives up before the monitor runs,
/// so the monitor receives a request whose invocation has already failed.
/// It must never be assigned, and must not disturb the next request.
fn zero_queue_timeout_fails_the_request_and_serves_the_next(cfg: GpuServerConfig) {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(p, &h2, cfg.gpus(1).with_queue_timeout(Dur::ZERO));
        let s2 = Arc::clone(&srv);
        h2.spawn("doomed", move |p| {
            let got = s2.try_request_gpu(p, "doomed", GB, registry());
            assert!(
                matches!(got, Err(AcquireError::Timeout { waited }) if waited == Dur::ZERO),
                "an idle server cannot answer within zero time"
            );
        });
        let s3 = Arc::clone(&srv);
        h2.spawn_at("later", SimTime::ZERO + Dur::from_millis(100), move |p| {
            hold_gpu_as(p, &s3, "alpha", 1, "later", 0.1);
        });
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            *o3.lock() = Some(srv.records());
        });
    });
    sim.run();
    let recs = out.lock().take().expect("collector ran");
    let by_name = |n: &str| recs.iter().find(|r| r.name == n).unwrap().clone();
    let doomed = by_name("doomed");
    assert_eq!(doomed.failed_at, Some(SimTime::ZERO));
    assert!(doomed.assigned_at.is_none() && doomed.server.is_none());
    let later = by_name("later");
    assert_eq!(
        later.assigned_at,
        Some(SimTime::ZERO + Dur::from_millis(100))
    );
    assert!(later.done_at.is_some() && later.failed_at.is_none());
}

#[test]
fn zero_queue_timeout_fails_the_request_and_serves_the_next_fcfs() {
    zero_queue_timeout_fails_the_request_and_serves_the_next(GpuServerConfig::paper_default());
}

#[test]
fn zero_queue_timeout_fails_the_request_and_serves_the_next_mqfq() {
    zero_queue_timeout_fails_the_request_and_serves_the_next(
        GpuServerConfig::paper_default().with_queue_policy(QueuePolicy::Mqfq),
    );
}
