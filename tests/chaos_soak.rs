//! Chaos soak for fleet-wide live migration: many seeds, every fault
//! class at once — server kills, lossy RPC links, dropped/delayed
//! migration state transfers, and a kill wired to land mid-transfer —
//! with the exactly-once oracle run over every seed's full history.
//!
//! The promises under soak:
//! * every admitted invocation is executed exactly once or failed/shed
//!   exactly once — never lost, never double-run;
//! * the migration log and the telemetry stream agree instant-for-instant;
//! * the same seed replays the whole chaotic timeline byte-for-byte.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::gpu::GpuId;
use dgsf::prelude::*;
use dgsf::remoting::FaultPlan;
use dgsf::server::GpuServer;
use dgsf::serverless::{Backend, FleetPolicy, ObjectStore};
use dgsf::sim::SimCell;

const GB: u64 = 1 << 30;

/// A function of `chunks` short kernels with a sync after each — every
/// sync is an API boundary where a migration request can land.
fn chunked(chunks: usize) -> Spin {
    Spin {
        name: "chunked",
        gpu_secs: 0.25,
        chunks,
        mem: 2 * GB,
        ..Spin::default()
    }
}

fn t_ms(ms: u64) -> SimTime {
    SimTime::ZERO + Dur::from_millis(ms)
}

/// The full chaos menu for one seed: a timed API-server kill, a lossy
/// link, migration transfers that drop or stall, and the second server's
/// first migration killed on the wire.
fn soak_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .kill_server(0, t_ms(2_500))
        .drop_probability(0.02)
        .delay_probability(0.05, Dur::from_millis(5))
        .migration_drop_probability(0.35)
        .migration_delay_probability(0.2, Dur::from_millis(20))
        .kill_on_migration(1, 0)
}

/// Migration-enabled fleet under chaos: 2 members × 2 shared GPUs with
/// best-fit packing (the imbalance the monitor exists to fix), both
/// members running the same fault plan.
fn soak_cfg(seed: u64, faults: Option<FaultPlan>) -> PlatformConfig {
    let mut server = GpuServerConfig::paper_default()
        .gpus(2)
        .sharing(2)
        .with_policy(PlacementPolicy::BestFit)
        .with_migration(true)
        .with_migration_cooldown_ticks(4)
        .with_rpc_timeout(Dur::from_secs(2))
        .with_queue_timeout(Dur::from_secs(10))
        .with_idle_timeout(Dur::from_secs(5));
    if let Some(plan) = faults {
        server = server.with_faults(plan);
    }
    PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(server)
        .with_num_servers(2)
        .with_obs(ObsConfig::paper_default())
}

/// Two near-simultaneous pairs (best-fit strands each pair on one GPU)
/// plus a staggered tail that keeps the fleet busy while kills and
/// retries play out.
fn soak_schedule() -> Schedule {
    let mut entries: Vec<(SimTime, usize)> = (0..4).map(|i| (t_ms(200 + i), 0)).collect();
    entries.extend((0..4).map(|i| (t_ms(1_500 + 1_100 * i), 0)));
    entries.sort();
    Schedule { entries }
}

fn run_soak(seed: u64, faults: Option<FaultPlan>) -> (BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(chunked(10))];
    Testbed::run_platform_schedule_traced(&soak_cfg(seed, faults), &suite, &soak_schedule())
}

/// Comparable digest of everything a soak run produced.
fn digest(out: &BackendRunOutput) -> Vec<u64> {
    let mut d = Vec::new();
    for r in &out.results {
        d.push(r.launched_at.as_nanos());
        d.push(r.finished_at.as_nanos());
        d.push(u64::from(r.attempts));
        d.push(u64::from(r.failure.is_some()));
        d.push(r.invocation.unwrap_or(u64::MAX));
    }
    for recs in &out.records {
        for r in recs {
            d.push(r.invocation);
            d.push(r.requested_at.as_nanos());
            d.push(r.assigned_at.map(|x| x.as_nanos()).unwrap_or(u64::MAX));
            d.push(r.done_at.map(|x| x.as_nanos()).unwrap_or(u64::MAX));
            d.push(r.failed_at.map(|x| x.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    for migs in &out.migrations {
        for m in migs {
            d.push(u64::from(m.server));
            d.push(u64::from(m.from.0));
            d.push(u64::from(m.to.0));
            d.push(m.begun_at.as_nanos());
            d.push(m.at.as_nanos());
        }
    }
    d
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

/// Telemetry export digest per soak seed. These runs cover the backend's
/// failure paths (retries, final failures, recovered replies), which no
/// golden file does: any change to what a failed or retried request
/// records changes a digest.
const PINNED: [(u64, u64); 20] = [
    (0, 0x4268d492fd56372d),
    (1, 0xf68f8f3b09b230ca),
    (2, 0x748189b98129f0b2),
    (3, 0xcc288f84b3956c8b),
    (4, 0xa3af7ebadcd585c7),
    (5, 0x1c84a64bd898892b),
    (6, 0xc609523c56ebba1e),
    (7, 0x3c8675648da03c35),
    (8, 0x6323626e4f409099),
    (9, 0x3aef872901637151),
    (10, 0x8dae7bf10b3bb135),
    (11, 0xbacc8f9a3d6ee980),
    (12, 0x5d19f0962b961c91),
    (13, 0xcfabe76316e7147b),
    (14, 0x09fdcbd5fcc4accf),
    (15, 0xf7c774b6177b5452),
    (16, 0xcd40c6a6033aa751),
    (17, 0x0adaf18eab1343d3),
    (18, 0xedaa42437c8fb463),
    (19, 0xb24d9628eb423e22),
];

#[test]
fn chaos_soak_holds_exactly_once_across_twenty_seeds() {
    let mut digests = Vec::new();
    let (mut completed, mut failed) = (0usize, 0usize);
    let (mut retries, mut recovered) = (0u64, 0u64);
    let mut total_migrations = 0usize;
    let mut total_begins = 0u64;
    let mut total_aborts = 0u64;
    let mut seeds_with_failures = 0usize;
    for seed in 0..20u64 {
        let (out, tel) = run_soak(seed, Some(soak_plan(seed)));
        assert_eq!(
            out.results.len(),
            soak_schedule().entries.len(),
            "seed {seed}: every launch must produce an outcome"
        );
        // The exactly-once oracle over the complete run history.
        let report = dgsf::check_backend_run(&out);
        assert!(report.ok(), "seed {seed}: {:#?}", report.violations);
        // The counters, the instants and the obs plane report each
        // request's end exactly as the results do.
        dgsf::check_backend_counters(&out, &tel).assert_ok();
        dgsf::check_obs_reconciles(&out, &ObsConfig::paper_default()).assert_ok();
        // The migration log and the telemetry stream must agree. Begins
        // without a completion or an abort are only allowed for servers
        // the plan killed mid-flight (2 timed kills + 2 wired to the
        // transfer, across the two fleet members).
        let migrations = out.migrations.concat();
        dgsf::check_migration_telemetry(&migrations, &tel.instants(), 4).assert_ok();
        total_migrations += migrations.len();
        total_begins += tel.counter("migration.begins");
        total_aborts += tel.counter("migration.aborts");
        if out.results.iter().any(|r| r.failure.is_some()) {
            seeds_with_failures += 1;
        }
        completed += out.completed();
        failed += out.failed();
        retries += tel.counter("backend.retries");
        recovered += tel.counter("backend.recovered_replies");
        digests.push((seed, export_digest(&tel)));
    }
    assert_eq!(digests, PINNED, "telemetry exports moved");
    assert!(
        completed >= 1 && failed >= 1 && retries >= 1 && recovered >= 1,
        "the pinned runs must complete, fail, retry and recover requests \
         ({completed} completed, {failed} failed, {retries} retries, \
         {recovered} recovered replies)"
    );
    // The soak must actually exercise the machinery it certifies.
    assert!(
        total_migrations >= 5,
        "migrations must commit under chaos (got {total_migrations})"
    );
    assert!(
        total_aborts >= 1,
        "a 35% transfer-drop rate must abort some migrations"
    );
    assert!(
        total_begins >= total_migrations as u64 + total_aborts,
        "begins ({total_begins}) must account for commits ({total_migrations}) and aborts ({total_aborts})"
    );
    assert!(
        seeds_with_failures >= 1,
        "the kills must surface caller-visible failures somewhere in the soak"
    );
}

#[test]
fn chaos_soak_replays_byte_identically() {
    let (a, tel_a) = run_soak(7, Some(soak_plan(7)));
    let (b, tel_b) = run_soak(7, Some(soak_plan(7)));
    assert_eq!(digest(&a), digest(&b), "same seed must replay exactly");
    assert_eq!(
        tel_a.export(),
        tel_b.export(),
        "telemetry must replay byte-for-byte under chaos"
    );
}

/// Fault-free counterpart: with migration on and no chaos, the log and
/// telemetry match with zero slack, every migration's timing is an exact
/// integer span, and GPU memory accounting balances exactly once the
/// fleet is quiescent.
#[test]
fn migration_log_matches_telemetry_exactly_on_the_happy_path() {
    let mut sim = Sim::new(5);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let server_out: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let done = Rc::new(SimCell::new(&h, 0usize));
    let (s2, d2) = (Rc::clone(&server_out), Rc::clone(&done));
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(2)
            .sharing(2)
            .with_policy(PlacementPolicy::BestFit)
            .with_migration(true);
        let server = GpuServer::provision(p, &h2, cfg);
        let backend = Rc::new(Backend::new(
            &h2,
            vec![Arc::clone(&server)],
            FleetPolicy::RoundRobin,
        ));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        // A best-fit-stranded pair: both land on GPU 0, the monitor moves
        // one to the idle GPU 1.
        for i in 0..2 {
            let backend = Rc::clone(&backend);
            let store = Arc::clone(&store);
            let done = Rc::clone(&d2);
            h2.spawn_at(&format!("fn-{i}"), t_ms(i), move |p| {
                let r = backend.invoke(p, &store, &chunked(12), OptConfig::full());
                assert!(r.succeeded(), "happy path must complete: {:?}", r.failure);
                *done.borrow_in(p) += 1;
            });
        }
        *s2.borrow_in(p) = Some(server);
    });
    sim.run();
    let server = server_out
        .lock()
        .take()
        .expect("the root provisioned the server");
    assert_eq!(*done.lock(), 2, "both functions returned");
    // Quiescent: sessions released, monitor idle. Memory must balance
    // exactly (strict) — nothing leaks on the happy path.
    dgsf::check_memory_balance(&server, true).assert_ok();
    let migrations = server.migrations();
    assert!(
        !migrations.is_empty(),
        "the stranded pair must trigger at least one migration"
    );
    // Zero slack: every begin has its commit, instants match the log to
    // the nanosecond.
    dgsf::check_migration_telemetry(&migrations, &tel.instants(), 0).assert_ok();
    for m in &migrations {
        let span = m.at.since(m.begun_at);
        // The state transfer alone costs 60 µs of RPC latency plus
        // 8 MiB over a 1.25 GB/s NIC ≈ 6.7 ms; the device-side move adds
        // more. An exact integer span below that floor means the record
        // and the clock disagree.
        assert!(
            span >= Dur::from_micros(6_400),
            "migration span {span:?} is below the state-transfer floor"
        );
        assert_eq!(m.from, GpuId(0), "the pair was packed on GPU 0");
        assert_eq!(m.to, GpuId(1), "the idle GPU is the only target");
    }
}
