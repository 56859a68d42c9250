//! Characterization of the kernel's event order.
//!
//! A seeded scenario exercises every way an event enters the queue: zero
//! and non-zero sleeps, channel sends, `recv_timeout` races that end both
//! ways, processor-sharing jobs that arrive and leave while others are in
//! service, FIFO jobs, and processes spawned both at the current instant
//! and later. Every resume of every process is logged as
//! `(now, process name)` together with what the primitive returned, and
//! the run stops at several `run_until` deadlines, where
//! `events_executed()` is logged too. The FNV-1a digest of that log is
//! pinned per seed: any change to which event runs first, to how many
//! events run, or to the virtual time they run at changes a digest.
//!
//! Durations are multiples of 250 ns, so many events fall due at the same
//! instant and their order is decided by the schedule-order tie-break.
//!
//! A second scenario covers events scheduled far ahead: processes spawned
//! at t = 0 for times from 1 ns to hours, exact powers of two and
//! 2^k ± 1 ns, instants targeted from several schedule moments,
//! processor-sharing timers that end next to a power of two, hour-long
//! `recv_timeout`s that lose their race, and `run_until` deadlines between
//! events far apart, with the driver spawning between runs. Its digests
//! are pinned in a table of their own.

use std::rc::Rc;
use std::sync::{Arc, Mutex};

use dgsf_sim::{Dur, FifoResource, GpsResource, ProcCtx, RecvError, Sim, SimHandle, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the scenario must have exercised, counted per kind.
#[derive(Clone, Copy)]
enum Seen {
    ZeroSleep,
    Sleep,
    Send,
    RecvMessage,
    RecvTimeout,
    GpsAlone,
    GpsShared,
    FifoIdle,
    FifoQueued,
    SpawnNow,
    SpawnLater,
}

const KINDS: usize = 11;

/// FNV-1a over the log's records, plus coverage counts.
struct Log {
    hash: u64,
    records: u64,
    seen: [u64; KINDS],
}

impl Log {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn record(&mut self, now: SimTime, name: &str, what: u64) {
        self.bytes(&now.as_nanos().to_le_bytes());
        self.bytes(name.as_bytes());
        self.bytes(&what.to_le_bytes());
        self.records += 1;
    }
}

type SharedLog = Arc<Mutex<Log>>;

fn note(log: &SharedLog, ctx: &ProcCtx, what: u64) {
    log.lock().unwrap().record(ctx.now(), ctx.name(), what);
}

fn saw(log: &SharedLog, kind: Seen) {
    log.lock().unwrap().seen[kind as usize] += 1;
}

/// A quantised duration: `0..max` steps of 250 ns.
fn steps(ctx: &ProcCtx, max: u64) -> Dur {
    Dur(250 * ctx.with_rng(|r| r.gen_range(0..max)))
}

#[derive(Clone)]
struct World {
    log: SharedLog,
    gps: Rc<GpsResource>,
    fifo: Rc<FifoResource>,
    tx: dgsf_sim::SimSender<u64>,
    rx: dgsf_sim::SimReceiver<u64>,
    handle: SimHandle,
}

/// One process: `rounds` random steps, spawning children while `depth`
/// allows.
fn actor(w: World, rounds: u32, depth: u32) -> impl FnOnce(&ProcCtx) + 'static {
    move |ctx| {
        note(&w.log, ctx, 1);
        for round in 0..rounds {
            let action = ctx.with_rng(|r| r.gen_range(0..9u32));
            match action {
                0 => {
                    ctx.sleep(Dur::ZERO);
                    saw(&w.log, Seen::ZeroSleep);
                    note(&w.log, ctx, 10);
                }
                1 => {
                    let d = steps(ctx, 6);
                    ctx.sleep(d);
                    saw(
                        &w.log,
                        if d == Dur::ZERO {
                            Seen::ZeroSleep
                        } else {
                            Seen::Sleep
                        },
                    );
                    note(&w.log, ctx, 11);
                }
                2 => {
                    let v = u64::from(round) << 8 | u64::from(depth);
                    w.tx.send(ctx, v);
                    saw(&w.log, Seen::Send);
                    note(&w.log, ctx, 12);
                }
                3 | 4 => {
                    let timeout = steps(ctx, 8);
                    let what = match w.rx.recv_timeout(ctx, timeout) {
                        Ok(v) => {
                            saw(&w.log, Seen::RecvMessage);
                            100 + v
                        }
                        Err(RecvError::Timeout) => {
                            saw(&w.log, Seen::RecvTimeout);
                            13
                        }
                        Err(RecvError::Shutdown) => 14,
                    };
                    note(&w.log, ctx, what);
                }
                5 => {
                    // Up to 2 µs of exclusive use at capacity 1e6.
                    let work = ctx.with_rng(|r| r.gen_range(0.0..2.0));
                    let shared = w.gps.active_jobs() > 0;
                    saw(
                        &w.log,
                        if shared {
                            Seen::GpsShared
                        } else {
                            Seen::GpsAlone
                        },
                    );
                    w.gps.acquire(ctx, work);
                    note(&w.log, ctx, 15);
                }
                6 => {
                    let queued = w.fifo.queue_len() > 0;
                    saw(
                        &w.log,
                        if queued {
                            Seen::FifoQueued
                        } else {
                            Seen::FifoIdle
                        },
                    );
                    w.fifo.acquire_for(ctx, steps(ctx, 4) + Dur(250));
                    note(&w.log, ctx, 16);
                }
                7 if depth > 0 => {
                    let later = steps(ctx, 3);
                    let name = format!("{}.{round}", ctx.name());
                    let at = ctx.now() + later;
                    w.handle
                        .spawn_at(&name, at, actor(w.clone(), rounds / 2, depth - 1));
                    saw(
                        &w.log,
                        if later == Dur::ZERO {
                            Seen::SpawnNow
                        } else {
                            Seen::SpawnLater
                        },
                    );
                    note(&w.log, ctx, 17 + later.as_nanos());
                }
                _ => {
                    ctx.sleep(Dur(1));
                    saw(&w.log, Seen::Sleep);
                    note(&w.log, ctx, 18);
                }
            }
        }
        note(&w.log, ctx, 2);
    }
}

fn new_log() -> SharedLog {
    Arc::new(Mutex::new(Log {
        hash: 0xcbf2_9ce4_8422_2325,
        records: 0,
        seen: [0; KINDS],
    }))
}

/// Run the scenario for `seed`; returns the log's digest and length, and
/// how often each kind of step ran.
fn run(seed: u64) -> (u64, u64, [u64; KINDS]) {
    let log = new_log();
    let mut sim = Sim::new(seed);
    let (tx, rx) = sim.channel::<u64>();
    let w = World {
        log: log.clone(),
        gps: Rc::new(GpsResource::new(&sim, 1e6)),
        fifo: Rc::new(FifoResource::new(&sim)),
        tx,
        rx,
        handle: sim.handle(),
    };
    for i in 0..6u64 {
        sim.spawn(&format!("a{i}"), actor(w.clone(), 60, 2));
    }
    for i in 0..4u64 {
        let at = SimTime::ZERO + Dur(250 * (4 + 3 * i));
        sim.spawn_at(&format!("late{i}"), at, actor(w.clone(), 30, 1));
    }
    // A consumer that blocks without a timeout, until shutdown.
    {
        let w = w.clone();
        sim.spawn("drain", move |ctx| {
            while let Some(v) = w.rx.recv(ctx) {
                note(&w.log, ctx, 1000 + v);
                ctx.sleep(Dur(500));
            }
            note(&w.log, ctx, 3);
        });
    }
    drop(w);
    for deadline in [0, 1_000, 2_500, 2_501, 6_000, 15_000] {
        let end = sim.run_until(SimTime(deadline));
        let executed = sim.events_executed();
        let mut log = log.lock().unwrap();
        log.record(end, "deadline", executed);
    }
    let end = sim.run();
    let executed = sim.events_executed();
    log.lock().unwrap().record(end, "end", executed);
    drop(sim);
    let log = log.lock().unwrap();
    (log.hash, log.records, log.seen)
}

/// Digest and record count per seed, pinned before the event queue grew
/// its same-instant lane and resources switched to typed timers.
const PINNED: [(u64, u64, u64); 8] = [
    (1, 0x965452761b0983c8, 4660),
    (2, 0x23fa0bd28fef0e2c, 4462),
    (3, 0xa477be141c482d89, 5191),
    (7, 0xe94316a3c72da32e, 4474),
    (42, 0xbb87baa7776592f6, 4519),
    (1234, 0x9b9bb759a65530d1, 4932),
    (99_991, 0x916c83ec0e9d0438, 4862),
    (0xdead_beef, 0xa91455c13fe536ad, 5159),
];

#[test]
fn event_order_matches_the_pinned_digests() {
    let got: Vec<(u64, u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            let (hash, records, seen) = run(seed);
            assert!(
                seen.iter().all(|&n| n > 0),
                "seed {seed} misses a kind of step: {seen:?}"
            );
            (seed, hash, records)
        })
        .collect();
    assert_eq!(got, PINNED);
}

#[test]
fn the_scenario_is_deterministic_and_seed_sensitive() {
    assert_eq!(run(5).0, run(5).0);
    assert_ne!(run(5).0, run(6).0);
}

/// What the far-future scenario must have exercised, counted per kind.
#[derive(Clone, Copy)]
enum Far {
    PowerOfTwo,
    LongSleep,
    SharedInstant,
    RaceLost,
    RaceWon,
    GpsBoundary,
    SpawnShared,
}

const FAR_KINDS: usize = 7;

/// Three hours, in nanoseconds (just under 2^44).
const HOURS: u64 = 3 * 3600 * 1_000_000_000;

/// Instants that processes target from many schedule moments.
const SHARED: [u64; 4] = [1 << 20, (1 << 32) + 1, 5_000_000_000_000, (1 << 43) - 1];

/// A time from 1 ns to hours: an exact power of two, 2^k ± 1 ns, a shared
/// instant or a uniform draw.
fn far_time(r: &mut impl Rng) -> u64 {
    let k = r.gen_range(1..44u32);
    match r.gen_range(0..5u32) {
        0 => 1 << k,
        1 => (1 << k) + 1,
        2 => (1 << k) - 1,
        3 => SHARED[r.gen_range(0..SHARED.len())],
        _ => r.gen_range(1..HOURS),
    }
}

/// The next power of two after `now`, moved by -1, 0 or +1 ns.
fn near_power_of_two(ctx: &ProcCtx) -> u64 {
    let p = (ctx.now().as_nanos() + 2).next_power_of_two();
    p + ctx.with_rng(|r| r.gen_range(0..3u64)) - 1
}

#[derive(Clone)]
struct FarWorld {
    log: SharedLog,
    gps: Rc<GpsResource>,
    tx: dgsf_sim::SimSender<u64>,
    handle: SimHandle,
}

fn far_saw(log: &SharedLog, kind: Far) {
    log.lock().unwrap().seen[kind as usize] += 1;
}

/// One far-future process: `rounds` steps that each park until far ahead,
/// spawning a child at a shared instant while `depth` allows.
fn far_actor(w: FarWorld, rounds: u32, depth: u32) -> impl FnOnce(&ProcCtx) + 'static {
    move |ctx| {
        note(&w.log, ctx, 1);
        for round in 0..rounds {
            match ctx.with_rng(|r| r.gen_range(0..6u32)) {
                0 => {
                    ctx.sleep_until(SimTime(near_power_of_two(ctx)));
                    far_saw(&w.log, Far::PowerOfTwo);
                    note(&w.log, ctx, 20);
                }
                1 => {
                    let d = ctx.with_rng(far_time);
                    ctx.sleep(Dur(d));
                    far_saw(&w.log, Far::LongSleep);
                    note(&w.log, ctx, 21);
                }
                2 => {
                    let at = SHARED[ctx.with_rng(|r| r.gen_range(0..SHARED.len()))];
                    ctx.sleep_until(SimTime(at));
                    far_saw(&w.log, Far::SharedInstant);
                    note(&w.log, ctx, 22);
                }
                3 => {
                    // A sender for the listeners' hour-long timeouts.
                    w.tx.send(ctx, u64::from(round) << 8 | u64::from(depth));
                    note(&w.log, ctx, 23);
                }
                4 => {
                    // Alone at 1e9 units/s, one unit takes 1 ns: the
                    // completion timer lands next to a power of two, and
                    // moves whenever another job arrives or leaves.
                    let work = near_power_of_two(ctx) - ctx.now().as_nanos();
                    w.gps.acquire(ctx, work as f64);
                    far_saw(&w.log, Far::GpsBoundary);
                    note(&w.log, ctx, 24);
                }
                _ if depth > 0 => {
                    let at = SHARED[ctx.with_rng(|r| r.gen_range(0..SHARED.len()))];
                    let name = format!("{}.{round}", ctx.name());
                    w.handle.spawn_at(
                        &name,
                        SimTime(at),
                        far_actor(w.clone(), rounds / 2, depth - 1),
                    );
                    far_saw(&w.log, Far::SpawnShared);
                    note(&w.log, ctx, 25 + at);
                }
                _ => {
                    ctx.sleep(Dur(1));
                    note(&w.log, ctx, 26);
                }
            }
        }
        note(&w.log, ctx, 2);
    }
}

/// Run the far-future scenario for `seed`; returns the log's digest and
/// length, and how often each kind of step ran.
fn run_far(seed: u64) -> (u64, u64, [u64; KINDS]) {
    let log = new_log();
    let mut sim = Sim::new(seed);
    let (tx, rx) = sim.channel::<u64>();
    let w = FarWorld {
        log: log.clone(),
        gps: Rc::new(GpsResource::new(&sim, 1e9)),
        tx,
        handle: sim.handle(),
    };
    // Bulk spawns at t = 0, in the order drawn, not in time order.
    let mut r = StdRng::seed_from_u64(seed);
    for i in 0..200u64 {
        let at = far_time(&mut r);
        sim.spawn_at(&format!("f{i}"), SimTime(at), far_actor(w.clone(), 6, 1));
    }
    // Listeners whose hour-long timeouts lose to a send while senders
    // last, and win once they run out.
    for i in 0..3u64 {
        let (log, rx) = (log.clone(), rx.clone());
        sim.spawn(&format!("listen{i}"), move |ctx| {
            for _ in 0..150 {
                let what = match rx.recv_timeout(ctx, Dur::from_secs(3600)) {
                    Ok(v) => {
                        far_saw(&log, Far::RaceLost);
                        100 + v
                    }
                    Err(RecvError::Timeout) => {
                        far_saw(&log, Far::RaceWon);
                        30
                    }
                    Err(RecvError::Shutdown) => 31,
                };
                note(&log, ctx, what);
            }
        });
    }
    drop(rx);
    let deadlines = [
        0,
        1,
        (1 << 10) - 1,
        1 << 10,
        (1 << 20) + 1,
        1 << 32,
        (1 << 32) + 1,
        1 << 40,
        5_000_000_000_000,
    ];
    for (i, deadline) in deadlines.into_iter().enumerate() {
        let end = sim.run_until(SimTime(deadline));
        let executed = sim.events_executed();
        log.lock().unwrap().record(end, "deadline", executed);
        // The driver spawns between runs, at the current instant and ahead.
        sim.spawn(&format!("d{i}"), far_actor(w.clone(), 4, 1));
        let at = deadline + r.gen_range(0..3u64) + (1 << r.gen_range(0..40u32));
        sim.spawn_at(&format!("d{i}+"), SimTime(at), far_actor(w.clone(), 4, 1));
    }
    drop(w);
    let end = sim.run();
    let executed = sim.events_executed();
    log.lock().unwrap().record(end, "end", executed);
    drop(sim);
    let log = log.lock().unwrap();
    (log.hash, log.records, log.seen)
}

/// Digest and record count per seed of the far-future scenario, pinned
/// before the event queue became a radix queue.
const PINNED_FAR: [(u64, u64, u64); 4] = [
    (1, 0x268be97910a4bc80, 3256),
    (7, 0xeb8b4822a92229e2, 3242),
    (42, 0x81aa5966b3726fef, 3122),
    (1234, 0x41163a84b58bfc36, 3282),
];

#[test]
fn far_future_event_order_matches_the_pinned_digests() {
    let got: Vec<(u64, u64, u64)> = PINNED_FAR
        .iter()
        .map(|&(seed, _, _)| {
            let (hash, records, seen) = run_far(seed);
            assert!(
                seen[..FAR_KINDS].iter().all(|&n| n > 0),
                "seed {seed} misses a kind of step: {seen:?}"
            );
            (seed, hash, records)
        })
        .collect();
    assert_eq!(got, PINNED_FAR);
}
