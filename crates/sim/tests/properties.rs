//! Property-based tests of the DES kernel and its resources.

use std::rc::Rc;

use dgsf_sim::{
    percentile_permille, percentile_sorted, Dur, GpsResource, GpsStream, ProcCtx, Sim, SimCell,
    SimReceiver, SimSender, SimTime, Summary, SyncMarker,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work conservation under generalized processor sharing: while at
    /// least one job is active the resource runs at full capacity, so
    /// `Σ work == capacity × busy_time` exactly (up to float/rounding).
    #[test]
    fn gps_conserves_work(
        works in proptest::collection::vec(0.01f64..3.0, 1..8),
        starts in proptest::collection::vec(0u64..2_000_000_000, 1..8),
        capacity in 0.5f64..4.0,
    ) {
        let n = works.len().min(starts.len());
        let mut sim = Sim::new(1);
        let r = Rc::new(sim.handle().gps_with_busy_log(capacity));
        for i in 0..n {
            let r = r.clone();
            let w = works[i];
            let at = SimTime(starts[i]);
            sim.spawn_at(&format!("j{i}"), at, move |ctx| {
                r.acquire(ctx, w);
            });
        }
        let end = sim.run();
        let busy = r.with_timeline(|tl| tl.busy_between(SimTime::ZERO, end + Dur(1)));
        let total: f64 = works[..n].iter().sum();
        let done = capacity * busy.as_secs_f64();
        prop_assert!(
            (done - total).abs() < 1e-3 * total.max(1.0),
            "work {total} vs capacity×busy {done}"
        );
    }

    /// Every job completes no earlier than its exclusive-use time and no
    /// later than if it shared with everyone the whole way.
    #[test]
    fn gps_completion_bounds(
        works in proptest::collection::vec(0.05f64..2.0, 2..6),
    ) {
        let n = works.len();
        let mut sim = Sim::new(1);
        let r = Rc::new(GpsResource::new(&sim, 1.0));
        let finishes = Rc::new(SimCell::new(&sim.handle(), vec![0.0f64; n]));
        for (i, w) in works.clone().into_iter().enumerate() {
            let r = r.clone();
            let f = finishes.clone();
            sim.spawn(&format!("j{i}"), move |ctx| {
                r.acquire(ctx, w);
                f.lock()[i] = ctx.now().as_secs_f64();
            });
        }
        sim.run();
        let total: f64 = works.iter().sum();
        let fin = finishes.lock().clone();
        for (i, &w) in works.iter().enumerate() {
            prop_assert!(fin[i] >= w - 1e-6, "job {i} finished before exclusive time");
            prop_assert!(fin[i] <= total + 1e-3, "job {i} finished after serial total");
        }
        // the last finisher ends exactly when all work is done
        let last = fin.iter().cloned().fold(0.0, f64::max);
        prop_assert!((last - total).abs() < 1e-3, "makespan {last} vs total {total}");
    }

    /// The busy log against an oracle of its own: each job records the
    /// `[start, finish)` it spent in service, and the log's busy time in any
    /// window is the length of the union of those intervals inside it, to
    /// the nanosecond. A zero gap starts a process's next job at the instant
    /// its last one finished; the cut leaves jobs still in service, whose
    /// intervals are open.
    #[test]
    fn busy_log_matches_the_union_of_job_intervals(
        streams in proptest::collection::vec(
            proptest::collection::vec(
                (prop_oneof![0u64..1, 1u64..3_000_000], 1u64..2_000_000),
                1..8,
            ),
            1..4,
        ),
        cut in 1u64..20_000_000,
        windows in proptest::collection::vec((0u64..25_000_000, 0u64..25_000_000), 1..16),
    ) {
        let mut sim = Sim::new(1);
        let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
        let spans = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        for (i, jobs) in streams.into_iter().enumerate() {
            let (r, spans) = (r.clone(), spans.clone());
            sim.spawn(&format!("p{i}"), move |ctx| {
                for (gap, work_ns) in jobs {
                    if gap > 0 {
                        ctx.sleep(Dur(gap));
                    }
                    let k = {
                        let mut spans = spans.lock();
                        spans.push((ctx.now().as_nanos(), u64::MAX));
                        spans.len() - 1
                    };
                    r.acquire(ctx, work_ns as f64 * 1e-9);
                    spans.lock()[k].1 = ctx.now().as_nanos();
                }
            });
        }
        sim.run_until(SimTime(cut));
        let spans = spans.lock().clone();
        r.with_timeline(|tl| {
            for &(x, y) in &windows {
                let (a, b) = (x.min(y), x.max(y));
                let logged = tl.busy_between(SimTime(a), SimTime(b)).as_nanos();
                prop_assert_eq!(logged, union_within(&spans, a, b), "window [{a}, {b})");
            }
        });
    }

    /// Virtual sleeps from concurrent processes interleave consistently:
    /// each process observes its own cumulative sleep time.
    #[test]
    fn sleeps_accumulate_exactly(
        durs in proptest::collection::vec(1u64..1_000_000u64, 1..20),
    ) {
        let mut sim = Sim::new(1);
        let expected: u64 = durs.iter().sum();
        let seen = Rc::new(SimCell::new(&sim.handle(), 0u64));
        let s = seen.clone();
        sim.spawn("sleeper", move |ctx| {
            for d in durs {
                ctx.sleep(Dur(d));
            }
            *s.lock() = ctx.now().as_nanos();
        });
        sim.run();
        prop_assert_eq!(*seen.lock(), expected);
    }

    /// Channels deliver every message exactly once, in order, regardless of
    /// send timing.
    #[test]
    fn channel_delivers_all_in_order(
        gaps in proptest::collection::vec(0u64..1000u64, 1..40),
    ) {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<usize>();
        let n = gaps.len();
        let got = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        let g = got.clone();
        sim.spawn("rx", move |ctx| {
            for _ in 0..n {
                if let Some(v) = rx.recv(ctx) {
                    g.lock().push(v);
                }
            }
        });
        sim.spawn("tx", move |ctx| {
            for (i, gap) in gaps.into_iter().enumerate() {
                ctx.sleep(Dur(gap));
                tx.send(ctx, i);
            }
        });
        sim.run();
        let got = got.lock().clone();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A kernel-run [`GpsStream`] against the process it replaces: an
    /// executor per stream that receives commands on a channel and calls
    /// `acquire` per job, answering sync markers on a channel of the
    /// waiter's. Submitters queue jobs of zero, negative, NaN and a few
    /// microseconds of work, often at one instant, on up to three streams,
    /// sync one stream or all of them, while processes run jobs of their
    /// own on the same resource. Every job retires at the same instant in
    /// both, and the log of who went on, when, and in what order, is
    /// identical, as is the run's end.
    #[test]
    fn streams_replay_a_process_per_stream(
        streams in 1usize..4,
        procs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..6), 1..6),
            0..3,
        ),
        submitters in proptest::collection::vec(
            proptest::collection::vec((0u8..10, 0u8..3, 0u8..6), 1..14),
            1..3,
        ),
    ) {
        let scenario = Scenario { streams, procs, submitters };
        let (kernel_log, kernel_end) = run_scenario(&scenario, false);
        let (reference_log, reference_end) = run_scenario(&scenario, true);
        prop_assert_eq!(kernel_log, reference_log);
        prop_assert_eq!(kernel_end, reference_end);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Percentiles are monotone in q, and every percentile of a sample lies
    /// between its min and max; the summary's own p50 ≤ p95 ≤ p99 chain
    /// holds too.
    #[test]
    fn percentiles_monotone_and_bounded(
        samples in proptest::collection::vec(-1e6f64..1e6, 1..60),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(percentile_sorted(&sorted, lo) <= percentile_sorted(&sorted, hi));
        let s = Summary::from(&samples);
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        for q in [0.0, lo, hi, 1.0] {
            let p = percentile_sorted(&sorted, q);
            prop_assert!(s.min <= p && p <= s.max, "p({q}) = {p} outside [{}, {}]", s.min, s.max);
        }
    }

    /// Nearest-rank semantics, robust to ties: the percentile is a member
    /// of the sample, at least ⌈q·n⌉ samples are ≤ it, and fewer than
    /// ⌈q·n⌉ are strictly below it. The narrow value range makes heavy
    /// ties the common case. The integer `percentile_permille` obeys the
    /// same rule at rank ⌈n·q‰/1000⌉, including q‰ above 1000.
    #[test]
    fn percentile_is_nearest_rank(
        values in proptest::collection::vec(0u32..20, 1..60),
        q in 0.0f64..1.0,
        q_permille in 0u64..1200,
    ) {
        let mut sorted: Vec<f64> = values.iter().map(|&x| f64::from(x)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p = percentile_sorted(&sorted, q);
        let n = sorted.len();
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
        prop_assert!(sorted.contains(&p), "percentile must be a sample member");
        let le = sorted.iter().filter(|&&x| x <= p).count();
        let lt = sorted.iter().filter(|&&x| x < p).count();
        prop_assert!(le >= rank, "only {le} samples ≤ {p}, need ≥ {rank}");
        prop_assert!(lt < rank, "{lt} samples < {p}, must be < {rank}");

        let mut ints: Vec<u64> = values.iter().map(|&x| u64::from(x)).collect();
        ints.sort_unstable();
        let p = percentile_permille(&ints, q_permille);
        let rank = ((n as u64 * q_permille).div_ceil(1000) as usize).clamp(1, n);
        prop_assert!(ints.contains(&p), "percentile must be a sample member");
        let le = ints.iter().filter(|&&x| x <= p).count();
        let lt = ints.iter().filter(|&&x| x < p).count();
        prop_assert!(le >= rank, "only {le} samples ≤ {p}, need ≥ {rank}");
        prop_assert!(lt < rank, "{lt} samples < {p}, must be < {rank}");
    }

    /// A single-sample summary collapses to that sample everywhere, and
    /// every percentile of a singleton is the sample itself.
    #[test]
    fn single_sample_summary_collapses(x in -1e6f64..1e6) {
        let s = Summary::from(&[x]);
        prop_assert_eq!(s.n, 1);
        for v in [s.mean, s.min, s.max, s.p50, s.p95, s.p99, s.sum] {
            prop_assert_eq!(v, x);
        }
        prop_assert_eq!(s.std, 0.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            prop_assert_eq!(percentile_sorted(&[x], q), x);
        }
    }
}

/// Length of the union of the `[start, finish)` intervals inside `[a, b)`.
fn union_within(spans: &[(u64, u64)], a: u64, b: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = spans
        .iter()
        .map(|&(start, finish)| (start.max(a), finish.min(b)))
        .filter(|&(start, finish)| start < finish)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut covered) = (0, 0);
    for (start, finish) in clipped {
        if finish > covered {
            total += finish - start.max(covered);
            covered = finish;
        }
    }
    total
}

#[test]
fn utilization_samples_are_bounded() {
    let mut sim = Sim::new(1);
    let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
    for i in 0..3 {
        let r = r.clone();
        sim.spawn_at(
            &format!("j{i}"),
            SimTime(i as u64 * 500_000_000),
            move |ctx| {
                r.acquire(ctx, 0.7);
            },
        );
    }
    let end = sim.run();
    r.with_timeline(|tl| {
        for s in tl.utilization_samples(SimTime::ZERO, end, Dur::from_millis(200)) {
            assert!((0.0..=1.0 + 1e-9).contains(&s), "utilization in [0,1]: {s}");
        }
    });
}

#[test]
fn overlapping_jobs_make_one_busy_interval() {
    let mut sim = Sim::new(2);
    let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
    // Job a runs alone for 1 s, shares with b until b's 0.25 s of work is
    // done at 1.5 s, then finishes its last 0.25 s alone at 1.75 s.
    {
        let r = r.clone();
        sim.spawn("a", move |ctx| r.acquire(ctx, 1.5));
    }
    {
        let r = r.clone();
        sim.spawn_at("b", SimTime(1_000_000_000), move |ctx| r.acquire(ctx, 0.25));
    }
    sim.run();
    r.with_timeline(|tl| {
        assert_eq!(tl.len(), 2, "one busy interval");
        let busy = tl.busy_between(SimTime::ZERO, SimTime(2_000_000_000));
        // 1.75 s, plus the 1 ns of slack each completion timer adds.
        assert_eq!(busy.as_nanos(), 1_750_000_002);
    });
}

#[test]
fn busy_between_is_additive_over_adjacent_windows() {
    let mut sim = Sim::new(3);
    let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
    for i in 0..4u64 {
        let r = r.clone();
        sim.spawn_at(&format!("j{i}"), SimTime(i * 700_000_000), move |ctx| {
            r.acquire(ctx, 0.3);
        });
    }
    let end = sim.run();
    r.with_timeline(|tl| {
        let whole = tl.busy_between(SimTime::ZERO, end).as_nanos();
        let mid = SimTime(end.as_nanos() / 2);
        let a = tl.busy_between(SimTime::ZERO, mid).as_nanos();
        let b = tl.busy_between(mid, end).as_nanos();
        assert_eq!(a + b, whole, "busy time must be additive over a split");
        // utilization samples cover the window and sum to the busy total
        let samples = tl.utilization_samples(SimTime::ZERO, end, Dur::from_millis(100));
        let from_samples: f64 = samples.iter().sum::<f64>() * 0.1;
        assert!(
            (from_samples - whole as f64 / 1e9).abs() < 0.11,
            "sampled busy {from_samples} vs exact {}",
            whole as f64 / 1e9
        );
    });
}

/// What [`streams_replay_a_process_per_stream`] runs: streams, processes
/// with jobs of their own (a gap before each, in µs, and a work code), and
/// submitters' scripts of `(action, stream, argument)`.
struct Scenario {
    streams: usize,
    procs: Vec<Vec<(u8, u8)>>,
    submitters: Vec<Vec<(u8, u8, u8)>>,
}

/// Work units for a work code: zero, NaN, negative, then 1–3 µs.
fn work_of(code: u8) -> f64 {
    match code {
        0 => 0.0,
        1 => f64::NAN,
        2 => -1e-6,
        c => f64::from(c - 2) * 1e-6,
    }
}

/// Who went on, and when: `(ns, kind, a, b)`, where kind 0 is a stream
/// job retiring (stream, job), 1 a process's job (process, job) and 2 a
/// submitter's sync returning (submitter, step).
type Log = Rc<SimCell<Vec<(u64, u8, u32, u32)>>>;

/// A command of the reference executor.
enum Cmd {
    Job(u32, f64),
    Sync(SimSender<()>),
}

/// One stream, run by the kernel or by a reference executor.
enum Lane {
    Kernel(GpsStream<u32>),
    Executor(SimSender<Cmd>),
}

/// One submitter's rendezvous with one stream.
enum Waiter {
    Marker(SyncMarker),
    Channel(SimSender<()>, SimReceiver<()>),
}

impl Lane {
    fn submit(&self, ctx: &ProcCtx, job: u32, work: f64) {
        match self {
            Lane::Kernel(s) => s.submit(ctx, work, job),
            Lane::Executor(tx) => tx.send(ctx, Cmd::Job(job, work)),
        }
    }

    fn mark(&self, ctx: &ProcCtx, waiter: &Waiter) {
        match (self, waiter) {
            (Lane::Kernel(s), Waiter::Marker(m)) => s.record(ctx, m),
            (Lane::Executor(tx), Waiter::Channel(done, _)) => tx.send(ctx, Cmd::Sync(done.clone())),
            _ => unreachable!("lanes and waiters come in matching kinds"),
        }
    }
}

impl Waiter {
    fn wait(&self, ctx: &ProcCtx) {
        match self {
            Waiter::Marker(m) => m.wait(ctx),
            Waiter::Channel(_, rx) => {
                rx.recv(ctx);
            }
        }
    }
}

/// Run `s` with kernel-run streams, or with an executor process per
/// stream; returns the log and the instant the run ended.
fn run_scenario(s: &Scenario, reference: bool) -> (Vec<(u64, u8, u32, u32)>, SimTime) {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let gps = Rc::new(GpsResource::new(&sim, 1.0));
    let log: Log = Rc::new(SimCell::new(&h, Vec::new()));
    // Executors first, so each is parked in `recv` before anything is sent.
    let lanes: Rc<Vec<Lane>> = Rc::new(
        (0..s.streams as u32)
            .map(|l| {
                if reference {
                    let (tx, rx) = sim.channel::<Cmd>();
                    let (gps, log) = (gps.clone(), log.clone());
                    sim.spawn(&format!("exec{l}"), move |ctx| {
                        while let Some(cmd) = rx.recv(ctx) {
                            match cmd {
                                Cmd::Job(job, work) => {
                                    gps.acquire(ctx, work);
                                    log.lock().push((ctx.now().as_nanos(), 0, l, job));
                                }
                                Cmd::Sync(done) => done.send(ctx, ()),
                            }
                        }
                    });
                    Lane::Executor(tx)
                } else {
                    let log = log.clone();
                    Lane::Kernel(gps.stream(move |job, now: SimTime| {
                        log.lock().push((now.as_nanos(), 0, l, job));
                    }))
                }
            })
            .collect(),
    );
    for (p, jobs) in s.procs.iter().enumerate() {
        let (gps, log, jobs) = (gps.clone(), log.clone(), jobs.clone());
        sim.spawn(&format!("proc{p}"), move |ctx| {
            for (k, (gap, work)) in jobs.into_iter().enumerate() {
                ctx.sleep(Dur::from_micros(u64::from(gap)));
                gps.acquire(ctx, work_of(work));
                log.lock()
                    .push((ctx.now().as_nanos(), 1, p as u32, k as u32));
            }
        });
    }
    for (q, script) in s.submitters.iter().enumerate() {
        let (lanes, log, script) = (lanes.clone(), log.clone(), script.clone());
        let waiters: Vec<Waiter> = (0..s.streams)
            .map(|_| {
                if reference {
                    let (tx, rx) = h.channel();
                    Waiter::Channel(tx, rx)
                } else {
                    Waiter::Marker(SyncMarker::new(&h))
                }
            })
            .collect();
        sim.spawn(&format!("submitter{q}"), move |ctx| {
            for (k, (action, lane, arg)) in script.into_iter().enumerate() {
                let lane = usize::from(lane) % lanes.len();
                let synced = match action {
                    0..=5 => {
                        let job = (q as u32) << 16 | k as u32;
                        lanes[lane].submit(ctx, job, work_of(arg));
                        continue;
                    }
                    6 | 7 => {
                        ctx.sleep(Dur::from_micros(u64::from(arg % 4)));
                        continue;
                    }
                    8 => lane..lane + 1,
                    _ => 0..lanes.len(),
                };
                for l in synced.clone() {
                    lanes[l].mark(ctx, &waiters[l]);
                }
                for l in synced {
                    waiters[l].wait(ctx);
                }
                log.lock()
                    .push((ctx.now().as_nanos(), 2, q as u32, k as u32));
            }
        });
    }
    let end = sim.run();
    let log = log.lock().clone();
    (log, end)
}
