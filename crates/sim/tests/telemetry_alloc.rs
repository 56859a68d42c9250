//! Allocation budget of telemetry recording on known keys.
//!
//! Once a counter, histogram, track, span name, argument key or text value
//! has been seen, recording against it must not allocate: counters and
//! histograms update in place, and a span or instant is a few interned ids
//! and integer arguments appended to fixed-size chunks. The same holds for
//! records through resolved ids: literals, [`Id`]s and a process's cached
//! track. A regression that goes back to allocating a key or an argument
//! string per record shows up here as thousands of allocations.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. Each test reads only its own
//! thread's counter, so libtest's other threads do not leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::rc::Rc;

use dgsf_sim::telemetry::kind::Gauge;
use dgsf_sim::{lit, ArgValue, Dur, Id, Sim, SimTime, Telemetry, TraceCtx};

thread_local! {
    // Const-initialised and destructor-free, so bumping it from inside the
    // allocator never allocates itself.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown outlive the slot.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counter is a
// const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by the calling thread so far.
fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

const CALLS: u64 = 10_000;

#[test]
fn counters_and_histograms_on_known_keys_do_not_allocate() {
    let t = Telemetry::new();
    t.enable();
    t.counter_add("rpc.calls.launch", 1);
    t.histogram_record("rpc.latency_ns.launch", 1);

    let before = allocs();
    for i in 0..CALLS {
        t.counter_add("rpc.calls.launch", 1);
        t.histogram_record("rpc.latency_ns.launch", i);
    }
    let made = allocs() - before;

    assert_eq!(
        made, 0,
        "{made} allocations for {CALLS} counter + histogram records"
    );
    assert_eq!(t.counter("rpc.calls.launch"), CALLS + 1);
    assert_eq!(
        t.histogram("rpc.latency_ns.launch").unwrap().count,
        CALLS + 1
    );
}

#[test]
fn argless_spans_on_a_known_track_allocate_only_to_grow_storage() {
    // Amortized doubling of the item `Vec` takes log₂(10,000) ≈ 14
    // reallocations; the budget leaves room for that and nothing per span.
    const BUDGET: u64 = 32;

    let t = Telemetry::new();
    t.enable();
    t.span("fn-0-0", "execute", "phase", SimTime(0), SimTime(1));

    let before = allocs();
    for i in 0..CALLS {
        t.span("fn-0-0", "execute", "phase", SimTime(i), SimTime(i + 1));
    }
    let made = allocs() - before;

    assert!(
        made <= BUDGET,
        "{made} allocations for {CALLS} spans (budget {BUDGET})"
    );
    assert_eq!(t.spans().len() as u64, CALLS + 1);
}

#[test]
fn traced_spans_and_instants_allocate_only_to_grow_storage() {
    // 20,000 records and 40,000 arguments fill ten 64 KiB chunks of each;
    // the rest of the budget is the chunk lists doubling.
    const BUDGET: u64 = 32;

    let t = Telemetry::new();
    t.enable();
    let ctx = TraceCtx::new(7, "tenant-a").with_attempt(1);
    let instant_args = |i: u64| [("bytes", ArgValue::U64(i)), ("reason", "drained".into())];
    t.span_args(
        "fn-0-0",
        "execute",
        "phase",
        SimTime(0),
        SimTime(1),
        &ctx.span_args(),
    );
    t.instant("fn-0-0", "retry", SimTime(0), &instant_args(0));

    let before = allocs();
    for i in 0..CALLS {
        let at = SimTime(i);
        t.span_args(
            "fn-0-0",
            "execute",
            "phase",
            at,
            at + Dur(1),
            &ctx.span_args(),
        );
        t.instant("fn-0-0", "retry", at, &instant_args(i));
    }
    let made = allocs() - before;

    assert!(
        made <= BUDGET,
        "{made} allocations for {CALLS} traced spans and {CALLS} instants (budget {BUDGET})"
    );
    let spans = t.spans();
    assert_eq!(spans.len() as u64, CALLS + 1);
    assert_eq!(spans[1].args[0], ("inv".to_string(), "7".to_string()));
    let instants = t.instants();
    assert_eq!(instants.len() as u64, CALLS + 1);
    assert_eq!(
        instants[CALLS as usize].args,
        [
            ("bytes".to_string(), (CALLS - 1).to_string()),
            ("reason".to_string(), "drained".to_string())
        ]
    );
}

#[test]
fn records_through_resolved_ids_do_not_allocate() {
    let t = Telemetry::new();
    t.enable();
    let queue: Id<Gauge> = t.id("monitor.queue_depth");
    // Grow the timeline first: the loop below needs one more segment.
    for i in 0..CALLS {
        t.gauge_set(queue, SimTime(i), 1);
    }
    t.counter_add(lit!("rpc.calls.launch"), 1);
    t.histogram_record(lit!("rpc.latency_ns.launch"), 1);

    let before = allocs();
    for i in 0..CALLS / 2 {
        t.counter_add(lit!("rpc.calls.launch"), 1);
        t.histogram_record(lit!("rpc.latency_ns.launch"), i);
        t.gauge_set(queue, SimTime(CALLS + i), i as i64);
    }
    let made = allocs() - before;

    // One timeline segment at most.
    assert!(
        made <= 1,
        "{made} allocations for {} counter + histogram + gauge records",
        CALLS / 2
    );
    assert_eq!(t.counter("rpc.calls.launch"), CALLS / 2 + 1);
    assert_eq!(
        t.gauge("monitor.queue_depth").len() as u64,
        CALLS + CALLS / 2
    );
}

#[test]
fn traced_spans_on_a_cached_process_track_allocate_only_to_grow_storage() {
    // 10,000 items fill five 64 KiB chunks; the arguments are one shared
    // pair. The rest of the budget is the chunk list doubling.
    const BUDGET: u64 = 16;

    let mut sim = Sim::new(1);
    sim.telemetry().enable();
    let made = Rc::new(std::cell::Cell::new(u64::MAX));
    let out = Rc::clone(&made);
    sim.spawn("fn-0-0", move |p| {
        let tel = p.telemetry();
        let ctx = TraceCtx::new(7, "tenant-a").with_attempt(1);
        let (execute, phase) = (lit!("execute"), lit!("phase"));
        tel.span_args(p.track(), execute, phase, SimTime(0), SimTime(1), &ctx);

        let before = allocs();
        for i in 0..CALLS {
            let at = SimTime(i);
            tel.span_args(p.track(), execute, phase, at, at + Dur(1), &ctx);
        }
        out.set(allocs() - before);
    });
    sim.run();

    let made = made.get();
    assert!(
        made <= BUDGET,
        "{made} allocations for {CALLS} traced spans (budget {BUDGET})"
    );
    let spans = sim.telemetry().spans();
    assert_eq!(spans.len() as u64, CALLS + 1);
    assert_eq!(spans[CALLS as usize].track, "fn-0-0");
    assert_eq!(
        spans[CALLS as usize].args[0],
        ("inv".to_string(), "7".to_string())
    );
}
