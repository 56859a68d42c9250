//! Allocation budget of resource jobs in steady state.
//!
//! A processor-sharing or FIFO job parks its process, schedules a typed
//! completion timer and wakes the process when the timer fires. Once the
//! event queue and the resource's job list have grown to their working
//! size, none of that allocates: the timer is an `Rc` clone of the
//! resource, not a boxed closure, and finished jobs are woken as they leave
//! the job list, with no list of their own. Neither resource keeps a busy
//! log (only one built with `SimHandle::gps_with_busy_log` does, and that
//! log grows with its busy periods), so nothing else grows either. A
//! regression to one allocation per job or per timer shows up as
//! thousands.
//!
//! The event queue keeps its buckets' capacity across refills, so a process
//! whose sleeps land in many different buckets allocates nothing either,
//! however many far-future wakes sit parked above it.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. Every simulated process runs on
//! the thread that drives the simulation, so that thread's counter sees
//! all of a run's allocations and no other test thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgsf_sim::{Dur, FifoResource, GpsResource, Sim, SimTime};

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

/// End of the warm-up and of the measured window.
const WARM: SimTime = SimTime(10_000_000);
const END: SimTime = SimTime(14_000_000);

/// Run `sim` through the warm-up, then through the measured window;
/// returns the allocations and the jobs completed in that window.
fn measure(mut sim: Sim, jobs: &AtomicU64) -> (u64, u64) {
    sim.run_until(WARM);
    let (allocs_before, jobs_before) = (allocs(), jobs.load(Ordering::Relaxed));
    sim.run_until(END);
    let made = allocs() - allocs_before;
    let done = jobs.load(Ordering::Relaxed) - jobs_before;
    assert!(done >= 500, "only {done} jobs in the measured window");
    (made, done)
}

/// A job of 1–3 µs of exclusive use, varied so completions interleave.
fn micros(process: u64, k: u64) -> u64 {
    1 + (process + k) % 3
}

fn gps_jobs(processes: u64) -> (u64, u64) {
    let sim = Sim::new(1);
    let gps = Rc::new(GpsResource::new(&sim, 1.0));
    let jobs = Arc::new(AtomicU64::new(0));
    for i in 0..processes {
        let (gps, jobs) = (gps.clone(), jobs.clone());
        sim.spawn(&format!("gps{i}"), move |ctx| {
            for k in 0.. {
                gps.acquire(ctx, micros(i, k) as f64 * 1e-6);
                jobs.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    measure(sim, &jobs)
}

fn fifo_jobs(processes: u64) -> (u64, u64) {
    let sim = Sim::new(1);
    let fifo = Rc::new(FifoResource::new(&sim));
    let jobs = Arc::new(AtomicU64::new(0));
    for i in 0..processes {
        let (fifo, jobs) = (fifo.clone(), jobs.clone());
        sim.spawn(&format!("fifo{i}"), move |ctx| {
            for k in 0.. {
                fifo.acquire_for(ctx, Dur::from_micros(micros(i, k)));
                jobs.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    measure(sim, &jobs)
}

fn check(what: &str, (made, jobs): (u64, u64)) {
    assert_eq!(made, 0, "{made} allocations for {jobs} {what}");
}

#[test]
fn a_lone_gps_job_stream_does_not_allocate() {
    check("lone GPS jobs", gps_jobs(1));
}

#[test]
fn three_processes_sharing_a_gps_resource_do_not_allocate() {
    check("shared GPS jobs", gps_jobs(3));
}

#[test]
fn a_lone_fifo_job_stream_does_not_allocate() {
    check("lone FIFO jobs", fifo_jobs(1));
}

#[test]
fn three_processes_queueing_on_a_fifo_resource_do_not_allocate() {
    check("queued FIFO jobs", fifo_jobs(3));
}

#[test]
fn sleeps_across_bucket_levels_beside_far_sleepers_do_not_allocate() {
    /// One cycle of the stepper's sleeps spans about 2^40 ns.
    const CYCLE: u64 = 1 << 40;
    let mut sim = Sim::new(1);
    for i in 0..1_000 {
        sim.spawn(&format!("sleeper{i}"), move |ctx| {
            ctx.sleep(Dur::from_secs(1_000_000 + i));
        });
    }
    let steps = Arc::new(AtomicU64::new(0));
    let s = steps.clone();
    sim.spawn("stepper", move |ctx| {
        // 1 ns to about 9 minutes: a wake in every bucket up to bit 39.
        for k in 0u64.. {
            ctx.sleep(Dur((1 << (k % 40)) + k % 7));
            s.fetch_add(1, Ordering::Relaxed);
        }
    });
    // The sleeps repeat every 280 steps (7 cycles); warm up over more,
    // and past 2^43. The first carry into a new top bit of the clock files
    // a wake in a bucket never used before, so the measured window stays
    // below 2^44.
    sim.run_until(SimTime(9 * CYCLE));
    let (allocs_before, steps_before) = (allocs(), steps.load(Ordering::Relaxed));
    sim.run_until(SimTime(15 * CYCLE));
    let made = allocs() - allocs_before;
    let done = steps.load(Ordering::Relaxed) - steps_before;
    assert!(done >= 200, "only {done} sleeps in the measured window");
    assert_eq!(made, 0, "{made} allocations for {done} sleeps");
    assert_eq!(sim.blocked_processes().len(), 1_001);
}
