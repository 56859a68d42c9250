//! Shared-capacity resources.
//!
//! Two contention models are provided:
//!
//! * [`GpsResource`] — generalized processor sharing. All active jobs share
//!   the capacity equally; when the active set changes, remaining work is
//!   re-apportioned. This is how the GPU compute engine, NICs and PCIe links
//!   are modeled: two compute-heavy functions that share one GPU each run at
//!   roughly half speed, which is the behaviour DGSF's sharing/migration
//!   experiments depend on.
//! * [`FifoResource`] — strict serialization: one job at a time, in arrival
//!   order. No platform resource uses it; it is kept as the serialized
//!   counterpart to processor sharing.
//!
//! Only a processor-sharing resource built with
//! [`SimHandle::gps_with_busy_log`](crate::SimHandle::gps_with_busy_log) —
//! the GPU compute engine — records a [`Timeline`] of when it was busy, from
//! which NVML-like utilization samples are derived. The others keep no log.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::SimCell;
use crate::kernel::{ProcCtx, ProcId, Shared, Sim, SimState, Timer};
use crate::time::{Dur, SimTime};

/// Busy log of a resource: the instants at which it turned busy or idle.
/// Kept only by resources built with
/// [`SimHandle::gps_with_busy_log`](crate::SimHandle::gps_with_busy_log);
/// queried for busy time and utilization.
#[derive(Default, Clone)]
pub struct Timeline {
    /// Even indices start a busy interval, odd indices end it; an odd
    /// length means the resource is still busy.
    toggles: Vec<SimTime>,
}

impl Timeline {
    /// The resource went from idle to busy at `t`. A job that starts at the
    /// instant the last one finished continues that busy interval instead of
    /// leaving a zero-length idle gap.
    fn busy(&mut self, t: SimTime) {
        if self.toggles.last() == Some(&t) {
            self.toggles.pop();
        } else {
            self.toggles.push(t);
        }
    }

    /// The resource went from busy to idle at `t`.
    fn idle(&mut self, t: SimTime) {
        self.toggles.push(t);
    }

    /// Time within `[a, b)` during which at least one job was active.
    pub fn busy_between(&self, a: SimTime, b: SimTime) -> Dur {
        if b <= a {
            return Dur::ZERO;
        }
        // The interval that holds `a`, or else the first one after it.
        let first = self.toggles.partition_point(|&t| t <= a) / 2;
        let mut busy = 0u64;
        for pair in self.toggles[2 * first..].chunks(2) {
            if pair[0] >= b {
                break;
            }
            let end = pair.get(1).copied().unwrap_or(SimTime::MAX).min(b);
            busy += end.since(pair[0].max(a)).as_nanos();
        }
        Dur(busy)
    }

    /// NVML-style utilization samples: for each sample period of length
    /// `period` in `[start, end)`, the fraction of the period during which at
    /// least one job was active.
    pub fn utilization_samples(&self, start: SimTime, end: SimTime, period: Dur) -> Vec<f64> {
        let mut out = Vec::new();
        if period == Dur::ZERO {
            return out;
        }
        let mut t = start;
        while t < end {
            let next = (t + period).min(end);
            let span = next.since(t);
            if span == Dur::ZERO {
                break;
            }
            let busy = self.busy_between(t, next);
            out.push(busy.as_nanos() as f64 / span.as_nanos() as f64);
            t = next;
        }
        out
    }

    /// Number of recorded toggles: twice the busy intervals, less one while
    /// the resource is still busy.
    pub fn len(&self) -> usize {
        self.toggles.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.toggles.is_empty()
    }
}

struct GpsJob {
    pid: ProcId,
    generation: u64,
    /// Remaining work, in units of `capacity × seconds`.
    remaining: f64,
}

struct Gps {
    /// Work units completed per second when a single job is active.
    capacity: f64,
    jobs: Vec<GpsJob>,
    last: SimTime,
    /// Bumped on every state change; stale completion timers check it.
    version: u64,
    busy_log: Option<Timeline>,
}

impl Gps {
    /// Apportion capacity equally among active jobs for the elapsed window.
    fn settle(&mut self, now: SimTime) {
        let n = self.jobs.len();
        if n > 0 {
            let elapsed = now.since(self.last).as_secs_f64();
            if elapsed > 0.0 {
                let done = elapsed * self.capacity / n as f64;
                for j in &mut self.jobs {
                    j.remaining -= done;
                }
            }
        }
        self.last = now;
    }

    fn completion_eps(&self) -> f64 {
        // One event-queue tick (1 ns) of slack, scaled to work units.
        self.capacity * 2e-9 + 1e-12
    }
}

/// A generalized-processor-sharing resource.
pub struct GpsResource {
    inner: Arc<SimCell<Gps>>,
}

impl GpsResource {
    /// `capacity` is in work units per second (e.g. bytes/s for a link,
    /// 1.0 for "seconds of exclusive use" on a GPU). The resource keeps no
    /// busy log.
    pub fn new(sim: &Sim, capacity: f64) -> GpsResource {
        Self::with_shared(&sim.shared, capacity, false)
    }

    pub(crate) fn with_shared(shared: &Shared, capacity: f64, busy_log: bool) -> GpsResource {
        assert!(capacity > 0.0, "resource capacity must be positive");
        let gps = Gps {
            capacity,
            jobs: Vec::new(),
            last: SimTime::ZERO,
            version: 0,
            busy_log: busy_log.then(Timeline::default),
        };
        GpsResource {
            inner: Arc::new(SimCell::with_lock(shared.state.lock_arc(), gps)),
        }
    }

    /// Block the calling process until `work` units complete under the
    /// processor-sharing discipline.
    pub fn acquire(&self, ctx: &ProcCtx, work: f64) {
        // NaN work is treated like zero work, hence the explicit check.
        if work.is_nan() || work <= 0.0 {
            return;
        }
        let mut st = ctx.state();
        {
            let mut g = self.inner.borrow_in(ctx);
            let now = st.now;
            g.settle(now);
            let generation = st.begin_park(ctx.pid());
            if g.jobs.is_empty() {
                if let Some(log) = g.busy_log.as_mut() {
                    log.busy(now);
                }
            }
            g.jobs.push(GpsJob {
                pid: ctx.pid(),
                generation,
                remaining: work,
            });
            g.version += 1;
        }
        reschedule(&mut st, Arc::clone(&self.inner));
        ctx.yield_parked(st);
    }

    /// Convenience: `work` expressed as a duration of exclusive use.
    pub fn acquire_for(&self, ctx: &ProcCtx, d: Dur) {
        let cap = self.inner.borrow_in(ctx).capacity;
        self.acquire(ctx, d.as_secs_f64() * cap);
    }

    /// Capacity in work units per second.
    pub fn capacity(&self) -> f64 {
        self.inner.lock().capacity
    }

    /// Number of jobs currently being served.
    pub fn active_jobs(&self) -> usize {
        self.inner.lock().jobs.len()
    }

    /// Inspect the busy log.
    ///
    /// # Panics
    ///
    /// If the resource was built without one.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        f(busy_log(&mut self.inner.lock().busy_log))
    }

    /// Move the busy log out, leaving an empty one behind. Meant for
    /// collecting results after a run, without copying the log.
    ///
    /// # Panics
    ///
    /// If the resource was built without one.
    pub fn take_timeline(&self) -> Timeline {
        std::mem::take(busy_log(&mut self.inner.lock().busy_log))
    }
}

/// The log of a resource built to keep one. An empty log in its place would
/// read as 0 % utilization, so a resource without one panics instead.
fn busy_log(log: &mut Option<Timeline>) -> &mut Timeline {
    log.as_mut()
        .expect("this resource keeps no busy log; build it with SimHandle::gps_with_busy_log")
}

/// Schedule (or re-schedule) the completion timer for the earliest-finishing
/// job. The timer carries the resource's current version as its token.
fn reschedule(st: &mut SimState, inner: Arc<SimCell<Gps>>) {
    let (at, version) = {
        let g = inner.borrow_with(st);
        let Some(min_remaining) = g
            .jobs
            .iter()
            .map(|j| j.remaining)
            .min_by(|a, b| a.partial_cmp(b).expect("remaining work is finite"))
        else {
            return;
        };
        let n = g.jobs.len() as f64;
        let secs = (min_remaining.max(0.0)) * n / g.capacity;
        // +1 ns so the settle at the timer strictly covers the work.
        (st.now + Dur::from_secs_f64(secs) + Dur(1), g.version)
    };
    st.schedule_timer(at, inner, version);
}

impl Timer for SimCell<Gps> {
    fn fire(self: Arc<Self>, st: &mut SimState, version: u64) {
        let mut g = self.borrow_with(st);
        if g.version != version {
            return; // stale timer; a newer one exists
        }
        let now = st.now;
        g.settle(now);
        let eps = g.completion_eps();
        // The borrow is of the cell, not of `st`: finished jobs' wakes are
        // scheduled as they leave, in job order.
        g.jobs.retain(|j| {
            let done = j.remaining <= eps;
            if done {
                st.schedule_wake(now, j.pid, j.generation);
            }
            !done
        });
        if g.jobs.is_empty() {
            if let Some(log) = g.busy_log.as_mut() {
                log.idle(now);
            }
        }
        g.version += 1;
        drop(g);
        reschedule(st, self);
    }
}

struct Fifo {
    /// The job currently holding the resource, if any.
    current: Option<(ProcId, u64)>,
    waiters: VecDeque<(ProcId, u64, Dur)>,
}

/// A strictly serialized resource: one job at a time, FIFO admission.
pub struct FifoResource {
    inner: Arc<SimCell<Fifo>>,
}

impl FifoResource {
    /// Create an idle FIFO resource.
    pub fn new(sim: &Sim) -> FifoResource {
        Self::with_shared(&sim.shared)
    }

    fn with_shared(shared: &Shared) -> FifoResource {
        let fifo = Fifo {
            current: None,
            waiters: VecDeque::new(),
        };
        FifoResource {
            inner: Arc::new(SimCell::with_lock(shared.state.lock_arc(), fifo)),
        }
    }

    /// Hold the resource exclusively for `d` of virtual time, queueing FIFO
    /// behind earlier holders.
    pub fn acquire_for(&self, ctx: &ProcCtx, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        let mut st = ctx.state();
        {
            let mut f = self.inner.borrow_in(ctx);
            let generation = st.begin_park(ctx.pid());
            f.waiters.push_back((ctx.pid(), generation, d));
            if f.current.is_none() {
                start_next(&mut st, &self.inner, &mut f);
            }
        }
        ctx.yield_parked(st);
    }

    /// Jobs waiting plus the one in service.
    pub fn queue_len(&self) -> usize {
        let f = self.inner.lock();
        f.waiters.len() + usize::from(f.current.is_some())
    }
}

/// Pop the next waiter and schedule its completion.
fn start_next(st: &mut SimState, inner: &Arc<SimCell<Fifo>>, f: &mut Fifo) {
    let Some((pid, generation, d)) = f.waiters.pop_front() else {
        return;
    };
    f.current = Some((pid, generation));
    let at = st.now + d;
    st.schedule_timer(at, inner.clone(), 0);
}

/// The current job's completion. A FIFO job is never preempted, so its
/// timer is never stale and the token is unused.
impl Timer for SimCell<Fifo> {
    fn fire(self: Arc<Self>, st: &mut SimState, _token: u64) {
        let mut f = self.borrow_with(st);
        let (pid, generation) = f.current.take().expect("fifo completion without owner");
        let now = st.now;
        st.schedule_wake(now, pid, generation);
        start_next(st, &self, &mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;

    fn secs(s: f64) -> Dur {
        Dur::from_secs_f64(s)
    }

    #[test]
    fn solo_job_runs_at_full_capacity() {
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 2.0)); // 2 units/s
        let done = Arc::new(SimCell::new(&sim.handle(), SimTime::ZERO));
        let d = done.clone();
        let r2 = r.clone();
        sim.spawn("j", move |ctx| {
            r2.acquire(ctx, 4.0); // 4 units at 2/s = 2s
            *d.lock() = ctx.now();
        });
        sim.run();
        let t = done.lock().as_secs_f64();
        assert!((t - 2.0).abs() < 1e-6, "expected ~2s, got {t}");
    }

    #[test]
    fn two_equal_jobs_share_capacity() {
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 1.0));
        let times = Arc::new(SimCell::new(&sim.handle(), Vec::new()));
        for i in 0..2 {
            let r = r.clone();
            let times = times.clone();
            sim.spawn(&format!("j{i}"), move |ctx| {
                r.acquire(ctx, 1.0); // 1s of exclusive work
                times.lock().push(ctx.now().as_secs_f64());
            });
        }
        sim.run();
        // Both share the whole time: each finishes at ~2s.
        for t in times.lock().iter() {
            assert!((t - 2.0).abs() < 1e-6, "expected ~2s, got {t}");
        }
    }

    #[test]
    fn late_arrival_reapportions_capacity() {
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 1.0));
        let times = Arc::new(SimCell::new(&sim.handle(), Vec::new()));
        {
            let r = r.clone();
            let times = times.clone();
            sim.spawn("long", move |ctx| {
                r.acquire(ctx, 2.0);
                times.lock().push(("long", ctx.now().as_secs_f64()));
            });
        }
        {
            let r = r.clone();
            let times = times.clone();
            sim.spawn("late", move |ctx| {
                ctx.sleep(secs(1.0));
                r.acquire(ctx, 0.5);
                times.lock().push(("late", ctx.now().as_secs_f64()));
            });
        }
        sim.run();
        // long: 1s alone (1.0 done), then shares. late needs 0.5 at half
        // rate = 1s, finishing at t=2. long's last 1.0 unit: 0.5 during the
        // shared second, then 0.5 alone => t=2.5.
        let times = times.lock();
        let late = times.iter().find(|x| x.0 == "late").unwrap().1;
        let long = times.iter().find(|x| x.0 == "long").unwrap().1;
        assert!((late - 2.0).abs() < 1e-6, "late: {late}");
        assert!((long - 2.5).abs() < 1e-6, "long: {long}");
    }

    #[test]
    fn timeline_tracks_busy_time_and_utilization() {
        let mut sim = Sim::new(1);
        let r = Arc::new(sim.handle().gps_with_busy_log(1.0));
        let r2 = r.clone();
        sim.spawn("j", move |ctx| {
            ctx.sleep(secs(1.0));
            r2.acquire(ctx, 1.0); // busy [1,2)
            ctx.sleep(secs(1.0));
            r2.acquire(ctx, 1.0); // busy [3,4)
        });
        sim.run();
        let a = SimTime::ZERO;
        let b = SimTime::ZERO + secs(4.0);
        r.with_timeline(|tl| {
            let busy = tl.busy_between(a, b).as_secs_f64();
            assert!((busy - 2.0).abs() < 1e-6, "busy {busy}");
            let samples = tl.utilization_samples(a, b, secs(1.0));
            assert_eq!(samples.len(), 4);
            assert!(samples[0] < 0.01);
            assert!(samples[1] > 0.99);
            assert!(samples[2] < 0.01);
            assert!(samples[3] > 0.99);
        });
    }

    #[test]
    fn back_to_back_jobs_leave_one_busy_interval() {
        let mut sim = Sim::new(1);
        let r = Arc::new(sim.handle().gps_with_busy_log(1.0));
        let r2 = r.clone();
        sim.spawn("j", move |ctx| {
            // The second job starts at the instant the first one finishes.
            r2.acquire(ctx, 1.0);
            r2.acquire(ctx, 1.0);
        });
        let end = sim.run();
        r.with_timeline(|tl| {
            assert_eq!(tl.len(), 2, "one busy interval");
            assert_eq!(
                tl.busy_between(SimTime::ZERO, end),
                end.since(SimTime::ZERO)
            );
        });
    }

    #[test]
    #[should_panic(expected = "keeps no busy log")]
    fn reading_the_log_of_a_resource_without_one_panics() {
        let sim = Sim::new(1);
        GpsResource::new(&sim, 1.0).with_timeline(|tl| tl.len());
    }

    #[test]
    fn fifo_serializes_in_arrival_order() {
        let mut sim = Sim::new(1);
        let r = Arc::new(FifoResource::new(&sim));
        let order = Arc::new(SimCell::new(&sim.handle(), Vec::new()));
        for i in 0..3u32 {
            let r = r.clone();
            let order = order.clone();
            sim.spawn(&format!("f{i}"), move |ctx| {
                ctx.sleep(Dur::from_millis(i as u64)); // arrive 0,1,2 ms
                r.acquire_for(ctx, secs(1.0));
                order.lock().push((i, ctx.now().as_secs_f64()));
            });
        }
        sim.run();
        let order = order.lock();
        assert_eq!(order.iter().map(|x| x.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!((order[0].1 - 1.0).abs() < 1e-6);
        assert!((order[1].1 - 2.0).abs() < 1e-6);
        assert!((order[2].1 - 3.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_is_free() {
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 1.0));
        let done = Arc::new(SimCell::new(&sim.handle(), false));
        let d = done.clone();
        sim.spawn("z", move |ctx| {
            r.acquire(ctx, 0.0);
            r.acquire(ctx, -1.0);
            assert_eq!(ctx.now(), SimTime::ZERO);
            *d.lock() = true;
        });
        sim.run();
        assert!(*done.lock());
    }
}
