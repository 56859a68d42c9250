//! Shared-capacity resources.
//!
//! Two contention models are provided:
//!
//! * [`GpsResource`] — generalized processor sharing. All active jobs share
//!   the capacity equally; when the active set changes, remaining work is
//!   re-apportioned. This is how the GPU compute engine, NICs, PCIe links and
//!   the object store are modeled: two compute-heavy functions that share one
//!   GPU each run at roughly half speed, which is the behaviour DGSF's
//!   sharing/migration experiments depend on.
//! * [`FifoResource`] — strict serialization. Used for the ablation that
//!   compares processor-sharing against serialized kernel execution.
//!
//! Both record a [`Timeline`] of their active-job count, from which NVML-like
//! utilization samples are derived.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::SimCell;
use crate::kernel::{ProcCtx, ProcId, Shared, Sim, SimState, Timer};
use crate::time::{Dur, SimTime};

/// Transition log of a resource's active-job count. Appended on every
/// arrival/departure; queried for busy time and utilization.
#[derive(Default, Clone)]
pub struct Timeline {
    /// `(time, active)` — the active count from `time` until the next entry.
    entries: Vec<(SimTime, u32)>,
}

impl Timeline {
    fn record(&mut self, t: SimTime, active: u32) {
        if let Some(last) = self.entries.last_mut() {
            if last.0 == t {
                last.1 = active;
                return;
            }
            if last.1 == active {
                return;
            }
        }
        self.entries.push((t, active));
    }

    /// Active count at time `t` (0 before the first entry).
    pub fn active_at(&self, t: SimTime) -> u32 {
        match self.entries.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(0) => 0,
            Err(i) => self.entries[i - 1].1,
        }
    }

    /// Time within `[a, b)` during which at least one job was active.
    pub fn busy_between(&self, a: SimTime, b: SimTime) -> Dur {
        if b <= a || self.entries.is_empty() {
            return Dur::ZERO;
        }
        let mut busy = 0u64;
        let start_idx = match self.entries.binary_search_by_key(&a, |e| e.0) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        for (i, &(t, active)) in self.entries.iter().enumerate().skip(start_idx) {
            let seg_start = t.max(a);
            let seg_end = self
                .entries
                .get(i + 1)
                .map(|e| e.0)
                .unwrap_or(SimTime::MAX)
                .min(b);
            if seg_end <= seg_start {
                if t >= b {
                    break;
                }
                continue;
            }
            if active >= 1 {
                busy += seg_end.since(seg_start).as_nanos();
            }
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

    /// Mean active-job count over `[a, b)` (time-weighted).
    pub fn avg_active(&self, a: SimTime, b: SimTime) -> f64 {
        if b <= a || self.entries.is_empty() {
            return 0.0;
        }
        let mut weighted = 0.0;
        for (i, &(t, active)) in self.entries.iter().enumerate() {
            let seg_start = t.max(a);
            let seg_end = self
                .entries
                .get(i + 1)
                .map(|e| e.0)
                .unwrap_or(SimTime::MAX)
                .min(b);
            if seg_end > seg_start {
                weighted += active as f64 * seg_end.since(seg_start).as_secs_f64();
            }
        }
        weighted / b.since(a).as_secs_f64()
    }

    /// Number of recorded transitions (for memory diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    timeline: Timeline,
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
    /// 1.0 for "seconds of exclusive use" on a GPU).
    pub fn new(sim: &Sim, capacity: f64) -> GpsResource {
        Self::with_shared(&sim.shared, capacity)
    }

    /// Create from a process context (e.g. a manager building a GPU at run
    /// time).
    pub fn new_in(ctx: &ProcCtx, capacity: f64) -> GpsResource {
        Self::with_shared(&ctx.shared, capacity)
    }

    pub(crate) fn with_shared(shared: &Shared, capacity: f64) -> GpsResource {
        assert!(capacity > 0.0, "resource capacity must be positive");
        let gps = Gps {
            capacity,
            jobs: Vec::new(),
            last: SimTime::ZERO,
            version: 0,
            timeline: Timeline::default(),
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
            g.jobs.push(GpsJob {
                pid: ctx.pid(),
                generation,
                remaining: work,
            });
            let active = g.jobs.len() as u32;
            g.timeline.record(now, active);
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

    /// Inspect the busy timeline.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        f(&self.inner.lock().timeline)
    }

    /// Move the busy timeline out, leaving an empty one behind. Meant for
    /// collecting results after a run, without copying the transition log.
    pub fn take_timeline(&self) -> Timeline {
        std::mem::take(&mut self.inner.lock().timeline)
    }
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
        let active = g.jobs.len() as u32;
        g.timeline.record(now, active);
        g.version += 1;
        drop(g);
        reschedule(st, self);
    }
}

struct Fifo {
    /// The job currently holding the resource, if any.
    current: Option<(ProcId, u64)>,
    waiters: VecDeque<(ProcId, u64, Dur)>,
    timeline: Timeline,
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

    /// Create from within a running process.
    pub fn new_in(ctx: &ProcCtx) -> FifoResource {
        Self::with_shared(&ctx.shared)
    }

    fn with_shared(shared: &Shared) -> FifoResource {
        let fifo = Fifo {
            current: None,
            waiters: VecDeque::new(),
            timeline: Timeline::default(),
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

    /// Inspect the busy timeline.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        f(&self.inner.lock().timeline)
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
        f.timeline.record(st.now, 0);
        return;
    };
    f.current = Some((pid, generation));
    f.timeline.record(st.now, 1);
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
    use parking_lot::Mutex;

    fn secs(s: f64) -> Dur {
        Dur::from_secs_f64(s)
    }

    #[test]
    fn solo_job_runs_at_full_capacity() {
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 2.0)); // 2 units/s
        let done = Arc::new(Mutex::new(SimTime::ZERO));
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
        let times = Arc::new(Mutex::new(Vec::new()));
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
        let times = Arc::new(Mutex::new(Vec::new()));
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
        let r = Arc::new(GpsResource::new(&sim, 1.0));
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
    fn fifo_serializes_in_arrival_order() {
        let mut sim = Sim::new(1);
        let r = Arc::new(FifoResource::new(&sim));
        let order = Arc::new(Mutex::new(Vec::new()));
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
        let done = Arc::new(Mutex::new(false));
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
