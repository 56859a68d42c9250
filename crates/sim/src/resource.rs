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
//!
//! # Streams
//!
//! A processor-sharing job is owned either by a process parked in
//! [`GpsResource::acquire`] or by a [`GpsStream`]: an in-order queue of jobs
//! and [`SyncMarker`]s (a CUDA stream) that the scheduler runs itself. When
//! a stream's job retires, its *continuation* hands the finished operation
//! to the stream's retire function, fires the markers queued behind it and
//! starts the next job. This is what a process that loops over a channel,
//! calling `acquire` per job, would do at each wake, and the continuation
//! takes exactly the event slot that wake would have taken:
//!
//! - a submit to an idle stream schedules it at the current instant, as a
//!   channel send schedules the wake (the submitter keeps running, so the
//!   job never starts inline);
//! - a completion schedules it in retain order, among the wakes of the
//!   other jobs that finish at the same instant;
//! - it runs inline in the completion only when it would have been the
//!   next event popped: its job is the first the completion retires and
//!   nothing else is due at this instant. The resource then reschedules
//!   once, instead of leaving a stale completion timer behind.
//!
//! So a stream costs no process, stack switch or wake per job, and a run
//! replays event for event what a process per stream would have done, but
//! with fewer events executed.
//!
//! The resource holds the stream of a job in flight (queued work retires
//! even after its owner drops the stream); the stream holds its resource
//! weakly, so in-flight work is no reference cycle.

use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use crate::cell::SimCell;
use crate::kernel::{ProcCtx, ProcId, Shared, Sim, SimHandle, SimState, Timer};
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

/// Who a processor-sharing job belongs to, and so who goes on when it
/// retires.
#[derive(Clone, Copy)]
enum Owner {
    /// A process parked in [`GpsResource::acquire`]: woken.
    Proc { pid: ProcId, generation: u64 },
    /// A [`GpsStream`], held in `Gps::streams` at this index: its
    /// continuation runs. (A plain index keeps jobs free of drop glue,
    /// which process jobs would otherwise pay for in every completion.)
    Stream(u32),
}

struct GpsJob {
    owner: Owner,
    /// Remaining work, in units of `capacity × seconds`.
    remaining: f64,
}

struct Gps {
    /// Work units completed per second when a single job is active.
    capacity: f64,
    jobs: Vec<GpsJob>,
    /// The streams whose jobs are in flight, by the index their jobs hold;
    /// a slot is empty once its job retires, for the next stream job.
    streams: Vec<Option<Rc<dyn Resume>>>,
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

    /// Admit a job of `work` (positive) units at `now`. The caller
    /// reschedules the completion timer.
    #[inline]
    fn start(&mut self, now: SimTime, owner: Owner, work: f64) {
        self.settle(now);
        if self.jobs.is_empty() {
            if let Some(log) = self.busy_log.as_mut() {
                log.busy(now);
            }
        }
        self.jobs.push(GpsJob {
            owner,
            remaining: work,
        });
        self.version += 1;
    }

    /// Hold `stream` while its job is in flight; returns its slot.
    fn hold(&mut self, stream: Rc<dyn Resume>) -> Owner {
        let slot = match self.streams.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                self.streams.push(None);
                self.streams.len() - 1
            }
        };
        self.streams[slot] = Some(stream);
        Owner::Stream(slot as u32)
    }

    fn completion_eps(&self) -> f64 {
        // One event-queue tick (1 ns) of slack, scaled to work units.
        self.capacity * 2e-9 + 1e-12
    }
}

/// True for work that occupies a resource: NaN work is treated like zero
/// work, hence the explicit check.
fn occupies(work: f64) -> bool {
    !work.is_nan() && work > 0.0
}

/// A generalized-processor-sharing resource.
pub struct GpsResource {
    inner: Rc<SimCell<Gps>>,
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
            streams: Vec::new(),
            last: SimTime::ZERO,
            version: 0,
            busy_log: busy_log.then(Timeline::default),
        };
        GpsResource {
            inner: Rc::new(SimCell::with_id(shared.state.sim_id(), gps)),
        }
    }

    /// Block the calling process until `work` units complete under the
    /// processor-sharing discipline.
    pub fn acquire(&self, ctx: &ProcCtx, work: f64) {
        if !occupies(work) {
            return;
        }
        let mut st = ctx.state();
        {
            let mut g = self.inner.borrow_in(ctx);
            let generation = st.begin_park(ctx.pid());
            let owner = Owner::Proc {
                pid: ctx.pid(),
                generation,
            };
            g.start(st.now, owner, work);
        }
        reschedule(&mut st, Rc::clone(&self.inner));
        ctx.yield_parked(st);
    }

    /// Convenience: `work` expressed as a duration of exclusive use.
    pub fn acquire_for(&self, ctx: &ProcCtx, d: Dur) {
        let cap = self.inner.borrow_in(ctx).capacity;
        self.acquire(ctx, d.as_secs_f64() * cap);
    }

    /// An in-order stream of jobs on this resource. Each operation that
    /// retires is handed to `retire` with the current instant, inside the
    /// scheduler (see "Streams" in the module docs).
    pub fn stream<Op: 'static>(&self, retire: impl Fn(Op, SimTime) + 'static) -> GpsStream<Op> {
        let state = StreamState {
            gps: Rc::downgrade(&self.inner),
            queue: VecDeque::new(),
            current: None,
            busy: false,
        };
        GpsStream {
            inner: Rc::new(StreamCell {
                state: SimCell::with_id(self.inner.sim_id(), state),
                retire: Box::new(retire),
            }),
        }
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
fn reschedule(st: &mut SimState, inner: Rc<SimCell<Gps>>) {
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
    fn fire(self: Rc<Self>, st: &mut SimState, version: u64) {
        let mut g = self.borrow_with(st);
        if g.version != version {
            return; // stale timer; a newer one exists
        }
        let now = st.now;
        g.settle(now);
        let eps = g.completion_eps();
        // The first job to retire is resumed inline if it is a stream's and
        // its continuation would be the next event popped anyway: nothing
        // else is due now (and, being first, it has scheduled nothing yet).
        let mut first = true;
        let mut inline = None;
        // The borrow is of the cell, not of `st`: finished jobs' wakes and
        // continuations are scheduled as they leave, in job order.
        let Gps { jobs, streams, .. } = &mut *g;
        jobs.retain(|j| {
            let done = j.remaining <= eps;
            if done {
                match j.owner {
                    Owner::Proc { pid, generation } => st.schedule_wake(now, pid, generation),
                    Owner::Stream(slot) => {
                        let s = streams[slot as usize]
                            .take()
                            .expect("a stream job's stream");
                        if first && st.nothing_due_now() {
                            inline = Some(s);
                        } else {
                            st.schedule_timer(now, s, 0);
                        }
                    }
                }
                first = false;
            }
            !done
        });
        if g.jobs.is_empty() {
            if let Some(log) = g.busy_log.as_mut() {
                log.idle(now);
            }
        }
        g.version += 1;
        if let Some(s) = inline {
            s.resume(st, &mut g);
        }
        drop(g);
        reschedule(st, self);
    }
}

/// A stream as a job owner: what its continuation does.
trait Resume: Timer {
    /// Retire the job in flight, if any, then fire the markers queued
    /// behind it and start the next job on `g`. Returns whether a job
    /// started (the caller then reschedules `g`'s completion timer).
    fn resume(self: Rc<Self>, st: &mut SimState, g: &mut Gps) -> bool;
}

/// One entry of a stream's queue.
enum Item<Op> {
    /// An operation and its work units.
    Job(f64, Op),
    /// A marker that fires once everything queued before it has retired.
    Mark(SyncMarker),
}

struct StreamState<Op> {
    /// Held weakly: the resource holds the stream while its job is in
    /// flight.
    gps: Weak<SimCell<Gps>>,
    queue: VecDeque<Item<Op>>,
    /// The operation whose job is in flight.
    current: Option<Op>,
    /// A job is in flight or a continuation is scheduled; an idle stream's
    /// next submit schedules one.
    busy: bool,
}

struct StreamCell<Op> {
    state: SimCell<StreamState<Op>>,
    retire: Box<dyn Fn(Op, SimTime)>,
}

/// An in-order queue of jobs on one [`GpsResource`] that the scheduler runs
/// without a process: a CUDA stream on a GPU's compute engine (see
/// "Streams" in the module docs). Built by [`GpsResource::stream`].
///
/// Jobs of one stream run one at a time, in submit order; jobs of different
/// streams, and processes' jobs, share the resource.
pub struct GpsStream<Op> {
    inner: Rc<StreamCell<Op>>,
}

impl<Op: 'static> GpsStream<Op> {
    /// Queue `op`, to occupy the resource for `work` units and then be
    /// retired. Never blocks; zero, negative or NaN work retires `op` as
    /// soon as its turn comes.
    pub fn submit(&self, ctx: &ProcCtx, work: f64, op: Op) {
        self.push(ctx, Item::Job(work, op));
    }

    /// Queue `marker`: it fires once every job submitted before it has
    /// retired. Never blocks; wait with [`SyncMarker::wait`].
    pub fn record(&self, ctx: &ProcCtx, marker: &SyncMarker) {
        marker.inner.borrow_in(ctx).armed += 1;
        self.push(ctx, Item::Mark(marker.clone()));
    }

    fn push(&self, ctx: &ProcCtx, item: Item<Op>) {
        let mut s = self.inner.state.borrow_in(ctx);
        s.queue.push_back(item);
        if !s.busy {
            s.busy = true;
            let mut st = ctx.state();
            let now = st.now;
            st.schedule_timer(now, self.inner.clone(), 0);
        }
    }
}

impl<Op: 'static> Resume for StreamCell<Op> {
    fn resume(self: Rc<Self>, st: &mut SimState, g: &mut Gps) -> bool {
        let finished = self.state.borrow_with(st).current.take();
        if let Some(op) = finished {
            (self.retire)(op, st.now);
        }
        loop {
            let mut s = self.state.borrow_with(st);
            let Some(item) = s.queue.pop_front() else {
                s.busy = false;
                return false;
            };
            match item {
                Item::Mark(marker) => {
                    drop(s);
                    marker.fire(st);
                }
                Item::Job(work, op) if occupies(work) => {
                    s.current = Some(op);
                    drop(s);
                    let owner = g.hold(self);
                    g.start(st.now, owner, work);
                    return true;
                }
                Item::Job(_, op) => {
                    drop(s);
                    (self.retire)(op, st.now);
                }
            }
        }
    }
}

/// A continuation scheduled as an event of its own.
impl<Op: 'static> Timer for StreamCell<Op> {
    fn fire(self: Rc<Self>, st: &mut SimState, _token: u64) {
        let gps = self.state.borrow_with(st).gps.upgrade();
        let Some(gps) = gps else {
            return; // the resource is gone, and its jobs with it
        };
        let started = self.resume(st, &mut gps.borrow_with(st));
        if started {
            reschedule(st, gps);
        }
    }
}

struct Marker {
    /// Times the marker was queued on a stream, and times it fired.
    armed: u64,
    fired: u64,
    /// The process waiting for the last firing.
    waiter: Option<(ProcId, u64)>,
}

/// A rendezvous with streams: [`GpsStream::record`] queues it, and
/// [`wait`](Self::wait) returns once every recording of it has fired —
/// `cudaStreamSynchronize`'s and `cudaEventSynchronize`'s wait. One marker
/// is reused across recordings and costs no allocation per use. Clones
/// share the marker.
#[derive(Clone)]
pub struct SyncMarker {
    inner: Rc<SimCell<Marker>>,
}

impl SyncMarker {
    /// A marker that nothing waits for yet.
    pub fn new(h: &SimHandle) -> SyncMarker {
        let marker = Marker {
            armed: 0,
            fired: 0,
            waiter: None,
        };
        SyncMarker {
            inner: Rc::new(SimCell::new(h, marker)),
        }
    }

    /// Block the calling process until every recording of the marker has
    /// fired. Returns at once if it has; returns early if the simulation
    /// shuts down.
    ///
    /// # Panics
    ///
    /// If another process already waits for the marker.
    pub fn wait(&self, ctx: &ProcCtx) {
        loop {
            let mut m = self.inner.borrow_in(ctx);
            if m.fired == m.armed {
                return;
            }
            let mut st = ctx.state();
            if st.shutdown {
                return;
            }
            assert!(m.waiter.is_none(), "a sync marker has one waiter at a time");
            m.waiter = Some((ctx.pid(), st.begin_park(ctx.pid())));
            drop(m);
            let shutdown = ctx.yield_parked_raw(st);
            self.inner.borrow_in(ctx).waiter = None;
            if shutdown {
                return;
            }
        }
    }

    /// One recording reached the head of its stream: wake the waiter if
    /// it was the last one outstanding.
    fn fire(&self, st: &mut SimState) {
        let mut m = self.inner.borrow_with(st);
        m.fired += 1;
        if m.fired == m.armed {
            if let Some((pid, generation)) = m.waiter.take() {
                let now = st.now;
                st.schedule_wake(now, pid, generation);
            }
        }
    }
}

struct Fifo {
    /// The job currently holding the resource, if any.
    current: Option<(ProcId, u64)>,
    waiters: VecDeque<(ProcId, u64, Dur)>,
}

/// A strictly serialized resource: one job at a time, FIFO admission.
pub struct FifoResource {
    inner: Rc<SimCell<Fifo>>,
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
            inner: Rc::new(SimCell::with_id(shared.state.sim_id(), fifo)),
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
fn start_next(st: &mut SimState, inner: &Rc<SimCell<Fifo>>, f: &mut Fifo) {
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
    fn fire(self: Rc<Self>, st: &mut SimState, _token: u64) {
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
        let r = Rc::new(GpsResource::new(&sim, 2.0)); // 2 units/s
        let done = Rc::new(SimCell::new(&sim.handle(), SimTime::ZERO));
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
        let r = Rc::new(GpsResource::new(&sim, 1.0));
        let times = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let r = Rc::new(GpsResource::new(&sim, 1.0));
        let times = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
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
        let r = Rc::new(sim.handle().gps_with_busy_log(1.0));
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
        let r = Rc::new(FifoResource::new(&sim));
        let order = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let r = Rc::new(GpsResource::new(&sim, 1.0));
        let done = Rc::new(SimCell::new(&sim.handle(), false));
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
