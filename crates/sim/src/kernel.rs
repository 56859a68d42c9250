//! The discrete-event simulation kernel.
//!
//! The kernel is a *conservative, sequential* event executor: exactly one
//! simulated process runs at any moment, so a run with a fixed seed is fully
//! deterministic. Processes are backed by OS threads for ergonomics — a
//! simulated GPU server or serverless function is written as ordinary
//! straight-line Rust that calls blocking primitives ([`ProcCtx::sleep`],
//! channel `recv`, resource `acquire`) — but the kernel only ever lets one of
//! those threads make progress.
//!
//! # Handshake
//!
//! Exactly one thread holds the *baton* at any moment: the driver (inside
//! [`Sim::run_until`]) or one process thread. Whoever gives up control runs
//! the scheduler itself — the driver when a run starts, a process when it
//! parks or exits. Under the state lock it pops events in order, runs `Call`
//! events inline (resources use these as cancellable completion timers) and
//! skips stale wakes. The first live `Wake` decides where the baton goes:
//!
//! - a wake for the caller itself returns at once, with no thread switch;
//! - a wake for a started process sets that process's baton flag and
//!   `unpark`s its thread, and the caller parks on its own baton;
//! - a wake for a process that has not started yet spawns its thread, which
//!   begins holding the baton.
//!
//! The driver gets the baton back only when the queue is empty, the next
//! event lies past the deadline, the run is shutting down, or a process
//! panicked (its payload is stored and re-raised by `run_until`). A wake
//! therefore costs at most one OS context switch instead of a round trip
//! through the driver.
//!
//! # Process threads
//!
//! A process's body stays boxed in its record until its first live wake,
//! so a process scheduled far in the future holds no thread. Exited
//! threads are joined at the next thread start once they have finished,
//! and the rest when the [`Sim`] drops. Bodies of processes that never
//! started are dropped without running.
//!
//! # Wake generations
//!
//! Every park increments the process's generation counter; wake events carry
//! the generation they were scheduled for and are ignored if stale. This is
//! what makes `recv_timeout` (a race between a sender's wake and a timer
//! wake) correct without any cancellation machinery.
//!
//! # Shutdown
//!
//! Dropping [`Sim`] (or finishing `run` with processes still blocked) raises
//! a shutdown flag and resumes every parked process; blocking primitives then
//! unwind the process via a [`ShutdownSignal`] panic, which the process
//! wrapper catches. Well-behaved loops exit earlier by observing `None` from
//! channel `recv`.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{self, AtomicBool};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle, Thread};

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::telemetry::Telemetry;
use crate::time::{Dur, SimTime};

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Panic payload used to unwind simulated processes when the run shuts down.
pub struct ShutdownSignal;

pub(crate) type BoxCall = Box<dyn FnOnce(&mut SimState) + Send>;

pub(crate) enum EventKind {
    /// Resume a parked process, if its park generation still matches.
    Wake { pid: ProcId, generation: u64 },
    /// Run a closure against the kernel state (resource completion timers).
    Call(BoxCall),
}

pub(crate) struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: BinaryHeap is a max-heap and we want the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

type Body = Box<dyn FnOnce(&ProcCtx) + Send>;

/// The right to run the simulation: a flag plus the thread that waits for
/// it (see the module docs). `give`'s `Release` store pairs with `wait`'s
/// `Acquire` swap, so the new holder sees everything the old one did.
/// No spinning before `park`: with simulator threads sharing a CPU, a
/// spinning waiter only delays the holder it waits for.
struct Baton {
    held: AtomicBool,
    /// Set once, by the thread itself before it can first wait.
    thread: OnceLock<Thread>,
}

impl Baton {
    fn new() -> Baton {
        Baton {
            held: AtomicBool::new(false),
            thread: OnceLock::new(),
        }
    }

    fn for_current_thread() -> Arc<Baton> {
        let baton = Baton::new();
        let _ = baton.thread.set(thread::current());
        Arc::new(baton)
    }

    /// Hand the baton to its thread.
    fn give(&self) {
        self.held.store(true, atomic::Ordering::Release);
        self.thread
            .get()
            .expect("a baton's thread registers before it can wait")
            .unpark();
    }

    /// Block the calling thread until the baton is handed to it.
    fn wait(&self) {
        while !self.held.swap(false, atomic::Ordering::Acquire) {
            thread::park();
        }
    }
}

struct ProcRec {
    name: Arc<str>,
    /// Park generation; incremented on every park.
    generation: u64,
    parked: bool,
    alive: bool,
    /// The process body, until its first live wake starts the thread.
    body: Option<Body>,
    baton: Arc<Baton>,
    thread: Option<JoinHandle<()>>,
}

/// Where the baton goes after a scheduling pass.
enum Next {
    /// The caller's own wake came up: it keeps running.
    Caller,
    /// A started process, or the driver.
    Give(Arc<Baton>),
    /// A process that has not started: its new thread begins holding it.
    Start(ProcId, Body),
}

/// Mutable kernel state, guarded by a single mutex. Lock ordering throughout
/// the crate is: kernel state first, then any resource/channel state.
pub(crate) struct SimState {
    pub(crate) now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event>,
    /// Indexed by `ProcId.0`.
    procs: Vec<ProcRec>,
    pub(crate) shutdown: bool,
    pub(crate) rng: StdRng,
    /// Events popped and executed so far (wakes + calls, stale wakes
    /// included). The scale harness divides this by wall time to report
    /// kernel throughput.
    executed: u64,
    /// Events later than this stay queued (the current `run_until` bound).
    deadline: SimTime,
    /// The baton of the thread driving the run.
    driver: Arc<Baton>,
    /// The first non-shutdown panic of a process, for `run_until` to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// Exited processes whose threads are not joined yet.
    exited: Vec<ProcId>,
}

impl SimState {
    fn proc_mut(&mut self, pid: ProcId) -> &mut ProcRec {
        &mut self.procs[pid.0 as usize]
    }

    /// The driver's baton, re-registered if another thread now drives.
    fn driver_baton(&mut self) -> Arc<Baton> {
        let current = thread::current().id();
        if self.driver.thread.get().map(Thread::id) != Some(current) {
            self.driver = Baton::for_current_thread();
        }
        Arc::clone(&self.driver)
    }

    /// Execute events until one decides who holds the baton next; `caller`
    /// is the parking process, if any (see the module docs).
    fn next_holder(&mut self, caller: Option<ProcId>) -> Next {
        loop {
            if self.shutdown || self.panic.is_some() {
                return Next::Give(Arc::clone(&self.driver));
            }
            match self.queue.peek() {
                Some(ev) if ev.time <= self.deadline => {}
                _ => return Next::Give(Arc::clone(&self.driver)),
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = self.now.max(ev.time);
            self.executed += 1;
            match ev.kind {
                EventKind::Call(f) => f(self),
                EventKind::Wake { pid, generation } => {
                    let rec = self.proc_mut(pid);
                    if !(rec.alive && rec.parked && rec.generation == generation) {
                        continue; // stale wake
                    }
                    rec.parked = false;
                    if caller == Some(pid) {
                        return Next::Caller;
                    }
                    return match rec.body.take() {
                        Some(body) => Next::Start(pid, body),
                        None => Next::Give(Arc::clone(&rec.baton)),
                    };
                }
            }
        }
    }

    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    pub(crate) fn schedule_wake(&mut self, time: SimTime, pid: ProcId, generation: u64) {
        self.schedule(time, EventKind::Wake { pid, generation });
    }

    pub(crate) fn schedule_call(&mut self, time: SimTime, f: BoxCall) {
        self.schedule(time, EventKind::Call(f));
    }

    /// Mark `pid` as about to park and return the generation a waker must
    /// present to resume it.
    pub(crate) fn begin_park(&mut self, pid: ProcId) -> u64 {
        let rec = self.proc_mut(pid);
        rec.generation += 1;
        rec.parked = true;
        rec.generation
    }
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<SimState>,
    /// Per-simulation telemetry registry (disabled by default). Lives
    /// outside the state mutex: recording must never contend with the
    /// scheduler.
    telemetry: Arc<Telemetry>,
}

impl Shared {
    /// Run the scheduler as the baton holder and pass the baton on. Returns
    /// `true` if `caller`'s own wake came up, so it keeps the baton.
    fn pass_baton(
        self: &Arc<Self>,
        mut st: MutexGuard<'_, SimState>,
        caller: Option<ProcId>,
    ) -> bool {
        match st.next_holder(caller) {
            Next::Caller => return true,
            Next::Give(baton) => {
                drop(st);
                baton.give();
            }
            Next::Start(pid, body) => {
                let finished = self.start_thread(&mut st, pid, body);
                drop(st);
                for handle in finished {
                    let _ = handle.join();
                }
            }
        }
        false
    }

    /// Spawn `pid`'s thread, which begins holding the baton, and hand back
    /// the exited threads that have finished, for the caller to join.
    fn start_thread(
        self: &Arc<Self>,
        st: &mut SimState,
        pid: ProcId,
        body: Body,
    ) -> Vec<JoinHandle<()>> {
        let mut finished = Vec::new();
        let procs = &mut st.procs;
        st.exited.retain(|p| {
            let slot = &mut procs[p.0 as usize].thread;
            if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                finished.extend(slot.take());
                false
            } else {
                true
            }
        });
        let rec = st.proc_mut(pid);
        let ctx = ProcCtx {
            pid,
            name: Arc::clone(&rec.name),
            shared: Arc::clone(self),
            baton: Arc::clone(&rec.baton),
        };
        let handle = thread::Builder::new()
            .name(format!("sim-{}-{}", pid.0, rec.name))
            .spawn(move || {
                let _ = ctx.baton.thread.set(thread::current());
                let panic = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx))).err();
                ctx.exit(panic);
            })
            .expect("failed to spawn simulation process thread");
        rec.thread = Some(handle);
        finished
    }
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use dgsf_sim::{Sim, Dur};
/// let mut sim = Sim::new(42);
/// let (tx, rx) = sim.channel::<u32>();
/// sim.spawn("producer", move |ctx| {
///     ctx.sleep(Dur::from_millis(5));
///     tx.send(ctx, 7);
/// });
/// sim.spawn("consumer", move |ctx| {
///     let v = rx.recv(ctx).unwrap();
///     assert_eq!(v, 7);
///     assert_eq!(ctx.now().as_nanos(), 5_000_000);
/// });
/// sim.run();
/// ```
pub struct Sim {
    pub(crate) shared: Arc<Shared>,
}

impl Sim {
    /// Create a simulation whose internal RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Sim {
        let shared = Arc::new(Shared {
            state: Mutex::new(SimState {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                procs: Vec::new(),
                shutdown: false,
                rng: StdRng::seed_from_u64(seed),
                executed: 0,
                deadline: SimTime::MAX,
                driver: Baton::for_current_thread(),
                panic: None,
                exited: Vec::new(),
            }),
            telemetry: Arc::new(Telemetry::new()),
        });
        Sim { shared }
    }

    /// This simulation's telemetry registry (disabled until
    /// [`Telemetry::enable`] is called).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Spawn a process that becomes runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Spawn a process that becomes runnable at virtual time `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_inner(&self.shared, name, at, f)
    }

    /// Create an MPMC simulation channel (see [`crate::channel`]).
    pub fn channel<T: Send + 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
        crate::channel::channel(&self.shared)
    }

    /// Run until the event queue is exhausted, then shut down any processes
    /// still blocked on channels. Returns the final virtual time.
    ///
    /// Panics (re-raising the payload) if any simulated process panicked.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run events with `time <= deadline`; later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let driver = {
            let mut st = self.shared.state.lock();
            st.deadline = deadline;
            let driver = st.driver_baton();
            self.shared.pass_baton(st, None);
            driver
        };
        driver.wait();
        let mut st = self.shared.state.lock();
        if let Some(payload) = st.panic.take() {
            drop(st);
            panic::resume_unwind(payload);
        }
        st.now
    }

    /// Total kernel events executed so far (process wakes and call timers).
    /// Monotone across `run_until` calls; deterministic per seed.
    pub fn events_executed(&self) -> u64 {
        self.shared.state.lock().executed
    }

    /// Names of processes still alive (parked); useful for debugging hangs.
    pub fn blocked_processes(&self) -> Vec<String> {
        let st = self.shared.state.lock();
        st.procs
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.name.to_string())
            .collect()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Raise the shutdown flag, then resume every parked process one at a
        // time so each can unwind via ShutdownSignal. Processes spawned while
        // others unwind are visited too, since the slab only grows.
        let driver = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.queue.clear();
            st.driver_baton()
        };
        let mut idx = 0;
        let mut resumes = 0;
        loop {
            let mut st = self.shared.state.lock();
            let Some(rec) = st.procs.get_mut(idx) else {
                break;
            };
            // A process may park a bounded number of times while unwinding.
            if !(rec.alive && rec.parked) || resumes == 64 {
                idx += 1;
                resumes = 0;
                continue;
            }
            rec.parked = false;
            if let Some(body) = rec.body.take() {
                // Never started: drop what it captured without running it.
                rec.alive = false;
                drop(st);
                drop(body);
                continue;
            }
            resumes += 1;
            let baton = Arc::clone(&rec.baton);
            drop(st);
            baton.give();
            driver.wait();
        }
        let threads: Vec<JoinHandle<()>> = {
            let mut st = self.shared.state.lock();
            st.procs
                .iter_mut()
                .filter_map(|r| r.thread.take())
                .collect()
        };
        for handle in threads {
            let _ = handle.join();
        }
    }
}

fn spawn_inner<F>(shared: &Shared, name: &str, at: SimTime, f: F) -> ProcId
where
    F: FnOnce(&ProcCtx) + Send + 'static,
{
    let mut st = shared.state.lock();
    let pid = ProcId(st.procs.len() as u64);
    st.procs.push(ProcRec {
        name: Arc::from(name),
        generation: 0,
        parked: true, // parked on its initial wake
        alive: true,
        body: Some(Box::new(f)),
        baton: Arc::new(Baton::new()),
        thread: None,
    });
    let at = at.max(st.now);
    st.schedule_wake(at, pid, 0);
    pid
}

/// A cloneable, `Send` handle onto a simulation: lets library code create
/// channels and resources and spawn processes without borrowing [`Sim`]
/// itself (which stays with the driver) or a [`ProcCtx`] (which is pinned to
/// its process thread).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Arc<Shared>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Spawn a process runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Spawn a process runnable at `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_inner(&self.shared, name, at, f)
    }

    /// Create an MPMC simulation channel.
    pub fn channel<T: Send + 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
        crate::channel::channel(&self.shared)
    }

    /// Create a processor-sharing resource with the given capacity
    /// (work units per second).
    pub fn gps(&self, capacity: f64) -> crate::GpsResource {
        crate::resource::GpsResource::with_shared_pub(&self.shared, capacity)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        let mut st = self.shared.state.lock();
        f(&mut st.rng)
    }

    /// This simulation's telemetry registry.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }
}

impl Sim {
    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Handle a simulated process uses to interact with virtual time and the
/// kernel. Not `Clone`: it owns the process's baton and must stay on the
/// process's thread.
pub struct ProcCtx {
    pub(crate) pid: ProcId,
    name: Arc<str>,
    pub(crate) shared: Arc<Shared>,
    baton: Arc<Baton>,
}

impl ProcCtx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The name this process was spawned with — telemetry uses it as the
    /// span track.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This simulation's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Advance this process's virtual clock by `d`.
    pub fn sleep(&self, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        {
            let mut st = self.lock_state();
            let generation = st.begin_park(self.pid);
            let at = st.now + d;
            st.schedule_wake(at, self.pid, generation);
        }
        self.yield_parked();
    }

    /// Sleep until absolute time `t` (no-op if `t` is in the past).
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.sleep(t.since(now));
        }
    }

    /// Spawn a child process runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let at = self.now();
        spawn_inner(&self.shared, name, at, f)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        let mut st = self.shared.state.lock();
        f(&mut st.rng)
    }

    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    pub(crate) fn lock_state(&self) -> parking_lot::MutexGuard<'_, SimState> {
        self.shared.state.lock()
    }

    /// Pass the baton on after having registered a park (via
    /// [`SimState::begin_park`]) and return once resumed. Panics with
    /// [`ShutdownSignal`] if the simulation is shutting down.
    pub(crate) fn yield_parked(&self) {
        if self.yield_parked_impl() && !std::thread::panicking() {
            panic::panic_any(ShutdownSignal);
        }
    }

    /// Pass the baton on and wait for it; returns `true` if the simulation
    /// is shutting down (the caller is responsible for unwinding or
    /// returning cleanly).
    pub(crate) fn yield_parked_impl(&self) -> bool {
        if self.shared.pass_baton(self.lock_state(), Some(self.pid)) {
            // Our own wake came up; during shutdown the baton always goes
            // to the driver, so this is never a shutdown resume.
            return false;
        }
        self.baton.wait();
        self.lock_state().shutdown
    }

    /// Record this process's exit (and panic, if any) and pass the baton on
    /// for the last time.
    fn exit(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.lock_state();
        let rec = st.proc_mut(self.pid);
        rec.alive = false;
        rec.parked = false;
        st.exited.push(self.pid);
        if let Some(payload) = panic {
            if !payload.is::<ShutdownSignal>() && st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        self.shared.pass_baton(st, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_virtual_time_instantly() {
        let mut sim = Sim::new(1);
        let t = std::sync::Arc::new(Mutex::new(SimTime::ZERO));
        let t2 = t.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(Dur::from_secs(3600)); // an hour of virtual time
            *t2.lock() = ctx.now();
        });
        let wall = std::time::Instant::now();
        sim.run();
        assert_eq!(t.lock().as_nanos(), 3600 * 1_000_000_000);
        assert!(
            wall.elapsed().as_secs() < 5,
            "virtual time must not be wall time"
        );
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_tiebreak() {
        let mut sim = Sim::new(1);
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..5u32 {
            let log = log.clone();
            // All spawned at t=0; same wake time; must run in spawn order.
            sim.spawn(&format!("p{i}"), move |_ctx| {
                log.lock().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_runs_at_parent_time() {
        let mut sim = Sim::new(1);
        let seen = std::sync::Arc::new(Mutex::new(None));
        let seen2 = seen.clone();
        sim.spawn("parent", move |ctx| {
            ctx.sleep(Dur::from_millis(10));
            let seen2 = seen2.clone();
            ctx.spawn("child", move |c| {
                *seen2.lock() = Some(c.now());
            });
            ctx.sleep(Dur::from_millis(10));
        });
        sim.run();
        assert_eq!(seen.lock().unwrap(), SimTime::ZERO + Dur::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let hits = std::sync::Arc::new(Mutex::new(0u32));
        let h = hits.clone();
        sim.spawn("ticker", move |ctx| {
            for _ in 0..10 {
                ctx.sleep(Dur::from_secs(1));
                *h.lock() += 1;
            }
        });
        sim.run_until(SimTime::ZERO + Dur::from_millis(3500));
        assert_eq!(*hits.lock(), 3);
    }

    #[test]
    fn process_panic_propagates() {
        let mut sim = Sim::new(1);
        sim.spawn("bad", |_ctx| panic!("boom"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(err.is_err());
    }

    #[test]
    fn drop_shuts_down_blocked_processes() {
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u8>();
        sim.spawn("blocked-forever", move |ctx| {
            // recv returns None at shutdown; process exits cleanly.
            assert!(rx.recv(ctx).is_none());
        });
        sim.run();
        drop(sim); // must not hang or leak the thread
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        let sample = |seed: u64| {
            let mut sim = Sim::new(seed);
            let out = std::sync::Arc::new(Mutex::new(Vec::new()));
            let o = out.clone();
            sim.spawn("r", move |ctx| {
                for _ in 0..8 {
                    let v: u64 = ctx.with_rng(rand::Rng::gen);
                    o.lock().push(v);
                }
            });
            sim.run();
            let v = out.lock().clone();
            v
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    fn lone_sleeper_wakes_itself_without_losing_events() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            for _ in 0..10_000 {
                ctx.sleep(Dur::from_micros(1));
            }
        });
        let end = sim.run();
        // One start wake plus one wake per sleep.
        assert_eq!(sim.events_executed(), 10_001);
        assert_eq!(end, SimTime::ZERO + Dur::from_millis(10));
    }

    #[test]
    fn repeated_run_until_stops_at_each_deadline_and_resumes() {
        let mut sim = Sim::new(1);
        let hits = std::sync::Arc::new(Mutex::new(Vec::new()));
        let h = hits.clone();
        sim.spawn("ticker", move |ctx| {
            for _ in 0..5 {
                ctx.sleep(Dur::from_secs(1));
                h.lock().push(ctx.now());
            }
        });
        for k in 0..5u64 {
            let deadline = SimTime::ZERO + Dur::from_millis(1000 * k + 500);
            assert_eq!(sim.run_until(deadline), SimTime::ZERO + Dur::from_secs(k));
            assert_eq!(hits.lock().len() as u64, k);
            assert_eq!(sim.events_executed(), k + 1);
        }
        sim.run();
        let want: Vec<SimTime> = (1..=5).map(|s| SimTime::ZERO + Dur::from_secs(s)).collect();
        assert_eq!(*hits.lock(), want);
    }

    #[test]
    fn panic_on_first_wake_propagates_and_drop_does_not_hang() {
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u8>();
        let rx2 = rx.clone();
        sim.spawn("recv", move |ctx| assert!(rx.recv(ctx).is_none()));
        sim.spawn("recv-timeout", move |ctx| {
            let _ = rx2.recv_timeout(ctx, Dur::from_secs(3600));
        });
        sim.spawn_at("bad", SimTime::ZERO + Dur::from_secs(1), |_ctx| {
            panic!("boom")
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the process panic must reach the driver");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(sim.blocked_processes().len(), 2);
        drop(sim); // must shut down both parked receivers
    }

    #[test]
    fn dropping_unstarted_processes_drops_their_bodies_unrun() {
        struct Counted(std::sync::Arc<std::sync::atomic::AtomicU32>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, atomic::Ordering::SeqCst);
            }
        }
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut sim = Sim::new(1);
        for i in 0..3 {
            let c = Counted(dropped.clone());
            let r = ran.clone();
            let at = SimTime::ZERO + Dur::from_secs(10 + i);
            sim.spawn_at(&format!("later{i}"), at, move |_ctx| {
                let _keep = &c;
                r.fetch_add(1, atomic::Ordering::SeqCst);
            });
        }
        sim.run_until(SimTime::ZERO + Dur::from_secs(1));
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), 0);
        drop(sim);
        assert_eq!(ran.load(atomic::Ordering::SeqCst), 0);
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), 3);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn short_lived_processes_do_not_accumulate_threads() {
        fn live_threads() -> u64 {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
            line["Threads:".len()..].trim().parse().unwrap()
        }
        const N: u64 = 2_000;
        let mut sim = Sim::new(1);
        let peak = std::sync::Arc::new(Mutex::new(0u64));
        // All spawned up front, each running in its own 10 µs slot.
        for i in 0..N {
            let p = peak.clone();
            let at = SimTime::ZERO + Dur::from_micros(10 * i);
            sim.spawn_at("short", at, move |ctx| {
                ctx.sleep(Dur::from_micros(1));
                if i % 100 == 0 {
                    let mut peak = p.lock();
                    *peak = (*peak).max(live_threads());
                }
            });
        }
        sim.run();
        // Threads started at spawn would all be alive at once: N of them.
        let peak = *peak.lock();
        assert!(peak < 500, "peak live threads {peak}");
        // Finished threads are joined as later ones start.
        let unjoined = sim.shared.state.lock().exited.len();
        assert!(unjoined < 10, "{unjoined} exited threads never joined");
    }
}
