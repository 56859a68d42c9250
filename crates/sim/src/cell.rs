//! One lock per simulation, and the cells it guards.
//!
//! Every [`Sim`](crate::Sim) owns one [`SimLock`], and its mutable state
//! lives in [`SimCell`]s under it. [`Sim::run_until`] and `Drop for Sim`
//! hold the lock for their whole duration, so every process runs on the
//! thread that holds it and reaches its state without an atomic
//! read-modify-write (see [`SimCell`]).
//!
//! # The thread-identity rule
//!
//! A process's stack can be resumed by a different OS thread than the one
//! that parked it (one `Sim` driven from two threads in turn), so the
//! address of a thread-local must never be cached across a stack switch.
//! [`thread_token`] reads it afresh in a function that is never inlined and
//! that the compiler must not treat as pure. A guard from [`SimCell::lock`]
//! must not be kept across a park either: the lock's re-entry count would
//! move with the process to whichever thread resumes it.

use std::cell::{Cell, RefCell, RefMut};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::kernel::{ProcCtx, SimHandle, SimState};

thread_local! {
    static THREAD: u8 = const { 0 };
}

/// A value unique to the calling OS thread among live threads: the address
/// of a thread-local. Never inlined, and opaque to the optimiser, so two
/// calls on either side of a stack switch are never merged into one read.
#[inline(never)]
fn thread_token() -> usize {
    THREAD.with(|t| std::hint::black_box(t as *const u8 as usize))
}

/// Who may run: the state behind a [`SimLock`]'s blocking path.
struct Gate {
    held: bool,
    waiting: u32,
    /// Entries that took the blocking path.
    #[cfg(test)]
    blocked: u64,
}

/// A reentrant lock, one per simulation.
///
/// The holding thread re-enters with a thread-identity read, a compare and
/// a non-atomic count. Another thread blocks on a plain `Mutex` + `Condvar`,
/// which is woken only if somebody waits.
pub(crate) struct SimLock {
    /// [`thread_token`] of the holder; 0 when free. Written only by the
    /// thread that holds (or has just taken) the lock. `Relaxed` suffices:
    /// it publishes no data, a thread reads its own token only if it stored
    /// it itself, and every other reader takes the gate, whose mutex orders
    /// the handover.
    owner: AtomicUsize,
    /// Re-entry depth. Read and written only by the holder.
    depth: Cell<u32>,
    gate: Mutex<Gate>,
    freed: Condvar,
}

// SAFETY: `depth` is the only field that is not `Sync`. It is read and
// written only by the thread that holds the lock (`enter` checks `owner`,
// which only that thread can have stored), and the gate's mutex orders one
// holder's writes before the next holder's reads. `owner` is atomic;
// `gate` and `freed` are `Sync`.
unsafe impl Sync for SimLock {}

impl SimLock {
    pub(crate) fn new() -> Arc<SimLock> {
        Arc::new(SimLock {
            owner: AtomicUsize::new(0),
            depth: Cell::new(0),
            gate: Mutex::new(Gate {
                held: false,
                waiting: 0,
                #[cfg(test)]
                blocked: 0,
            }),
            freed: Condvar::new(),
        })
    }

    /// Enter the lock, blocking while another thread holds it.
    #[inline]
    pub(crate) fn enter(&self) -> Held<'_> {
        let me = thread_token();
        if self.owner.load(Ordering::Relaxed) == me {
            self.depth.set(self.depth.get() + 1);
        } else {
            self.block(me);
        }
        Held {
            lock: self,
            _not_send: PhantomData,
        }
    }

    #[cold]
    #[inline(never)]
    fn block(&self, me: usize) {
        // Never poisoned: nothing panics while the gate is locked.
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        while gate.held {
            gate.waiting += 1;
            gate = self
                .freed
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
            gate.waiting -= 1;
        }
        gate.held = true;
        #[cfg(test)]
        {
            gate.blocked += 1;
        }
        drop(gate);
        self.owner.store(me, Ordering::Relaxed);
        self.depth.set(1);
    }

    #[inline]
    fn leave(&self) {
        let depth = self.depth.get() - 1;
        self.depth.set(depth);
        if depth == 0 {
            self.release();
        }
    }

    #[cold]
    #[inline(never)]
    fn release(&self) {
        self.owner.store(0, Ordering::Relaxed);
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        gate.held = false;
        if gate.waiting > 0 {
            self.freed.notify_one();
        }
    }

    /// Re-entry depth; meaningful only to the holder.
    pub(crate) fn depth(&self) -> u32 {
        self.depth.get()
    }

    /// Entries that took the blocking path so far.
    #[cfg(test)]
    fn blocked_entries(&self) -> u64 {
        self.gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .blocked
    }
}

/// Proof that this thread holds a [`SimLock`]; leaves it on drop. Pinned to
/// its thread.
pub(crate) struct Held<'a> {
    lock: &'a SimLock,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Held<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.leave();
    }
}

/// Mutable simulation state under the lock of the simulation it belongs to.
///
/// [`Sim::run_until`](crate::Sim::run_until) holds that lock for the whole
/// run, so [`borrow_in`](Self::borrow_in) from a process costs a pointer
/// compare and a `RefCell` flag. [`lock`](Self::lock) works anywhere and
/// blocks while another OS thread runs the simulation. Never keep a borrow
/// across a park (`sleep`, `recv`, `acquire`): the next process to borrow
/// the value would panic.
///
/// `Sync` iff `T: Send`: only the thread that holds the lock borrows the
/// value, so sharing the cell only ever hands the value from one holder to
/// the next.
pub struct SimCell<T> {
    lock: Arc<SimLock>,
    value: RefCell<T>,
}

// SAFETY: every borrow of `value` happens on the thread that holds `lock`:
// `lock` enters it, and `borrow_in`/`borrow_with`/`borrow_held` take a key
// that exists only on that thread. The lock's gate orders one holder's
// accesses before the next holder's.
unsafe impl<T: Send> Sync for SimCell<T> {}

impl<T> SimCell<T> {
    /// A cell under the lock of the simulation `h` belongs to.
    pub fn new(h: &SimHandle, value: T) -> SimCell<T> {
        SimCell::with_lock(h.shared.state.lock_arc(), value)
    }

    pub(crate) fn with_lock(lock: &Arc<SimLock>, value: T) -> SimCell<T> {
        SimCell {
            lock: Arc::clone(lock),
            value: RefCell::new(value),
        }
    }

    pub(crate) fn lock_arc(&self) -> &Arc<SimLock> {
        &self.lock
    }

    /// Enter the lock without borrowing (the kernel's run and shutdown).
    pub(crate) fn hold(&self) -> Held<'_> {
        self.lock.enter()
    }

    /// Enter the simulation's lock and borrow the value. Blocks while
    /// another OS thread runs the simulation. Panics if the value is
    /// already borrowed.
    pub fn lock(&self) -> SimGuard<'_, T> {
        let held = self.lock.enter();
        SimGuard {
            value: self.value.borrow_mut(),
            _held: held,
        }
    }

    /// Borrow the value from inside a run of its simulation. Panics if
    /// `ctx` belongs to another simulation, or if the value is already
    /// borrowed.
    pub fn borrow_in(&self, ctx: &ProcCtx) -> RefMut<'_, T> {
        self.borrow_keyed(ctx.sim_lock())
    }

    /// Borrow the value while the kernel state `st` of its simulation is
    /// borrowed (timer closures).
    pub(crate) fn borrow_with(&self, st: &SimState) -> RefMut<'_, T> {
        self.borrow_keyed(st.sim_lock())
    }

    /// Borrow the value while `held` proves the lock is held.
    pub(crate) fn borrow_held(&self, held: &Held<'_>) -> RefMut<'_, T> {
        self.borrow_keyed(held.lock)
    }

    fn borrow_keyed(&self, lock: &SimLock) -> RefMut<'_, T> {
        assert!(
            std::ptr::eq(Arc::as_ptr(&self.lock), lock),
            "a simulation cell (channel, resource or platform state) was used \
             from a process of another simulation"
        );
        self.value.borrow_mut()
    }
}

/// A borrow of a [`SimCell`]'s value, holding its simulation's lock.
pub struct SimGuard<'a, T> {
    // Declared first, so the borrow ends before the lock is left.
    value: RefMut<'a, T>,
    _held: Held<'a>,
}

impl<T> Deref for SimGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for SimGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dur, FifoResource, GpsResource, Sim, SimReceiver, SimSender, SimTime, Telemetry};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + Dur::from_secs(s)
    }

    #[test]
    fn public_types_keep_their_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send::<Sim>();
        send_sync::<SimHandle>();
        send_sync::<SimSender<u8>>();
        send_sync::<SimReceiver<u8>>();
        send_sync::<GpsResource>();
        send_sync::<FifoResource>();
        send_sync::<Telemetry>();
        send_sync::<SimCell<Vec<u8>>>();
    }

    /// Runs `f` on a thread of its own and fails, instead of hanging, if it
    /// does not finish within a minute (a deadlocked lock never would).
    fn with_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).unwrap());
        rx.recv_timeout(Duration::from_secs(60))
            .expect("deadlock: the run did not finish within a minute")
    }

    #[test]
    fn a_process_resumed_on_another_thread_reenters_the_lock() {
        let seen = with_watchdog(|| {
            let sim = Sim::new(1);
            let h = sim.handle();
            let gps = GpsResource::new(&sim, 1.0);
            let (tx, rx) = sim.channel::<u8>();
            let (out_tx, out_rx) = mpsc::channel();
            sim.spawn("migrant", move |ctx| {
                let keyless = || {
                    let child = h.spawn("child", |_| {});
                    (h.now(), tx.queued(), gps.active_jobs(), child.0)
                };
                let first = keyless();
                let before = h.now();
                tx.send(ctx, 7);
                // The first run ends here; the second resumes this stack on
                // another OS thread.
                ctx.sleep(Dur::from_secs(2));
                let after = h.now();
                out_tx
                    .send((first, keyless(), after.since(before)))
                    .unwrap();
                assert_eq!(rx.recv(ctx), Some(7));
            });
            let sim = &std::sync::Mutex::new(sim);
            let (ran_tx, ran_rx) = mpsc::channel();
            let (exit_tx, exit_rx) = mpsc::channel::<()>();
            std::thread::scope(|s| {
                // The first run's thread outlives the second run, so the two
                // threads' thread-locals cannot share an address.
                s.spawn(move || {
                    sim.lock().unwrap().run_until(secs(1));
                    ran_tx.send(()).unwrap();
                    exit_rx.recv().unwrap();
                });
                ran_rx.recv().unwrap();
                sim.lock().unwrap().run();
                exit_tx.send(()).unwrap();
            });
            out_rx.recv().unwrap()
        });
        let (first, second, slept) = seen;
        assert_eq!((first, second), ((secs(0), 0, 0, 1), (secs(2), 1, 0, 2)));
        assert_eq!(slept, Dur::from_secs(2));
    }

    #[test]
    fn a_keyless_call_from_another_thread_waits_for_the_run() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (started_tx, started_rx) = mpsc::channel();
        let finished = Arc::new(AtomicBool::new(false));
        let f = finished.clone();
        sim.spawn("busy", move |ctx| {
            ctx.sleep(Dur::from_secs(1));
            started_tx.send(()).unwrap();
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(200) {
                std::hint::spin_loop();
            }
            f.store(true, Ordering::SeqCst);
        });
        std::thread::scope(|s| {
            let other = s.spawn(move || {
                started_rx.recv().unwrap();
                let now = h.now();
                (now, finished.load(Ordering::SeqCst))
            });
            assert_eq!(sim.run(), secs(1));
            assert_eq!(other.join().unwrap(), (secs(1), true));
        });
    }

    fn panic_message(run: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn cells_of_one_sim_panic_in_another_sims_process() {
        let a = Sim::new(1);
        let (tx, _rx) = a.channel::<u8>();
        let gps = GpsResource::new(&a, 1.0);
        let mut b = Sim::new(2);
        b.spawn("sender", move |ctx| tx.send(ctx, 1));
        assert!(panic_message(|| {
            b.run();
        })
        .contains("used from a process of another simulation"));
        let mut c = Sim::new(3);
        c.spawn("acquirer", move |ctx| gps.acquire(ctx, 1.0));
        assert!(panic_message(|| {
            c.run();
        })
        .contains("used from a process of another simulation"));
    }

    #[test]
    fn steady_state_round_trips_take_the_blocking_path_only_at_run_entry() {
        const N: u32 = 10_000;
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (ping_tx, ping_rx) = sim.channel::<u32>();
        let (pong_tx, pong_rx) = sim.channel::<u32>();
        sim.spawn("client", move |ctx| {
            for i in 0..N {
                ping_tx.send(ctx, i);
                assert_eq!(pong_rx.recv(ctx), Some(i));
                assert_eq!(h.now(), ctx.now());
            }
        });
        sim.spawn("server", move |ctx| {
            while let Some(i) = ping_rx.recv(ctx) {
                ctx.sleep(Dur::from_micros(1));
                pong_tx.send(ctx, i);
            }
        });
        let lock = Arc::clone(sim.shared.state.lock_arc());
        let before = lock.blocked_entries();
        sim.run();
        assert_eq!(lock.blocked_entries() - before, 1);
    }
}
