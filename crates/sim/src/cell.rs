//! The cells that hold a simulation's mutable state.
//!
//! A simulation runs on one thread: every process is a coroutine on the
//! thread that calls [`Sim::run_until`](crate::Sim::run_until). Its state
//! lives in [`SimCell`]s, each a `RefCell` tagged with the id of the
//! simulation it belongs to. A `SimCell` is neither `Send` nor `Sync`, so
//! a [`Sim`](crate::Sim), a [`SimHandle`] and everything built on them stay
//! on the thread that made them, and a borrow costs a `RefCell` flag.

use std::cell::{RefCell, RefMut};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::kernel::{ProcCtx, SimHandle, SimState};

/// A process-unique simulation id. The counter is atomic because tests run
/// simulations on many threads at once, each simulation on its own.
pub(crate) fn next_sim_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Mutable state of one simulation.
///
/// [`borrow_in`](Self::borrow_in) from a process checks that the cell
/// belongs to the process's simulation and borrows; [`lock`](Self::lock)
/// borrows from anywhere on the simulation's thread. Never keep a borrow
/// across a park (`sleep`, `recv`, `acquire`): the next process to borrow
/// the value would panic.
///
/// A cell stays on its simulation's thread:
///
/// ```compile_fail
/// let sim = dgsf_sim::Sim::new(1);
/// let cell = dgsf_sim::SimCell::new(&sim.handle(), 0u32);
/// std::thread::spawn(move || *cell.lock() += 1);
/// ```
pub struct SimCell<T> {
    sim: u64,
    value: RefCell<T>,
    /// A `RefCell` of a `Send` value is `Send`; this keeps the cell itself
    /// on its simulation's thread too.
    _not_send: PhantomData<*const ()>,
}

impl<T> SimCell<T> {
    /// A cell of the simulation `h` belongs to.
    pub fn new(h: &SimHandle, value: T) -> SimCell<T> {
        SimCell::with_id(h.shared.state.sim_id(), value)
    }

    pub(crate) fn with_id(sim: u64, value: T) -> SimCell<T> {
        SimCell {
            sim,
            value: RefCell::new(value),
            _not_send: PhantomData,
        }
    }

    /// The id of the simulation this cell belongs to.
    #[inline]
    pub(crate) fn sim_id(&self) -> u64 {
        self.sim
    }

    /// Borrow the value. Panics if it is already borrowed.
    pub fn lock(&self) -> RefMut<'_, T> {
        self.value.borrow_mut()
    }

    /// Borrow the value from inside a run of its simulation. Panics if
    /// `ctx` belongs to another simulation, or if the value is already
    /// borrowed.
    pub fn borrow_in(&self, ctx: &ProcCtx) -> RefMut<'_, T> {
        self.borrow_keyed(ctx.sim_id())
    }

    /// Borrow the value while the kernel state `st` of its simulation is
    /// borrowed (timer closures).
    pub(crate) fn borrow_with(&self, st: &SimState) -> RefMut<'_, T> {
        self.borrow_keyed(st.sim_id())
    }

    fn borrow_keyed(&self, sim: u64) -> RefMut<'_, T> {
        assert!(
            self.sim == sim,
            "a simulation cell (channel, resource or platform state) was used \
             from a process of another simulation"
        );
        self.value.borrow_mut()
    }
}

#[cfg(test)]
mod tests {
    use crate::{GpsResource, Sim};
    use std::panic::AssertUnwindSafe;

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
}
