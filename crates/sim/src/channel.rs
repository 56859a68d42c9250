//! MPMC channels between simulated processes.
//!
//! Sends never block (the queue is unbounded); receives block the calling
//! *simulated* process until a message is available, a timeout elapses in
//! virtual time, or the simulation shuts down. Delivery latency is zero —
//! model network/queueing delay explicitly with resources or sleeps.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::cell::SimCell;
use crate::kernel::{ProcCtx, ProcId, Shared};
use crate::time::Dur;

struct ChanState<T> {
    queue: VecDeque<T>,
    /// Parked receivers, FIFO. Entries are removed either by a sender (which
    /// schedules their wake) or by the receiver itself on timeout/shutdown.
    waiters: VecDeque<(ProcId, u64)>,
}

/// Sending half of a simulation channel. Cloneable.
pub struct SimSender<T> {
    inner: Rc<SimCell<ChanState<T>>>,
}

/// Receiving half of a simulation channel. Cloneable (MPMC).
pub struct SimReceiver<T> {
    inner: Rc<SimCell<ChanState<T>>>,
}

impl<T> Clone for SimSender<T> {
    fn clone(&self) -> Self {
        SimSender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Clone for SimReceiver<T> {
    fn clone(&self) -> Self {
        SimReceiver {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// Why a `recv_timeout` returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The deadline passed with no message.
    Timeout,
    /// The simulation is shutting down; the process should return.
    Shutdown,
}

pub(crate) fn channel<T>(shared: &Shared) -> (SimSender<T>, SimReceiver<T>) {
    let state = ChanState {
        queue: VecDeque::new(),
        waiters: VecDeque::new(),
    };
    let inner = Rc::new(SimCell::with_id(shared.state.sim_id(), state));
    (
        SimSender {
            inner: Rc::clone(&inner),
        },
        SimReceiver { inner },
    )
}

impl<T> SimSender<T> {
    /// Enqueue `v` and wake one parked receiver (at the current virtual
    /// time). Never blocks.
    pub fn send(&self, ctx: &ProcCtx, v: T) {
        let mut ch = self.inner.borrow_in(ctx);
        ch.queue.push_back(v);
        if let Some((pid, generation)) = ch.waiters.pop_front() {
            let mut st = ctx.state();
            let now = st.now;
            st.schedule_wake(now, pid, generation);
        }
    }

    /// Number of queued (undelivered) messages.
    pub fn queued(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

impl<T> SimReceiver<T> {
    /// Block the simulated process until a message arrives. Returns `None`
    /// when the simulation is shutting down.
    pub fn recv(&self, ctx: &ProcCtx) -> Option<T> {
        loop {
            let mut ch = self.inner.borrow_in(ctx);
            if let Some(v) = ch.queue.pop_front() {
                return Some(v);
            }
            let mut st = ctx.state();
            if st.shutdown {
                return None;
            }
            let generation = st.begin_park(ctx.pid());
            ch.waiters.push_back((ctx.pid(), generation));
            drop(ch);
            let shutdown = ctx.yield_parked_raw(st);
            // A spurious wake is possible under MPMC (another receiver took
            // the message); loop and re-park.
            self.deregister(ctx);
            if shutdown {
                return None;
            }
        }
    }

    /// Block until a message arrives or `timeout` of virtual time elapses.
    pub fn recv_timeout(&self, ctx: &ProcCtx, timeout: Dur) -> Result<T, RecvError> {
        let deadline = ctx.now() + timeout;
        loop {
            let mut ch = self.inner.borrow_in(ctx);
            if let Some(v) = ch.queue.pop_front() {
                return Ok(v);
            }
            let mut st = ctx.state();
            if st.shutdown {
                return Err(RecvError::Shutdown);
            }
            if st.now >= deadline {
                return Err(RecvError::Timeout);
            }
            let generation = st.begin_park(ctx.pid());
            ch.waiters.push_back((ctx.pid(), generation));
            drop(ch);
            st.schedule_wake(deadline, ctx.pid(), generation);
            let shutdown = ctx.yield_parked_raw(st);
            self.deregister(ctx);
            if shutdown {
                return Err(RecvError::Shutdown);
            }
        }
    }

    /// Drain everything currently queued (non-blocking).
    pub fn drain(&self) -> Vec<T> {
        self.inner.lock().queue.drain(..).collect()
    }

    /// Remove this process from the waiter list, if still registered.
    fn deregister(&self, ctx: &ProcCtx) {
        let pid = ctx.pid();
        self.inner.borrow_in(ctx).waiters.retain(|(p, _)| *p != pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::SimTime;

    #[test]
    fn send_wakes_receiver_at_send_time() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u32>();
        let got = Rc::new(SimCell::new(&sim.handle(), None));
        let g = got.clone();
        sim.spawn("rx", move |ctx| {
            let v = rx.recv(ctx).unwrap();
            *g.lock() = Some((v, ctx.now()));
        });
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Dur::from_millis(42));
            tx.send(ctx, 99);
        });
        sim.run();
        let (v, t) = got.lock().unwrap();
        assert_eq!(v, 99);
        assert_eq!(t, SimTime::ZERO + Dur::from_millis(42));
    }

    #[test]
    fn recv_timeout_times_out_in_virtual_time() {
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u32>();
        let out = Rc::new(SimCell::new(&sim.handle(), None));
        let o = out.clone();
        sim.spawn("rx", move |ctx| {
            let r = rx.recv_timeout(ctx, Dur::from_secs(5));
            *o.lock() = Some((r, ctx.now()));
        });
        sim.run();
        let (r, t) = out.lock().take().unwrap();
        assert_eq!(r, Err(RecvError::Timeout));
        assert_eq!(t, SimTime::ZERO + Dur::from_secs(5));
    }

    #[test]
    fn message_beats_timeout() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u32>();
        let out = Rc::new(SimCell::new(&sim.handle(), None));
        let o = out.clone();
        sim.spawn("rx", move |ctx| {
            let r = rx.recv_timeout(ctx, Dur::from_secs(5));
            *o.lock() = Some((r, ctx.now()));
        });
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Dur::from_secs(1));
            tx.send(ctx, 7);
        });
        sim.run();
        let (r, t) = out.lock().take().unwrap();
        assert_eq!(r, Ok(7));
        assert_eq!(t, SimTime::ZERO + Dur::from_secs(1));
        // The stale timer wake at t=5s must not disturb anything (run ended).
    }

    #[test]
    fn fifo_order_between_messages() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u32>();
        let out = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        let o = out.clone();
        sim.spawn("rx", move |ctx| {
            for _ in 0..3 {
                o.lock().push(rx.recv(ctx).unwrap());
            }
        });
        sim.spawn("tx", move |ctx| {
            for v in [1, 2, 3] {
                tx.send(ctx, v);
                ctx.sleep(Dur::from_millis(1));
            }
        });
        sim.run();
        assert_eq!(*out.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn mpmc_distributes_messages() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u32>();
        let count = Rc::new(SimCell::new(&sim.handle(), 0u32));
        for i in 0..4 {
            let rx = rx.clone();
            let count = count.clone();
            sim.spawn(&format!("worker{i}"), move |ctx| {
                while let Ok(_v) = rx.recv_timeout(ctx, Dur::from_secs(1)) {
                    ctx.sleep(Dur::from_millis(10));
                    *count.lock() += 1;
                }
            });
        }
        sim.spawn("producer", move |ctx| {
            for v in 0..20 {
                tx.send(ctx, v);
                ctx.sleep(Dur::from_millis(1));
            }
        });
        sim.run();
        assert_eq!(*count.lock(), 20);
    }
}
