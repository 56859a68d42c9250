//! The discrete-event simulation kernel.
//!
//! The kernel is a *conservative, sequential* event executor: exactly one
//! simulated process runs at any moment, so a run with a fixed seed is fully
//! deterministic. Each process is a stackful coroutine on the thread that
//! calls [`Sim::run_until`]. A simulated GPU server or serverless function
//! is written as ordinary straight-line Rust that calls blocking primitives
//! ([`ProcCtx::sleep`], channel `recv`, resource `acquire`); blocking
//! switches to another stack instead of parking an OS thread.
//!
//! # Handshake
//!
//! Exactly one context holds the *baton* at any moment: the driver (inside
//! [`Sim::run_until`]) or one process. Whoever gives up control runs the
//! scheduler itself — the driver when a run starts, a process when it
//! parks or exits. With the kernel state borrowed it pops events in order,
//! fires `Timer` events inline (resources use these as completion timers;
//! a stale one sees its token is out of date and returns) and skips stale
//! wakes. The first live `Wake` decides where the baton goes:
//!
//! - a wake for the caller itself returns at once, with no switch;
//! - a wake for a started process switches to that process's saved stack
//!   pointer;
//! - a wake for a process that has not started yet takes a stack and
//!   switches onto the process's entry.
//!
//! The driver is just another saved context. It gets the baton back only
//! when the queue is empty, the next event lies past the deadline, the run
//! is shutting down, or a process panicked (its payload is stored and
//! re-raised by `run_until`). A wake therefore costs at most one stack
//! switch — push six callee-saved registers, swap stack pointers, pop —
//! and never a round trip through the driver. The state borrow is always
//! dropped before a switch, since the next holder takes it.
//!
//! # Event queue
//!
//! Events run in time order, and events due at the same instant run in
//! the order they were scheduled. The queue is a monotone radix queue
//! (a radix heap: Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) with FIFO
//! buckets. It keeps `last`, the time of the latest refill, and files an
//! event due at `t` by the highest bit in which `t` differs from `last`:
//! bucket 0 (`due`) holds events due at `last`, and bucket `b` those whose
//! time first differs from `last` in bit `b − 1`. Every event is due at
//! `last` or later. When `due` runs dry, the lowest non-empty bucket's
//! minimum `m` becomes `last`, and that bucket's events move, in order,
//! into lower buckets, so an event moves down at most 64 times in all.
//! Each bucket keeps its minimum as events are pushed, so a refill reads
//! `m` instead of scanning the bucket for it.
//! Why that is exactly schedule order among equal times:
//!
//! - A push appends, so it lands after every event scheduled before it.
//! - A refill copies the lowest non-empty bucket, in order, into buckets
//!   that were all empty (every lower bucket, and `due`).
//! - So every bucket stays in schedule order. Events due at `m` share one
//!   bucket, and they reach `due` in schedule order before any later push
//!   for `m` appends behind them.
//!
//! `last` never passes `now` outside a pop, and every event is scheduled
//! at `now` or later, so a push never lands below `last`. That holds for a
//! driver that spawns or sends between `run_until` calls too. A refill
//! happens only once the `run_until` deadline allows the minimum it finds.
//!
//! An event is 24 bytes of plain data, with no drop glue: its time, a
//! 64-bit stamp (a wake's park generation or a timer's token) and a 32-bit
//! target. The target is a process id, or, with its top bit set, a slot of
//! the timer slab (`TimerSlab`): a `Vec` of slots, each holding one pending
//! timer's `Rc<dyn Timer>`, with an intrusive free list. The slot is freed
//! when its event pops, just before the timer fires, so a timer that
//! reschedules itself takes the same slot again. Since events are copied,
//! never dropped, `due` is a `Vec` read through a head cursor and emptied
//! when the cursor reaches its end, and a refill copies the bucket it
//! empties.
//!
//! The stamp keeps 64 bits, which makes the event 24 bytes and not 16. A
//! `recv_timeout` whose message comes first leaves its timeout wake queued
//! (see "Wake generations"); if its process parked 2^32 more times before
//! that wake's time, a 32-bit generation would wrap back to the stale
//! wake's value, and the wake would resume the process from an unrelated
//! park.
//!
//! # One thread
//!
//! A simulation's mutable state — this kernel state, channels, resources,
//! telemetry and the platform's hot maps — lives in [`SimCell`]s tagged
//! with the id [`Sim::new`] draws. A `SimCell` is neither `Send` nor
//! `Sync`, so a [`Sim`], its [`SimHandle`]s and every process stay on the
//! thread that built the simulation, and a borrow is a `RefCell` flag.
//! [`SimCell::borrow_in`] also checks that the cell belongs to the
//! context's simulation.
//!
//! # Process stacks
//!
//! A process's body stays boxed in its record until its first live wake,
//! so a process scheduled far in the future holds no stack. A stack is
//! 2 MiB of anonymous `mmap` above one `PROT_NONE` guard page, the budget
//! of a std thread. An exited process's stack is retired until the next
//! scheduling pass, which runs on another stack, and then waits on a free
//! list for the next process start; every stack is unmapped when the
//! simulation's state drops. Bodies of processes that never started are
//! dropped without running. The switch is written for x86_64 Linux only;
//! other targets fail to compile.
//!
//! # Wake generations
//!
//! Every park increments the process's generation counter; wake events carry
//! the generation they were scheduled for and are ignored if stale. This is
//! what makes `recv_timeout` (a race between a sender's wake and a timer
//! wake) correct without any cancellation machinery.
//!
//! An exited process's record (its [`ProcId`]) is reused by a later spawn,
//! so the process table stays as large as the most processes alive at
//! once, not as every process ever spawned. The generation counter carries
//! on across the reuse: wakes still queued for the slot's last process are
//! older than any generation of its new one, and stay stale.
//!
//! # Shutdown
//!
//! Dropping [`Sim`] raises a shutdown flag and resumes every parked process
//! in turn; blocking primitives then unwind the process via a
//! [`ShutdownSignal`] panic, which the process's entry catches. Well-behaved
//! loops exit earlier by observing `None` from channel `recv`.
//!
//! # Unwinding
//!
//! Unwinding never crosses a switch: each process's entry catches its
//! body's panic before it exits. std counts panics per OS thread, so the
//! driver and every process share one count. A process that parks while it
//! unwinds (a `Drop` that calls `recv`, say) therefore never switches: the
//! park returns at once as a shutdown resume, and no other process runs
//! while `thread::panicking()` holds on its behalf. For the same reason a
//! [`Sim`] dropped while its driver unwinds resumes none of its started
//! processes; their stacks, and the state they keep alive, are leaked.

use std::any::Any;
use std::cell::{Cell, RefMut};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell::{next_sim_id, SimCell};
use crate::telemetry::kind::Track;
use crate::telemetry::{Id, Telemetry};
use crate::time::{Dur, SimTime};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("dgsf-sim's process stack switch (`dgsf_sim_switch`) exists for x86_64 Linux only");

// `dgsf_sim_switch(save, to)`: push the callee-saved registers, store the
// stack pointer to `*save`, load `to`, pop the registers saved there and
// return into the context that last switched away from that stack.
// `dgsf_sim_start` is where a fresh stack's first switch returns to (see
// `Stack::prepare`): it passes r13 to `coroutine_main`.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
std::arch::global_asm!(
    ".pushsection .text.dgsf_sim_switch,\"ax\",@progbits",
    ".p2align 4",
    ".globl dgsf_sim_switch",
    ".hidden dgsf_sim_switch",
    ".type dgsf_sim_switch,@function",
    "dgsf_sim_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size dgsf_sim_switch, .-dgsf_sim_switch",
    ".globl dgsf_sim_start",
    ".hidden dgsf_sim_start",
    ".type dgsf_sim_start,@function",
    "dgsf_sim_start:",
    "mov rdi, r13",
    "jmp {main}",
    ".size dgsf_sim_start, .-dgsf_sim_start",
    ".popsection",
    main = sym coroutine_main,
);

extern "C" {
    fn dgsf_sim_switch(save: *mut usize, to: usize);
    fn dgsf_sim_start();
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// Usable bytes of a process stack, as for a std thread.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD_BYTES: usize = 4096;

/// One process stack: an anonymous mapping of a guard page and
/// `STACK_BYTES` above it, unmapped on drop.
struct Stack(*mut u8);

impl Stack {
    fn map() -> Stack {
        const PROT_NONE: i32 = 0;
        const PROT_READ: i32 = 1;
        const PROT_WRITE: i32 = 2;
        const MAP_PRIVATE: i32 = 0x02;
        const MAP_ANONYMOUS: i32 = 0x20;
        const MAP_NORESERVE: i32 = 0x4000;
        const MAP_STACK: i32 = 0x20000;
        let len = GUARD_BYTES + STACK_BYTES;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        assert!(base as isize != -1, "failed to map a process stack");
        // SAFETY: the guard page is the start of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "failed to protect a process stack's guard page");
        Stack(base)
    }

    /// Lay out the frame that the first switch onto this stack pops, and
    /// return its stack pointer. From the (16-byte aligned) top down: a zero
    /// return address for `coroutine_main`, so backtraces stop there;
    /// `dgsf_sim_start` for the switch's `ret`; rbp = 0, rbx, r12,
    /// r13 = `start`, r14, r15.
    fn prepare(&self, start: *mut Start) -> usize {
        let entry = dgsf_sim_start as unsafe extern "C" fn() as usize;
        let frame = [0, 0, start as usize, 0, 0, 0, entry, 0];
        let top = self.0 as usize + GUARD_BYTES + STACK_BYTES;
        let sp = top - std::mem::size_of_val(&frame);
        // SAFETY: the frame lies in this stack's writable top, which no
        // process uses: a stack is prepared only when it is not in use.
        unsafe { (sp as *mut [usize; 8]).write(frame) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and no frame on it will run again:
        // stacks drop with the kernel state, and a started process that has
        // not exited keeps that state alive through its `ProcCtx`.
        unsafe { munmap(self.0, GUARD_BYTES + STACK_BYTES) };
    }
}

/// What a new process's entry needs, boxed across the first switch.
struct Start {
    ctx: ProcCtx,
    body: Body,
}

/// The first frame of every process stack, entered from `dgsf_sim_start`.
extern "C" fn coroutine_main(start: *mut Start) -> ! {
    // SAFETY: `Shared::next_target` leaked this box for this process alone.
    let Start { ctx, body } = *unsafe { Box::from_raw(start) };
    let panic = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx))).err();
    ctx.exit(panic)
}

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcId(pub u64);

/// Panic payload used to unwind simulated processes when the run shuts down.
pub struct ShutdownSignal;

/// A resource's completion timer: fired by the scheduler, with the kernel
/// state borrowed, at the time it was scheduled for.
pub(crate) trait Timer {
    /// `token` is the value the timer was scheduled with; a resource uses
    /// it to recognise a timer that a later change made stale.
    fn fire(self: Rc<Self>, st: &mut SimState, token: u64);
}

/// A pending event: plain data (see "Event queue").
#[derive(Clone, Copy)]
struct Event {
    time: SimTime,
    /// A wake's park generation, or a timer's token.
    stamp: u64,
    /// A wake's process id, or `TIMER` with a timer's slab slot.
    target: u32,
}

const _: () = assert!(mem::size_of::<Event>() == 24);

/// The tag bit of a timer event's target. The 31 bits below it hold a
/// process id or a slab slot.
const TIMER: u32 = 1 << 31;

/// `index`, a process id or a timer slot, as the low 31 bits of an event's
/// target.
fn target_field(index: u64, what: &str) -> u32 {
    match u32::try_from(index) {
        Ok(field) if field & TIMER == 0 => field,
        _ => panic!("{what} {index} does not fit an event's 31-bit target field"),
    }
}

/// Pending timers, one slot per timer event in the queue (see "Event
/// queue").
struct TimerSlab {
    slots: Vec<TimerSlot>,
    /// The first free slot: the head of a list linked through
    /// `TimerSlot::Free`.
    free: u32,
}

enum TimerSlot {
    Pending(Rc<dyn Timer>),
    /// A free slot, and the next free one after it.
    Free(u32),
}

impl TimerSlab {
    fn new() -> TimerSlab {
        TimerSlab {
            slots: Vec::new(),
            free: LIST_END,
        }
    }

    /// Park `timer` in a free slot and return the slot.
    fn park(&mut self, timer: Rc<dyn Timer>) -> u32 {
        let slot = self.free;
        match self.slots.get_mut(slot as usize) {
            Some(s) => {
                let TimerSlot::Free(next) = *s else {
                    unreachable!("the free list links free slots")
                };
                *s = TimerSlot::Pending(timer);
                self.free = next;
                slot
            }
            None => {
                self.slots.push(TimerSlot::Pending(timer));
                target_field(self.slots.len() as u64 - 1, "timer slot")
            }
        }
    }

    /// Free `slot` and return the timer it held.
    fn take(&mut self, slot: u32) -> Rc<dyn Timer> {
        let s = mem::replace(&mut self.slots[slot as usize], TimerSlot::Free(self.free));
        self.free = slot;
        let TimerSlot::Pending(timer) = s else {
            unreachable!("a timer event's slot holds its timer")
        };
        timer
    }
}

/// The monotone radix queue of pending events (see "Event queue").
struct EventQueue {
    /// The time of the latest refill; no event is due before it.
    last: u64,
    /// Bucket 0: events due at `last`, in schedule order. Those before
    /// `head` have popped; it is emptied when `head` reaches its end.
    due: Vec<Event>,
    head: usize,
    /// `buckets[b - 1]` is bucket `b`: events whose time first differs
    /// from `last` in bit `b - 1`, in schedule order.
    buckets: [Vec<Event>; 64],
    /// `mins[b - 1]` is the earliest time in bucket `b`, or `u64::MAX`
    /// while it is empty.
    mins: [u64; 64],
    /// Bit `b - 1` is set iff bucket `b` is non-empty.
    mask: u64,
}

impl EventQueue {
    fn new() -> EventQueue {
        EventQueue {
            last: 0,
            due: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            mask: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        let time = ev.time.0;
        debug_assert!(time >= self.last, "an event scheduled in the past");
        match 64 - (time ^ self.last).leading_zeros() {
            0 => self.due.push(ev),
            b => {
                let i = b as usize - 1;
                self.buckets[i].push(ev);
                self.mins[i] = self.mins[i].min(time);
                self.mask |= 1 << i;
            }
        }
    }

    /// Pop the next event unless it lies past `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.due.is_empty() && self.mask != 0 {
            let i = self.mask.trailing_zeros() as usize;
            let m = self.mins[i];
            if m > deadline.0 {
                return None;
            }
            self.last = m;
            self.mask &= !(1 << i);
            self.mins[i] = u64::MAX;
            let mut bucket = mem::take(&mut self.buckets[i]);
            for &ev in &bucket {
                self.push(ev);
            }
            bucket.clear();
            self.buckets[i] = bucket;
        }
        let ev = *self.due.get(self.head)?;
        if ev.time > deadline {
            return None;
        }
        self.head += 1;
        if self.head == self.due.len() {
            self.due.clear();
            self.head = 0;
        }
        Some(ev)
    }
}

type Body = Box<dyn FnOnce(&ProcCtx)>;

struct ProcRec {
    name: Arc<str>,
    /// Park generation; incremented on every park.
    generation: u64,
    parked: bool,
    alive: bool,
    /// The process body, until its first live wake starts the process.
    body: Option<Body>,
    /// The stack a started process runs on.
    stack: Option<Stack>,
    /// The stack pointer saved when the process last switched away.
    sp: usize,
    /// The next exited record after this one, while this one waits in the
    /// free list (`SimState::free_procs`).
    next_free: u32,
}

/// The end of an intrusive free list, of process records or timer slots.
const LIST_END: u32 = u32::MAX;

/// A context that can hold the baton.
#[derive(Clone, Copy, PartialEq)]
enum Holder {
    Driver,
    Proc(ProcId),
}

/// Where the baton goes after a scheduling pass.
enum Next {
    /// The driver, or a started process.
    Resume(Holder),
    /// A process that has not started: it gets a stack.
    Start(ProcId, Body),
}

/// Mutable kernel state, a [`SimCell`] like all other simulation state.
/// Cells carry no ordering: code may borrow them in any order, but never
/// one that is already borrowed (a `RefCell` panic), and never across a
/// switch.
pub(crate) struct SimState {
    /// The simulation's id, which [`SimCell::borrow_with`] checks.
    sim: u64,
    pub(crate) now: SimTime,
    /// Pending events (see "Event queue").
    queue: EventQueue,
    /// The timers of pending timer events.
    timers: TimerSlab,
    /// Indexed by `ProcId.0`.
    procs: Vec<ProcRec>,
    pub(crate) shutdown: bool,
    pub(crate) rng: StdRng,
    /// Events popped and executed so far: wakes and resource timers,
    /// stale ones included. The scale harness divides this by wall time to
    /// report kernel throughput.
    executed: u64,
    /// Events later than this stay queued (the current `run_until` bound).
    deadline: SimTime,
    /// The driver's stack pointer while a process holds the baton.
    driver_sp: usize,
    /// The first non-shutdown panic of a process, for `run_until` to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// The stack of the process that exited last, until the next scheduling
    /// pass: the exiting process still runs on it while it switches away.
    retired: Option<Stack>,
    /// Stacks of exited processes, for the next process starts.
    free: Vec<Stack>,
    /// The first record of an exited process, for the next spawn: the head
    /// of a list linked through `ProcRec::next_free` (kept intrusive, so
    /// it costs this state no more than the padding it sits in).
    free_procs: u32,
}

impl SimState {
    #[inline]
    pub(crate) fn sim_id(&self) -> u64 {
        self.sim
    }

    fn proc_mut(&mut self, pid: ProcId) -> &mut ProcRec {
        &mut self.procs[pid.0 as usize]
    }

    fn sp_slot(&mut self, holder: Holder) -> &mut usize {
        match holder {
            Holder::Driver => &mut self.driver_sp,
            Holder::Proc(pid) => &mut self.proc_mut(pid).sp,
        }
    }

    /// Execute events until one decides who holds the baton next (see the
    /// module docs).
    fn next_holder(&mut self) -> Next {
        // Whoever runs this pass is not on the retired stack.
        if let Some(stack) = self.retired.take() {
            self.free.push(stack);
        }
        loop {
            if self.shutdown || self.panic.is_some() {
                return Next::Resume(Holder::Driver);
            }
            let Some(ev) = self.queue.pop_due(self.deadline) else {
                return Next::Resume(Holder::Driver);
            };
            self.now = self.now.max(ev.time);
            self.executed += 1;
            if ev.target & TIMER != 0 {
                let timer = self.timers.take(ev.target & !TIMER);
                timer.fire(self, ev.stamp);
                continue;
            }
            let pid = ProcId(u64::from(ev.target));
            let rec = self.proc_mut(pid);
            if !(rec.alive && rec.parked && rec.generation == ev.stamp) {
                continue; // stale wake
            }
            rec.parked = false;
            return match rec.body.take() {
                Some(body) => Next::Start(pid, body),
                None => Next::Resume(Holder::Proc(pid)),
            };
        }
    }

    pub(crate) fn schedule_wake(&mut self, time: SimTime, pid: ProcId, generation: u64) {
        let target = target_field(pid.0, "process id");
        self.queue.push(Event {
            time,
            stamp: generation,
            target,
        });
    }

    pub(crate) fn schedule_timer(&mut self, time: SimTime, timer: Rc<dyn Timer>, token: u64) {
        let target = TIMER | self.timers.park(timer);
        self.queue.push(Event {
            time,
            stamp: token,
            target,
        });
    }

    /// True if no event is due at the current instant, so an event
    /// scheduled now would be the next one popped. Meant for a timer
    /// that is firing: `last` is then the current instant, and every event
    /// due at it sits in the `due` bucket.
    pub(crate) fn nothing_due_now(&self) -> bool {
        debug_assert_eq!(self.queue.last, self.now.0, "asked outside a firing timer");
        self.queue.due.is_empty()
    }

    /// Mark `pid` as about to park and return the generation a waker must
    /// present to resume it.
    pub(crate) fn begin_park(&mut self, pid: ProcId) -> u64 {
        let rec = self.proc_mut(pid);
        rec.generation += 1;
        rec.parked = true;
        rec.generation
    }

    /// Register a process that becomes runnable at `at` (or now, if later).
    fn spawn<F>(&mut self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + 'static,
    {
        let mut rec = ProcRec {
            name: Arc::from(name),
            generation: 0,
            parked: true, // parked on its initial wake
            alive: true,
            body: Some(Box::new(f)),
            stack: None,
            sp: 0,
            next_free: LIST_END,
        };
        // While the run shuts down the table only grows, so that `Sim`'s
        // drop visits processes spawned by unwinding ones.
        let pid = if self.free_procs == LIST_END || self.shutdown {
            self.procs.push(rec);
            ProcId(self.procs.len() as u64 - 1)
        } else {
            let pid = ProcId(u64::from(self.free_procs));
            let slot = self.proc_mut(pid);
            rec.generation = slot.generation + 1;
            let next = slot.next_free;
            *slot = rec;
            self.free_procs = next;
            pid
        };
        let generation = self.proc_mut(pid).generation;
        let at = at.max(self.now);
        self.schedule_wake(at, pid, generation);
        pid
    }
}

/// Drop the state borrow, save the running context as `from`'s and resume
/// the context whose stack pointer is `to`. Returns when a later switch
/// resumes `from`.
fn switch(mut st: RefMut<'_, SimState>, from: Holder, to: usize) {
    let save: *mut usize = st.sp_slot(from);
    drop(st);
    // SAFETY: `to` is the stack pointer of a parked context, saved by its
    // last switch or laid out by `Stack::prepare`. One context runs at a
    // time, so nothing touches `from`'s slot until this switch has written
    // it.
    unsafe { dgsf_sim_switch(save, to) };
}

pub(crate) struct Shared {
    pub(crate) state: SimCell<SimState>,
    /// Per-simulation telemetry registry (disabled by default), in a cell
    /// of its own: recording never borrows the scheduler's state.
    telemetry: Arc<Telemetry>,
}

impl Shared {
    /// Run the scheduler for `from`, the baton holder, and return the stack
    /// pointer to switch to, or `None` if `from` keeps the baton.
    fn next_target(self: &Rc<Self>, st: &mut SimState, from: Holder) -> Option<usize> {
        match st.next_holder() {
            Next::Resume(to) if to == from => None,
            Next::Resume(to) => Some(*st.sp_slot(to)),
            Next::Start(pid, body) => {
                let stack = st.free.pop().unwrap_or_else(Stack::map);
                let rec = st.proc_mut(pid);
                let ctx = ProcCtx {
                    pid,
                    name: Arc::clone(&rec.name),
                    track: Cell::new(None),
                    shared: Rc::clone(self),
                };
                let sp = stack.prepare(Box::into_raw(Box::new(Start { ctx, body })));
                rec.stack = Some(stack);
                Some(sp)
            }
        }
    }

    /// Run the scheduler as `from` and pass the baton on. Returns `true` if
    /// `from` keeps the baton, `false` once it has been handed back.
    fn pass_baton(self: &Rc<Self>, mut st: RefMut<'_, SimState>, from: Holder) -> bool {
        match self.next_target(&mut st, from) {
            None => true,
            Some(to) => {
                switch(st, from, to);
                false
            }
        }
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
///
/// A simulation stays on the thread that built it:
///
/// ```compile_fail
/// let mut sim = dgsf_sim::Sim::new(1);
/// std::thread::spawn(move || sim.run());
/// ```
pub struct Sim {
    pub(crate) shared: Rc<Shared>,
}

impl Sim {
    /// Create a simulation whose internal RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Sim {
        let sim = next_sim_id();
        let state = SimState {
            sim,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            timers: TimerSlab::new(),
            procs: Vec::new(),
            shutdown: false,
            rng: StdRng::seed_from_u64(seed),
            executed: 0,
            deadline: SimTime::MAX,
            driver_sp: 0,
            panic: None,
            retired: None,
            free: Vec::new(),
            free_procs: LIST_END,
        };
        #[expect(
            clippy::arc_with_non_send_sync,
            reason = "`Sim::telemetry` returns an `Arc`, an entry point the benchmark pins; \
                      it becomes an `Rc` when ROADMAP item 1 re-pins the benchmark"
        )]
        let telemetry = Arc::new(Telemetry::with_sim(sim));
        let shared = Rc::new(Shared {
            state: SimCell::with_id(sim, state),
            telemetry,
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
        F: FnOnce(&ProcCtx) + 'static,
    {
        self.spawn_at(name, SimTime::ZERO, f)
    }

    /// Spawn a process that becomes runnable at virtual time `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + 'static,
    {
        self.shared.state.lock().spawn(name, at, f)
    }

    /// Create an MPMC simulation channel: a [`SimSender`](crate::SimSender)
    /// and [`SimReceiver`](crate::SimReceiver) pair.
    pub fn channel<T: 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
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
        let mut st = self.shared.state.lock();
        st.deadline = deadline;
        self.shared.pass_baton(st, Holder::Driver);
        let mut st = self.shared.state.lock();
        if let Some(payload) = st.panic.take() {
            drop(st);
            panic::resume_unwind(payload);
        }
        st.now
    }

    /// Total kernel events executed so far: process wakes and resource
    /// completion timers, stale ones included. Monotone across `run_until`
    /// calls; deterministic per seed.
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
        // others unwind are visited too, since the process table only grows.
        // A driver that is itself unwinding resumes none (see "Unwinding").
        // No event pops once the flag is up, so the queue keeps its events,
        // but the pending timers go: one that holds the simulation would
        // otherwise keep it alive.
        let resume = !std::thread::panicking();
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.timers = TimerSlab::new();
        }
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
            if let Some(body) = rec.body.take() {
                // Never started: drop what it captured without running it.
                rec.alive = false;
                drop(st);
                drop(body);
                continue;
            }
            if !resume {
                idx += 1;
                continue;
            }
            rec.parked = false;
            resumes += 1;
            let to = rec.sp;
            switch(st, Holder::Driver, to);
        }
    }
}

/// A cloneable handle onto a simulation: lets library code create channels
/// and resources and spawn processes without borrowing [`Sim`] itself
/// (which stays with the driver) or a [`ProcCtx`] (which is pinned to its
/// process). Like the simulation, it stays on the thread that built it:
///
/// ```compile_fail
/// let sim = dgsf_sim::Sim::new(1);
/// let h = sim.handle();
/// std::thread::spawn(move || h.now());
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Rc<Shared>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Spawn a process runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + 'static,
    {
        self.spawn_at(name, SimTime::ZERO, f)
    }

    /// Spawn a process runnable at `at`.
    pub fn spawn_at<F>(&self, name: &str, at: SimTime, f: F) -> ProcId
    where
        F: FnOnce(&ProcCtx) + 'static,
    {
        self.shared.state.lock().spawn(name, at, f)
    }

    /// Create an MPMC simulation channel.
    pub fn channel<T: 'static>(&self) -> (crate::SimSender<T>, crate::SimReceiver<T>) {
        crate::channel::channel(&self.shared)
    }

    /// Create a processor-sharing resource with the given capacity
    /// (work units per second). It keeps no busy log.
    pub fn gps(&self, capacity: f64) -> crate::GpsResource {
        crate::resource::GpsResource::with_shared(&self.shared, capacity, false)
    }

    /// Create a processor-sharing resource that logs when it is busy, for
    /// [`GpsResource::with_timeline`](crate::GpsResource::with_timeline).
    pub fn gps_with_busy_log(&self, capacity: f64) -> crate::GpsResource {
        crate::resource::GpsResource::with_shared(&self.shared, capacity, true)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut self.shared.state.lock().rng)
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
            shared: Rc::clone(&self.shared),
        }
    }
}

/// Handle a simulated process uses to interact with virtual time and the
/// kernel. Neither `Clone` nor `Sync`: it stands for its process's stack,
/// and a switch onto that stack from another OS thread would be undefined
/// behaviour, so a `&ProcCtx` cannot leave the driver's thread.
///
/// ```compile_fail
/// let mut sim = dgsf_sim::Sim::new(1);
/// sim.spawn("p", |ctx| {
///     std::thread::scope(|s| {
///         s.spawn(|| ctx.sleep(dgsf_sim::Dur::from_millis(1)));
///     });
/// });
/// ```
pub struct ProcCtx {
    pub(crate) pid: ProcId,
    name: Arc<str>,
    /// The name's track id in this simulation's registry, once resolved.
    track: Cell<Option<Id<Track>>>,
    pub(crate) shared: Rc<Shared>,
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

    /// This process's telemetry track: its name, given an id of its own in
    /// this simulation's registry at the first call and kept, so no record
    /// on it looks the name up. Resolving records nothing.
    pub fn track(&self) -> Id<Track> {
        self.track.get().unwrap_or_else(|| {
            let id = self.telemetry().process_track(&self.name);
            self.track.set(Some(id));
            id
        })
    }

    /// This simulation's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state().now
    }

    /// Advance this process's virtual clock by `d`.
    pub fn sleep(&self, d: Dur) {
        if d == Dur::ZERO {
            return;
        }
        let mut st = self.state();
        let generation = st.begin_park(self.pid);
        let at = st.now + d;
        st.schedule_wake(at, self.pid, generation);
        self.yield_parked(st);
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
        F: FnOnce(&ProcCtx) + 'static,
    {
        self.state().spawn(name, SimTime::ZERO, f)
    }

    /// Run `f` against the simulation's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut self.state().rng)
    }

    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: Rc::clone(&self.shared),
        }
    }

    /// The id of this process's simulation.
    #[inline]
    pub(crate) fn sim_id(&self) -> u64 {
        self.shared.state.sim_id()
    }

    /// Borrow the kernel state.
    pub(crate) fn state(&self) -> RefMut<'_, SimState> {
        self.shared.state.borrow_in(self)
    }

    /// Pass the baton on after having registered a park (via
    /// [`SimState::begin_park`]) in `st`, and return once resumed. Panics
    /// with [`ShutdownSignal`] if the simulation is shutting down.
    pub(crate) fn yield_parked(&self, st: RefMut<'_, SimState>) {
        if self.yield_parked_raw(st) && !std::thread::panicking() {
            panic::panic_any(ShutdownSignal);
        }
    }

    /// Pass the baton on and wait for it; returns `true` if the simulation
    /// is shutting down (the caller is responsible for unwinding or
    /// returning cleanly), so blocking primitives can offer a clean exit.
    pub(crate) fn yield_parked_raw(&self, mut st: RefMut<'_, SimState>) -> bool {
        if std::thread::panicking() {
            // Unwinding: never switch (see "Unwinding" in the module docs).
            // Dropping the park makes its pending wakes stale.
            st.proc_mut(self.pid).parked = false;
            return true;
        }
        if self.shared.pass_baton(st, Holder::Proc(self.pid)) {
            // Our own wake came up; during shutdown the baton always goes
            // to the driver, so this is never a shutdown resume.
            return false;
        }
        self.state().shutdown
    }

    /// Record this process's exit (and panic, if any), retire its stack and
    /// switch away for the last time.
    fn exit(self, panic: Option<Box<dyn Any + Send>>) -> ! {
        let to = {
            let mut st = self.state();
            let rec = st.proc_mut(self.pid);
            rec.alive = false;
            rec.parked = false;
            if let Some(payload) = panic {
                if !payload.is::<ShutdownSignal>() && st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            let to = self
                .shared
                .next_target(&mut st, Holder::Proc(self.pid))
                .expect("an exited process has no wake");
            // After the scheduling pass, which freed the previous retired
            // stack.
            st.retired = st.proc_mut(self.pid).stack.take();
            if let Ok(i) = u32::try_from(self.pid.0) {
                let head = st.free_procs;
                st.proc_mut(self.pid).next_free = head;
                st.free_procs = i;
            }
            to
        };
        // The driver's `Sim` outlives every running process, so this is
        // never the last reference; nothing on this stack is dropped later.
        drop(self);
        let mut unused = 0;
        // SAFETY: as in `switch`; this stack is retired, not freed, until
        // the next holder's scheduling pass.
        unsafe { dgsf_sim_switch(&mut unused, to) };
        unreachable!("an exited process is never resumed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{self, AtomicU32, AtomicU64};

    /// Counts its drops into a shared counter.
    struct Counted(Arc<AtomicU32>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, atomic::Ordering::SeqCst);
        }
    }

    /// What a model-test event carries: its target and its stamp, which
    /// is the id the model gave it.
    fn key(ev: Event) -> (u32, u64) {
        (ev.target, ev.stamp)
    }

    #[test]
    fn event_queue_pops_in_time_then_schedule_order() {
        use rand::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            // The reference: a min-heap on (time, id), ids given out in
            // schedule order, with each event's target beside its id.
            let mut model = BinaryHeap::new();
            let (mut now, mut next_id) = (0u64, 0u64);
            for _ in 0..100_000 {
                if rng.gen_range(0..100) < 55 {
                    let offset = match rng.gen_range(0..10) {
                        0..=2 => 0,
                        3..=5 => rng.gen_range(1..64),
                        6 | 7 => 1u64 << rng.gen_range(0..40u32),
                        8 => (1u64 << rng.gen_range(1..40u32)) - 1,
                        _ => rng.gen_range(0..1u64 << 50),
                    };
                    let time = now + offset;
                    // Wakes and timers, with targets over the whole 31-bit
                    // field.
                    let index = u64::from(rng.gen_range(0..TIMER));
                    let target = if rng.gen_bool(0.5) {
                        target_field(index, "process id")
                    } else {
                        TIMER | target_field(index, "timer slot")
                    };
                    queue.push(Event {
                        time: SimTime(time),
                        stamp: next_id,
                        target,
                    });
                    model.push(Reverse((time, next_id, target)));
                    next_id += 1;
                    continue;
                }
                let next = model.peek().map(|&Reverse((t, ..))| t);
                let deadline = match (rng.gen_range(0..4), next) {
                    (0, _) | (_, None) => u64::MAX,
                    (1, Some(t)) => t,
                    (2, Some(t)) => t.saturating_sub(1),
                    (_, Some(t)) => now + (t - now) / 2,
                };
                let want = match model.peek() {
                    Some(&Reverse((t, id, target))) if t <= deadline => {
                        model.pop();
                        now = t;
                        Some((target, id))
                    }
                    _ => None,
                };
                let got = queue.pop_due(SimTime(deadline)).map(key);
                assert_eq!(got, want, "seed {seed}, deadline {deadline}");
                assert_eq!(queue.last, now, "seed {seed}");
            }
            while let Some(Reverse((_, id, target))) = model.pop() {
                let got = queue.pop_due(SimTime::MAX).map(key);
                assert_eq!(got, Some((target, id)), "seed {seed}, draining");
            }
            assert!(queue.pop_due(SimTime::MAX).is_none());
            assert_eq!(queue.mask, 0);
            assert_eq!((queue.due.len(), queue.head), (0, 0));
            assert!(queue.mins.iter().all(|&m| m == u64::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "process id 2147483648 does not fit an event's 31-bit target field")]
    fn a_process_id_past_31_bits_does_not_pack_into_an_event() {
        assert_eq!(target_field(u64::from(TIMER) - 1, "process id"), TIMER - 1);
        target_field(u64::from(TIMER), "process id");
    }

    #[test]
    fn dropping_a_sim_releases_each_pending_timer_once() {
        /// A timer that holds its simulation, as a stream's retire
        /// function may, and a `Counted`; it does nothing when it fires.
        struct Probe {
            _sim: SimHandle,
            _counted: Counted,
        }
        impl Timer for Probe {
            fn fire(self: Rc<Self>, _st: &mut SimState, _token: u64) {}
        }
        let dropped = Arc::new(AtomicU32::new(0));
        let mut sim = Sim::new(1);
        let handle = sim.handle();
        let probe = || {
            Rc::new(Probe {
                _sim: handle.clone(),
                _counted: Counted(dropped.clone()),
            })
        };
        let at = |secs| SimTime::ZERO + Dur::from_secs(secs);
        // Rescheduled twice, as a resource does: two of its three events
        // are stale by the time they pop, and the kernel cannot tell.
        let kept = probe();
        {
            let mut st = sim.shared.state.lock();
            for (token, secs) in [(0, 1), (1, 5), (2, 9)] {
                st.schedule_timer(at(secs), kept.clone(), token);
            }
            for secs in [2, 3, 7] {
                st.schedule_timer(at(secs), probe(), 0);
            }
        }
        sim.run_until(at(4));
        assert_eq!(
            dropped.load(atomic::Ordering::SeqCst),
            2,
            "fired at 2 s and 3 s"
        );
        assert_eq!(Rc::strong_count(&kept), 3, "ours and two pending events");
        {
            // Into the slots the three fired events freed.
            let mut st = sim.shared.state.lock();
            st.schedule_timer(at(6), probe(), 0);
            st.schedule_timer(at(8), kept.clone(), 3);
            assert_eq!(st.timers.slots.len(), 6);
        }
        drop(handle);
        // The pending timers hold the simulation; its drop releases them.
        drop(sim);
        assert_eq!(Rc::strong_count(&kept), 1);
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), 4);
        drop(kept);
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), 5);
    }

    #[test]
    fn sleep_advances_virtual_time_instantly() {
        let mut sim = Sim::new(1);
        let t = Rc::new(SimCell::new(&sim.handle(), SimTime::ZERO));
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
        let log = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let seen = Rc::new(SimCell::new(&sim.handle(), None));
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
        let hits = Rc::new(SimCell::new(&sim.handle(), 0u32));
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
        sim.spawn("bad", |ctx| {
            ctx.sleep(Dur::from_millis(3));
            panic!("boom at {} ms", ctx.now().as_nanos() / 1_000_000);
        });
        sim.spawn("bystander", |ctx| ctx.sleep(Dur::from_millis(1)));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the process panic must reach the driver");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("boom at 3 ms")
        );
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
            let out = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let hits = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
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
        let dropped = Arc::new(AtomicU32::new(0));
        let ran = Arc::new(AtomicU32::new(0));
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

    #[test]
    fn shutdown_unwinds_every_parked_stack() {
        const N: u32 = 40;
        let dropped = Arc::new(AtomicU32::new(0));
        let finished = Arc::new(AtomicU32::new(0));
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u8>();
        for i in 0..N {
            let c = Counted(dropped.clone());
            let f = finished.clone();
            let rx = rx.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                let _c = c;
                if i % 2 == 0 {
                    assert!(rx.recv(ctx).is_none());
                } else {
                    let got = rx.recv_timeout(ctx, Dur::from_secs(3600));
                    assert_eq!(got, Err(crate::RecvError::Shutdown));
                }
                // Parking again after shutdown unwinds with ShutdownSignal.
                ctx.sleep(Dur::from_secs(1));
                f.fetch_add(1, atomic::Ordering::SeqCst);
            });
        }
        sim.run_until(SimTime::ZERO + Dur::from_secs(1));
        assert_eq!(sim.blocked_processes().len(), N as usize);
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), 0);
        drop(sim);
        assert_eq!(dropped.load(atomic::Ordering::SeqCst), N);
        assert_eq!(finished.load(atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn ten_thousand_coroutines_park_at_once_then_all_wake() {
        const N: u64 = 10_000;
        let live = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let woken = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u64>();
        for i in 0..N {
            let (live, peak, woken, rx) = (live.clone(), peak.clone(), woken.clone(), rx.clone());
            sim.spawn("waiter", move |ctx| {
                // Stack-resident state that must survive every other switch.
                let mine = [i; 8];
                let now = live.fetch_add(1, atomic::Ordering::SeqCst) + 1;
                peak.fetch_max(now, atomic::Ordering::SeqCst);
                let v = rx.recv(ctx).expect("one message per waiter");
                // Waiters park and wake in FIFO order.
                assert_eq!((v, std::hint::black_box(mine)), (i, [i; 8]));
                live.fetch_sub(1, atomic::Ordering::SeqCst);
                woken.fetch_add(1, atomic::Ordering::SeqCst);
            });
        }
        sim.spawn_at("waker", SimTime::ZERO + Dur::from_secs(1), move |ctx| {
            for v in 0..N {
                tx.send(ctx, v);
            }
        });
        sim.run();
        assert_eq!(peak.load(atomic::Ordering::SeqCst), N);
        assert_eq!(woken.load(atomic::Ordering::SeqCst), N);
        assert!(sim.blocked_processes().is_empty());
    }

    #[test]
    fn a_megabyte_deep_recursion_fits_in_a_process_stack() {
        /// Recurse until the frames below `top` span 1 MiB; returns the
        /// stack depth reached, in bytes.
        fn deep(top: usize) -> usize {
            let frame = std::hint::black_box([0u8; 512]);
            let used = top - frame.as_ptr() as usize;
            let deepest = if used >= 1 << 20 { used } else { deep(top) };
            std::hint::black_box(frame[511]) as usize + deepest
        }
        let mut sim = Sim::new(1);
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        sim.spawn("deep", move |ctx| {
            ctx.sleep(Dur::from_millis(1));
            let top = 0u8;
            let used = deep(std::hint::black_box(&top) as *const u8 as usize);
            o.store(used as u64, atomic::Ordering::SeqCst);
        });
        sim.run();
        let used = out.load(atomic::Ordering::SeqCst);
        assert!((1 << 20..1 << 21).contains(&used), "{used} bytes deep");
    }

    #[test]
    fn parking_while_unwinding_keeps_the_panic_to_its_process() {
        /// Calls `recv` from its `Drop`, while its process unwinds.
        struct RecvOnDrop<'a>(crate::SimReceiver<u8>, &'a ProcCtx);
        impl Drop for RecvOnDrop<'_> {
            fn drop(&mut self) {
                assert!(self.0.recv(self.1).is_none());
            }
        }
        let saw_panicking = Arc::new(AtomicU32::new(0));
        let mut sim = Sim::new(1);
        let (_tx, rx) = sim.channel::<u8>();
        for i in 0..3 {
            let saw = saw_panicking.clone();
            sim.spawn(&format!("watcher{i}"), move |ctx| {
                let (_tx, rx) = ctx.handle().channel::<u8>();
                for _ in 0..2_000 {
                    if std::thread::panicking() {
                        saw.fetch_add(1, atomic::Ordering::SeqCst);
                    }
                    if rx.recv_timeout(ctx, Dur::from_millis(1)) == Err(crate::RecvError::Shutdown)
                    {
                        break;
                    }
                }
                if std::thread::panicking() {
                    saw.fetch_add(1, atomic::Ordering::SeqCst);
                }
            });
        }
        sim.spawn("bad", move |ctx| {
            ctx.sleep(Dur::from_millis(5));
            let _guard = RecvOnDrop(rx, ctx);
            panic!("original");
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("the process panic must reach the driver");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"original"));
        drop(sim);
        assert_eq!(saw_panicking.load(atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn one_sim_runs_in_two_turns() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u64>();
        let log = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        let l = log.clone();
        sim.spawn("ping", move |ctx| {
            for k in 0..4 {
                ctx.sleep(Dur::from_secs(1));
                tx.send(ctx, k);
            }
        });
        sim.spawn("pong", move |ctx| {
            while let Some(k) = rx.recv(ctx) {
                l.lock().push((k, ctx.now()));
            }
        });
        let half = SimTime::ZERO + Dur::from_millis(2500);
        assert_eq!(sim.run_until(half), SimTime::ZERO + Dur::from_secs(2));
        assert_eq!(log.lock().len(), 2);
        sim.run();
        let want: Vec<(u64, SimTime)> = (0..4)
            .map(|k| (k, SimTime::ZERO + Dur::from_secs(k + 1)))
            .collect();
        assert_eq!(*log.lock(), want);
    }

    #[test]
    fn a_reused_process_record_ignores_its_last_owners_stale_wakes() {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<u8>();
        let (tx2, rx2) = sim.channel::<u8>();
        let second = Rc::new(SimCell::new(&sim.handle(), None));
        // The message beats the timeout, whose wake stays queued for 10 s.
        let first = sim.spawn("first", move |ctx| {
            assert_eq!(rx.recv_timeout(ctx, Dur::from_secs(10)), Ok(1));
        });
        let s = second.clone();
        sim.spawn("parent", move |ctx| {
            tx.send(ctx, 1);
            ctx.sleep(Dur::from_secs(2));
            let s2 = s.clone();
            let pid = ctx.spawn("second", move |ctx| {
                assert_eq!(rx2.recv(ctx), Some(2));
                let woke = ctx.now();
                if let Some((_, at)) = s2.lock().as_mut() {
                    *at = Some(woke);
                }
            });
            *s.lock() = Some((pid, None));
            ctx.sleep(Dur::from_secs(18));
            tx2.send(ctx, 2);
        });
        sim.run();
        let (pid, woke) = second.lock().expect("the second process was spawned");
        assert_eq!(pid, first, "the exited process's record is reused");
        let at_20s = SimTime::ZERO + Dur::from_secs(20);
        assert_eq!(
            woke,
            Some(at_20s),
            "woken by the message, not the stale 10 s wake"
        );
        assert_eq!(sim.shared.state.lock().procs.len(), 2);
    }

    #[test]
    fn short_lived_processes_reuse_a_bounded_set_of_stacks() {
        const N: u64 = 2_000;
        let driver = std::thread::current().id();
        let live = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let max_free = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(1);
        // All spawned up front, each running in its own 10 µs slot.
        for i in 0..N {
            let (live, peak, max_free) = (live.clone(), peak.clone(), max_free.clone());
            let at = SimTime::ZERO + Dur::from_micros(10 * i);
            sim.spawn_at("short", at, move |ctx| {
                assert_eq!(std::thread::current().id(), driver);
                let now = live.fetch_add(1, atomic::Ordering::SeqCst) + 1;
                peak.fetch_max(now, atomic::Ordering::SeqCst);
                let free = ctx.state().free.len() as u64;
                max_free.fetch_max(free, atomic::Ordering::SeqCst);
                ctx.sleep(Dur::from_micros(1));
                live.fetch_sub(1, atomic::Ordering::SeqCst);
            });
        }
        sim.run();
        let peak = peak.load(atomic::Ordering::SeqCst);
        assert_eq!(peak, 1);
        let st = sim.shared.state.lock();
        assert!(st.procs.iter().all(|r| r.stack.is_none()));
        let free = max_free
            .load(atomic::Ordering::SeqCst)
            .max(st.free.len() as u64);
        assert!(free <= peak, "{free} free stacks for {peak} live processes");
    }
}
