//! Spans recorded from the benchmark's own files, around its calls into
//! each layer of the program: wall time and thread CPU time, with self
//! time computed against child spans on the same thread.
//!
//! Spans are off unless a traced pass is running; an untraced pass pays
//! one relaxed atomic load per call site. Per-name totals are exact; only
//! the first [`RAW_LIMIT`] spans are kept individually for `trace.json`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys::thread_cpu_ns;

/// Individual spans kept for the Chrome trace; totals cover every span.
pub const RAW_LIMIT: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

struct Open {
    name: &'static str,
    wall0: Instant,
    cpu0: u64,
    child_cpu: u64,
}

struct State {
    epoch: Instant,
    totals: BTreeMap<&'static str, Totals>,
    raw: Vec<RawSpan>,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Wall time inside them, nanoseconds.
    pub wall_ns: u64,
    /// Thread CPU time inside them, nanoseconds.
    pub cpu_ns: u64,
    /// Thread CPU time not inside a child span, nanoseconds.
    pub self_cpu_ns: u64,
    /// CPU of the spans that had no parent on their thread, nanoseconds.
    pub top_cpu_ns: u64,
}

/// One closed span, as written to `trace.json`.
#[derive(Debug, Clone)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Small per-run thread number.
    pub tid: u32,
    /// Start, nanoseconds after tracing began.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub wall_ns: u64,
    /// Thread CPU time, nanoseconds.
    pub cpu_ns: u64,
}

/// What one traced pass recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Per-name totals, sorted by name.
    pub totals: BTreeMap<&'static str, Totals>,
    /// The first spans, in closing order.
    pub raw: Vec<RawSpan>,
}

impl Recording {
    /// Totals of `name` (zero if it never closed).
    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// CPU of all spans that had no parent: what the spans cover in total.
    pub fn top_level_cpu_ns(&self) -> u64 {
        self.totals.values().map(|t| t.top_cpu_ns).sum()
    }
}

fn state() -> std::sync::MutexGuard<'static, Option<State>> {
    // A span closing while a simulated process unwinds must still record;
    // every update below leaves the state valid, so a poisoned guard is
    // safe to reuse.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Start recording (discarding anything recorded before).
pub fn start() {
    *state() = Some(State {
        epoch: Instant::now(),
        totals: BTreeMap::new(),
        raw: Vec::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and return what was recorded.
pub fn stop() -> Recording {
    ENABLED.store(false, Ordering::SeqCst);
    match state().take() {
        Some(s) => Recording {
            totals: s.totals,
            raw: s.raw,
        },
        None => Recording::default(),
    }
}

/// An open span; it closes when dropped.
#[must_use = "a span measures the scope that holds it"]
pub struct Span {
    active: bool,
}

/// Open a span named `name` on the calling thread.
pub fn span(name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { active: false };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Open {
            name,
            wall0: Instant::now(),
            cpu0: thread_cpu_ns(),
            child_cpu: 0,
        })
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let cpu1 = thread_cpu_ns();
        let wall1 = Instant::now();
        let closed = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop()?;
            let cpu = cpu1.saturating_sub(open.cpu0);
            if let Some(parent) = s.last_mut() {
                parent.child_cpu += cpu;
            }
            Some((open, cpu, s.is_empty()))
        });
        let Some((open, cpu, top)) = closed else {
            return;
        };
        let tid = TID.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let mut guard = state();
        let Some(st) = guard.as_mut() else {
            return;
        };
        let wall = wall1.duration_since(open.wall0).as_nanos() as u64;
        let t = st.totals.entry(open.name).or_default();
        t.count += 1;
        t.wall_ns += wall;
        t.cpu_ns += cpu;
        t.self_cpu_ns += cpu.saturating_sub(open.child_cpu);
        if top {
            t.top_cpu_ns += cpu;
        }
        if st.raw.len() < RAW_LIMIT {
            let start_ns = open.wall0.saturating_duration_since(st.epoch).as_nanos() as u64;
            st.raw.push(RawSpan {
                name: open.name,
                tid,
                start_ns,
                wall_ns: wall,
                cpu_ns: cpu,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        start();
        {
            let _outer = span("outer");
            let mut x = 0u64;
            for i in 0..200_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let _inner = span("inner");
            for i in 0..200_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        let rec = stop();
        let (outer, inner) = (rec.get("outer"), rec.get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.cpu_ns >= inner.cpu_ns);
        assert_eq!(outer.self_cpu_ns, outer.cpu_ns - inner.cpu_ns);
        assert_eq!(inner.top_cpu_ns, 0, "inner had a parent");
        assert_eq!(rec.top_level_cpu_ns(), outer.cpu_ns);
        drop(span("after-stop"));
        assert!(stop().totals.is_empty(), "nothing records while stopped");
    }
}
