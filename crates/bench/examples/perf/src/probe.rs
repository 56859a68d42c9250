//! The machine-speed probe that runs beside every measured run.
//!
//! Host time on a shared machine moves with what its neighbours do to the
//! memory hierarchy: on the reference machine a register-only loop keeps
//! its speed to within 1 %, while a small sort slows by as much as the
//! workloads do, in the same runs. So a thread pinned with the run wakes
//! every [`PERIOD`], sorts [`SORTED`] fresh words and records the thread
//! CPU time that took. The child scales its host times by
//! [`REFERENCE_NS`] ÷ the mean probe time, which turns them into host time
//! at the reference machine's speed; that halved or better the spread of
//! repeated runs of one input. The probe shares no code with the program,
//! so a change to the program can move it only through the cache state
//! the run leaves behind.
//!
//! The same thread samples the live OS thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::spans::span;
use crate::sys::{live_threads, thread_cpu_ns};

/// Pause between probes.
const PERIOD: Duration = Duration::from_millis(20);
/// Words sorted by one probe (64 KiB).
const SORTED: u64 = 8_192;
/// Mean probe CPU time on the reference machine when it is quiet, ns.
pub const REFERENCE_NS: f64 = 115_000.0;

/// One probe's fixed work; returns its thread CPU nanoseconds.
fn probe(salt: u64) -> u64 {
    let t0 = thread_cpu_ns();
    let mut v: Vec<u64> = (0..SORTED)
        .map(|i| (i ^ salt).wrapping_mul(0x2545_F491_4F6C_DD1D))
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    thread_cpu_ns() - t0
}

/// What the probe saw over one run.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Mean CPU time of one probe, ns.
    pub mean_ns: f64,
    /// Highest live OS thread count sampled.
    pub peak_threads: u64,
}

impl Report {
    /// Multiply a host time measured during the run by this to get host
    /// time at the reference machine's speed.
    pub fn speed_factor(&self) -> f64 {
        REFERENCE_NS / self.mean_ns
    }
}

/// A running probe thread.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<Report>,
}

impl Probe {
    /// Start probing on a new thread, which inherits the caller's CPU pin.
    /// Its CPU is recorded as the `bench.probe` span.
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let _s = span("bench.probe");
            let (mut total, mut n, mut peak) = (0u64, 0u64, 0u64);
            loop {
                total += probe(n);
                n += 1;
                peak = peak.max(live_threads());
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                thread::sleep(PERIOD);
            }
            Report {
                mean_ns: total as f64 / n as f64,
                peak_threads: peak,
            }
        });
        Probe { stop, handle }
    }

    /// Stop probing and report.
    pub fn stop(self) -> Report {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("speed probe panicked")
    }
}
