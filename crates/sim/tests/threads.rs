//! Processes start no OS threads.
//!
//! The only test in its binary, so no other test's thread can start or
//! exit while it samples the process's live thread count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgsf_sim::{Dur, Sim, SimTime};

/// Live threads of this process, from `/proc/self/status`.
fn live_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn short_lived_processes_start_no_threads() {
    const N: u64 = 2_000;
    let mut sim = Sim::new(1);
    let peak = Arc::new(AtomicU64::new(0));
    // All spawned up front, each running in its own 10 µs slot.
    for i in 0..N {
        let p = peak.clone();
        let at = SimTime::ZERO + Dur::from_micros(10 * i);
        sim.spawn_at("short", at, move |ctx| {
            ctx.sleep(Dur::from_micros(1));
            p.fetch_max(live_threads(), Ordering::SeqCst);
        });
    }
    let before = live_threads();
    sim.run();
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak > 0, "every process samples the thread count");
    assert!(
        peak <= before,
        "{peak} live threads during the run, {before} before it"
    );
}
