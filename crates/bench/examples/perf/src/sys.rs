//! The few operating-system facts the benchmark needs, read through libc
//! (which `std` already links) and `/proc`: CPU pinning, per-thread CPU
//! time, process resource usage, peak memory and live thread count.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads Linux-only process facts (64-bit layouts of rusage and timespec)"
);

/// `cpu_set_t` is 1024 bits on glibc.
const CPU_SET_WORDS: usize = 16;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `RUSAGE_SELF`: the calling process, every thread including exited ones.
const RUSAGE_SELF: i32 = 0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    // oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    rest: [i64; 14],
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Pin the calling thread to the first CPU of its inherited affinity mask
/// and return that CPU. Threads spawned afterwards inherit the pin, so a
/// process that calls this before it spawns anything runs on one CPU.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process-wide resource usage: every thread, living or exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU, nanoseconds.
    pub user_ns: u64,
    /// System CPU, nanoseconds.
    pub sys_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Usage of the whole process so far.
    pub fn now() -> Usage {
        let mut ru = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            rest: [0; 14],
        };
        // SAFETY: `ru` has the 64-bit Linux `struct rusage` layout and is
        // writable; RUSAGE_SELF is always a valid target.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
        Usage {
            user_ns: ns(&ru.ru_utime),
            sys_ns: ns(&ru.ru_stime),
            ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
        }
    }

    /// Total CPU, nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// What happened between `self` (earlier) and `later`.
    pub fn until(&self, later: &Usage) -> Usage {
        Usage {
            user_ns: later.user_ns.saturating_sub(self.user_ns),
            sys_ns: later.sys_ns.saturating_sub(self.sys_ns),
            ctx_switches: later.ctx_switches.saturating_sub(self.ctx_switches),
        }
    }
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live OS threads of this process.
pub fn live_threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Kernel release (`uname -r`).
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without a git binary; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
