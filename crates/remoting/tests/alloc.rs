//! Allocation budget of the steady-state RPC hot path.
//!
//! Wire v2's point is that a round trip allocates a small, *constant*
//! amount: one exact-capacity frame per encode (no `wire_size()` throwaway
//! encode, no per-call reply channel, no payload copy on decode). This
//! harness counts real allocator traffic across thousands of steady-state
//! round trips and pins the per-call budget; a regression that reintroduces
//! a double encode or a per-call channel shows up as a budget blowout, not
//! a subjective slowdown.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. Both tests read only their own
//! thread's counters: a simulation runs every process as a coroutine on
//! the thread that drives it, so the test's thread sees all of the
//! simulation's allocations, and none that libtest's main thread makes
//! while it handles the other test's result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dgsf_remoting::wire::{Request, Response};
use dgsf_remoting::{NetLink, NetProfile, RpcClient, RpcInbox};
use dgsf_sim::{Dur, Sim};
use parking_lot::Mutex;

thread_local! {
    // Const-initialised and destructor-free, so bumping it from inside the
    // allocator never allocates itself: (calls, bytes).
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_alloc(bytes: usize) {
    // `try_with`: allocations during thread teardown outlive the slot.
    let _ = THREAD_ALLOCS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counters are a
// const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes made by the calling thread so far.
fn snapshot() -> (u64, u64) {
    THREAD_ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_round_trip_allocation_is_bounded() {
    const WARMUP: usize = 200;
    const MEASURED: u64 = 2_000;
    // Budget per round trip, with one call and ~35% of bytes of headroom
    // over the measured 4.004 calls / 327.8 B: each of the two frames is a
    // buffer plus the `Arc` that `freeze` wraps it in. The link's
    // processor-sharing timers and the kernel's wakes allocate nothing. The
    // old double-encode + per-call reply channel path cannot fit in it.
    const MAX_CALLS_PER_RT: u64 = 5;
    const MAX_BYTES_PER_RT: u64 = 448;

    let mut sim = Sim::new(7);
    let h = sim.handle();
    let link = NetLink::new(
        &h,
        NetProfile {
            rpc_latency: Dur::from_micros(60),
            rpc_jitter: Dur::ZERO,
            nic_bw: 1.25e9,
            s3_bw: 0.15e9,
        },
    );
    let (client, inbox) = RpcClient::connect(&h, link.clone());
    let srv_link = link.clone();
    sim.spawn("server", move |p| {
        while let Some(env) = inbox.next(p) {
            let _req = RpcInbox::decode(&env).unwrap();
            inbox.respond(p, &srv_link, &env, &Response::Ok);
        }
    });
    let measured = Arc::new(Mutex::new((0u64, 0u64)));
    let m = measured.clone();
    sim.spawn("client", move |p| {
        for _ in 0..WARMUP {
            client.call(p, &Request::Sync).unwrap();
        }
        let (calls0, bytes0) = snapshot();
        for _ in 0..MEASURED {
            client.call(p, &Request::Sync).unwrap();
        }
        let (calls1, bytes1) = snapshot();
        *m.lock() = (calls1 - calls0, bytes1 - bytes0);
    });
    sim.run();
    let (calls, bytes) = *measured.lock();
    assert!(calls > 0, "harness must observe allocator traffic");
    let calls_per_rt = calls / MEASURED;
    let bytes_per_rt = bytes / MEASURED;
    assert!(
        calls_per_rt <= MAX_CALLS_PER_RT,
        "steady-state round trip allocates too often: {calls_per_rt} calls/rt \
         (budget {MAX_CALLS_PER_RT}) — double encode or per-call channel regression?"
    );
    assert!(
        bytes_per_rt <= MAX_BYTES_PER_RT,
        "steady-state round trip allocates too much: {bytes_per_rt} B/rt \
         (budget {MAX_BYTES_PER_RT})"
    );
    println!("steady-state rpc: {calls_per_rt} allocs/rt, {bytes_per_rt} B/rt");
}

#[test]
fn encode_allocates_exactly_once() {
    // The exact-capacity single-pass encode: one backing buffer, sized by
    // `encoded_len()`, never grown; `wire_size()` allocates nothing at all.
    let req = Request::Launch {
        fptr: 0xdead_beef,
        args: dgsf_remoting::wire::WireArgs {
            ptrs: vec![1, 2, 3, 4],
            scalars: vec![5, 6],
            bytes: 1 << 20,
            work_hint: Some(0.25),
        },
    };
    let (c0, _) = snapshot();
    let size = req.wire_size();
    let (c1, _) = snapshot();
    assert_eq!(c1 - c0, 0, "wire_size() must not allocate");
    let frame = req.encode();
    let (c2, _) = snapshot();
    // BytesMut buffer + the Arc that freeze() wraps it in.
    assert!(
        c2 - c1 <= 2,
        "encode must be a single exact-capacity pass, saw {} allocations",
        c2 - c1
    );
    assert_eq!(frame.len() as u64, size);
}
