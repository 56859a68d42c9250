//! Allocation budget of the steady-state RPC hot path.
//!
//! A steady-state round trip allocates nothing: each side encodes into the
//! frame it sent last time, reclaimed once the other side dropped its views
//! of it (no `wire_size()` throwaway encode, no per-call reply channel, no
//! payload copy on decode, no fresh frame). This harness counts real
//! allocator traffic across thousands of steady-state round trips and pins
//! the budget; a regression that reintroduces a per-call frame, a double
//! encode or a per-call channel shows up as a budget blowout, not a
//! subjective slowdown.
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
use dgsf_sim::{Dur, Sim, SimCell};

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
    // Budget per round trip. Measured: 7 allocator calls and 896 B over the
    // 2,000 round trips (0.0035 calls / 0.4 B per round trip), none of them
    // frames: all seven are event-queue buckets growing, amortized so that
    // they thin out as the run gets longer. The link's resources keep no
    // busy log. One fresh frame per round trip (a buffer plus its `Arc`)
    // would be 400 times over the call budget.
    const MAX_CALLS_PER_RT: f64 = 0.005;
    const MAX_BYTES_PER_RT: u64 = 1;

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
    let measured = Arc::new(SimCell::new(&h, (0u64, 0u64)));
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
    let calls_per_rt = calls as f64 / MEASURED as f64;
    let bytes_per_rt = bytes as f64 / MEASURED as f64;
    assert!(
        calls_per_rt <= MAX_CALLS_PER_RT,
        "steady-state round trip allocates too often: {calls} calls over {MEASURED} \
         round trips (budget {MAX_CALLS_PER_RT}/rt) — frame reuse, double encode or \
         per-call channel regression?"
    );
    assert!(
        bytes <= MAX_BYTES_PER_RT * MEASURED,
        "steady-state round trip allocates too much: {bytes_per_rt:.1} B/rt \
         (budget {MAX_BYTES_PER_RT})"
    );
    println!("steady-state rpc: {calls_per_rt:.4} allocs/rt, {bytes_per_rt:.1} B/rt");
}

#[test]
fn encode_into_a_reclaimed_frame_allocates_nothing() {
    let req = Request::Launch {
        fptr: 7,
        args: dgsf_remoting::wire::WireArgs {
            ptrs: vec![1, 2],
            scalars: vec![3],
            bytes: 0,
            work_hint: None,
        },
    };
    let (first, _) = req.encode_sized(None);
    let spare = first.clone();
    drop(first);
    let (c0, _) = snapshot();
    let (again, size) = req.encode_sized(Some(spare));
    let (c1, _) = snapshot();
    assert_eq!(c1 - c0, 0, "the spare's storage and header are reused");
    assert_eq!(again, req.encode());
    assert_eq!(size, req.wire_size());

    // A view the receiver still holds keeps the spare from being reused:
    // the next encode gets a fresh frame and the view stays intact.
    let view = again.slice(1..);
    let (fresh, _) = Response::Ok.encode_sized(Some(again));
    assert_eq!(fresh, Response::Ok.encode());
    assert_eq!(view, req.encode().slice(1..));
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
