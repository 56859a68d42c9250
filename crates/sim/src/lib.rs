//! # dgsf-sim — deterministic discrete-event simulation substrate
//!
//! The DGSF paper evaluates on real V100 GPUs, real CUDA, and a 10 Gb/s
//! network. This crate is the substitute substrate for all of that hardware:
//! a conservative, sequential discrete-event simulator with
//!
//! * a virtual nanosecond clock ([`SimTime`], [`Dur`]),
//! * cooperative **processes**, stackful coroutines written as ordinary blocking
//!   Rust ([`Sim::spawn`], [`ProcCtx`]),
//! * MPMC **channels** with virtual-time blocking receives
//!   ([`SimSender`], [`SimReceiver`]),
//! * shared-capacity **resources** — processor-sharing ([`GpsResource`]) and
//!   serialized ([`FifoResource`]) — where a processor-sharing resource can
//!   keep a busy [`Timeline`] for NVML-style utilization sampling,
//! * in-order **streams** of jobs on a processor-sharing resource
//!   ([`GpsStream`], a CUDA stream) with [`SyncMarker`] rendezvous; the
//!   scheduler runs a stream itself, with no process behind it,
//! * a seeded RNG threaded through the kernel for reproducible arrival
//!   processes, and
//! * [`SimCell`]s: a simulation's mutable state, borrowed with a `RefCell`
//!   flag. A simulation and everything built on it stay on the thread that
//!   made them.
//!
//! Runs are fully deterministic for a given seed: exactly one simulated
//! process executes at any moment and ties are broken in FIFO schedule
//! order.
//!
//! ## Example
//!
//! ```
//! use dgsf_sim::{Sim, Dur, GpsResource};
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(7);
//! let gpu = Rc::new(GpsResource::new(&sim, 1.0)); // 1 "GPU-second" per second
//! for i in 0..2 {
//!     let gpu = gpu.clone();
//!     sim.spawn(&format!("kernel{i}"), move |ctx| {
//!         gpu.acquire(ctx, 1.0); // two 1s kernels sharing => both end at ~2s
//!         assert!((ctx.now().as_secs_f64() - 2.0).abs() < 1e-6);
//!     });
//! }
//! sim.run();
//! ```

#![warn(missing_docs)]

mod cell;
mod channel;
pub mod json;
mod kernel;
pub mod obs;
mod resource;
pub mod rng;
pub mod stats;
pub mod telemetry;
mod time;
pub mod trace;

pub use cell::SimCell;
pub use channel::{RecvError, SimReceiver, SimSender};
pub use kernel::{ProcCtx, ProcId, ShutdownSignal, Sim, SimHandle};
pub use obs::{AlertEvent, AlertKind, ObsConfig, ObsPlane, ObsReport, TenantBurnRow, WindowRow};
pub use resource::{FifoResource, GpsResource, GpsStream, SyncMarker, Timeline};
pub use stats::{moving_average, percentile_permille, percentile_sorted, Summary};
pub use telemetry::{
    ArgValue, Args, EventRecord, Histogram, Id, Lit, Name, SpanRecord, Telemetry, TelemetryExport,
    TraceCtx,
};
pub use time::{Dur, SimTime};
pub use trace::{GroupAttribution, Segment, SloBurn, SloPolicy, TraceOutcome, TraceTree};
