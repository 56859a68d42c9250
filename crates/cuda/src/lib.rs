//! # dgsf-cuda — a virtual CUDA runtime
//!
//! Substitute for CUDA 10.1/10.2 in the DGSF reproduction. It provides:
//!
//! * the [`CudaApi`] trait — the interposition surface the paper's guest
//!   library captures (CUDA runtime + cuDNN + cuBLAS entry points),
//! * [`NativeCuda`] — the paper's *native* baseline: direct execution on a
//!   local (simulated) GPU, paying runtime initialization on the critical
//!   path,
//! * [`CudaContext`] — per-GPU contexts with context-specific function
//!   pointers and handles, and in-order asynchronous streams that the
//!   simulation's scheduler runs on the GPU's compute engine,
//! * [`GpuSession`] — the per-function state an API server maintains, with
//!   **VMM-backed allocation** and **VA-preserving live migration** between
//!   contexts/GPUs (paper §V-D), and
//! * a calibrated [`CostTable`] (runtime init 3.2 s / 303 MB, `cudnnCreate`
//!   1.2 s / 382 MB, `cublasCreate` 0.2 s / 70 MB, …).
//!
//! Kernels are registered in a [`ModuleRegistry`]; each has a cost model
//! and, optionally, a *functional* body that really reads and writes device
//! memory — used by the real K-means example and the migration correctness
//! tests.

#![warn(missing_docs)]

mod api;
mod context;
mod costs;
mod error;
mod module;
mod native;
mod session;
mod types;
mod view;

pub use api::{ApiStats, CudaApi, LibOp};
pub use context::{CudaContext, ResidentBuf, ResidentEvent, DEFAULT_STREAM};
pub use costs::CostTable;
pub use error::{CudaError, CudaResult};
pub use module::{KernelCost, KernelDef, KernelFn, KernelId, ModuleRegistry};
pub use native::NativeCuda;
pub use session::{GpuSession, MigrationReport};
pub use types::{
    CublasHandle, CudnnHandle, DescriptorKind, DescriptorRange, DevPtr, EventHandle, HostBuf,
    KernelArgs, LaunchConfig, PtrAttributes, StreamHandle,
};
pub use view::DeviceView;
