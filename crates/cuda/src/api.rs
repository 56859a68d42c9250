//! The interposition surface: every CUDA / cuDNN / cuBLAS entry point the
//! DGSF prototype captures, expressed as a trait.
//!
//! Workloads are written against `dyn CudaApi` and run unchanged in three
//! configurations, exactly as in the paper's evaluation:
//!
//! * **native** — [`crate::NativeCuda`]: direct execution on a local GPU,
//!   paying CUDA runtime initialization on the critical path;
//! * **DGSF** — the guest library in `dgsf-remoting`, which forwards
//!   remotable calls over the network and localizes/batches/pools the rest;
//! * **DGSF on AWS Lambda** — the same guest library under a
//!   lower-bandwidth, higher-latency deployment profile.

use std::sync::Arc;

use dgsf_gpu::DeviceProps;
use dgsf_sim::ProcCtx;

use crate::error::CudaResult;
use crate::module::ModuleRegistry;
use crate::types::{
    CublasHandle, CudnnHandle, DescriptorKind, DescriptorRange, DevPtr, EventHandle, HostBuf,
    KernelArgs, LaunchConfig, PtrAttributes, StreamHandle,
};

/// An aggregate cuDNN/cuBLAS operation (e.g. all the library calls of one
/// inference batch), carrying both its GPU cost and how many individual API
/// calls it stands for — the currency of the paper's batching/elision
/// optimizations (≤48 % of ONNX calls and ≤96 % of TF calls are elidable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibOp {
    /// GPU-seconds of device work.
    pub work: f64,
    /// Bytes touched on device (informational).
    pub bytes: u64,
    /// Individual API calls this aggregate stands for.
    pub api_calls: u64,
    /// Of those, how many are asynchronous/localizable and can be batched
    /// or elided by the guest library.
    pub elidable_calls: u64,
}

impl LibOp {
    /// A pure-compute op standing for a single API call.
    pub fn compute(work: f64) -> LibOp {
        LibOp {
            work,
            bytes: 0,
            api_calls: 1,
            elidable_calls: 0,
        }
    }
}

/// Counters describing how an API implementation handled traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApiStats {
    /// API calls the application issued (aggregates expanded).
    pub issued_calls: u64,
    /// Calls that crossed the network individually.
    pub remoted_calls: u64,
    /// Calls answered locally by the guest library without remoting.
    pub localized_calls: u64,
    /// Calls folded into a batch flush instead of individual round trips.
    pub batched_calls: u64,
    /// Create-calls served from a pre-created pool.
    pub pool_hits: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Bytes shipped host→device.
    pub bytes_to_device: u64,
    /// Bytes shipped device→host.
    pub bytes_to_host: u64,
}

impl ApiStats {
    /// Record `n` issued calls.
    pub fn issue(&mut self, n: u64) {
        self.issued_calls += n;
    }

    /// Fraction of issued calls that did *not* cross the network
    /// individually (the paper's "reduction in forwarded CUDA APIs").
    pub fn forwarding_reduction(&self) -> f64 {
        if self.issued_calls == 0 {
            return 0.0;
        }
        1.0 - (self.remoted_calls as f64 / self.issued_calls as f64)
    }
}

/// The virtual CUDA runtime API.
///
/// Every method takes the calling simulated process so implementations can
/// charge virtual time (host overheads, network round trips, device work).
pub trait CudaApi {
    /// Initialize the runtime (the implicit first-call initialization of
    /// real CUDA, made explicit so experiments can attribute its cost).
    fn runtime_init(&mut self, p: &ProcCtx) -> CudaResult<()>;

    /// Ship the application's kernels (Figure 2 step ②).
    fn register_module(&mut self, p: &ProcCtx, registry: Arc<ModuleRegistry>) -> CudaResult<()>;

    /// `cudaGetDeviceCount` — always 1 under DGSF, regardless of the GPU
    /// server's real inventory (§V-B "Device management functions").
    fn get_device_count(&mut self, p: &ProcCtx) -> CudaResult<u32>;

    /// `cudaGetDeviceProperties` for ordinal `dev`.
    fn get_device_properties(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<DeviceProps>;

    /// `cudaSetDevice`. Only ordinal 0 is valid under DGSF.
    fn set_device(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<()>;

    /// `cudaMalloc`.
    fn malloc(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<DevPtr>;

    /// `cudaFree`.
    fn free(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<()>;

    /// `cudaMemset` (stream-ordered).
    fn memset(&mut self, p: &ProcCtx, ptr: DevPtr, value: u8, bytes: u64) -> CudaResult<()>;

    /// `cudaMemcpy` host→device.
    fn memcpy_h2d(&mut self, p: &ProcCtx, dst: DevPtr, src: HostBuf) -> CudaResult<()>;

    /// `cudaMemcpy` device→host. `want_data` selects real bytes vs a
    /// size-only result (trace-modeled workloads).
    fn memcpy_d2h(
        &mut self,
        p: &ProcCtx,
        src: DevPtr,
        bytes: u64,
        want_data: bool,
    ) -> CudaResult<HostBuf>;

    /// Launch a kernel by name on the default stream.
    fn launch_kernel(
        &mut self,
        p: &ProcCtx,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()>;

    /// Launch a kernel on a specific stream. Work on different streams may
    /// overlap (contending on the GPU's compute engine); work on the same
    /// stream stays in order.
    fn launch_kernel_on(
        &mut self,
        p: &ProcCtx,
        stream: StreamHandle,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()>;

    /// `cudaDeviceSynchronize`.
    fn device_synchronize(&mut self, p: &ProcCtx) -> CudaResult<()>;

    /// `cudaStreamCreate`.
    fn stream_create(&mut self, p: &ProcCtx) -> CudaResult<StreamHandle>;
    /// `cudaStreamDestroy`.
    fn stream_destroy(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()>;
    /// `cudaStreamSynchronize`.
    fn stream_synchronize(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()>;

    /// `cudaEventCreate`.
    fn event_create(&mut self, p: &ProcCtx) -> CudaResult<EventHandle>;
    /// `cudaEventRecord` (on the default stream).
    fn event_record(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()>;
    /// `cudaEventSynchronize`.
    fn event_synchronize(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()>;

    /// `cudaPointerGetAttributes` — answerable guest-side under DGSF.
    fn pointer_get_attributes(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<PtrAttributes>;

    /// DGSF handoff extension: park `ptr` in the serving context's
    /// resident store under `key` — the buffer stays on the GPU, data
    /// intact, after this function exits, for a successor DAG stage to
    /// [`CudaApi::adopt_buffer`]. Not part of real CUDA; backends without
    /// a resident store report `Unsupported`.
    fn publish_buffer(&mut self, p: &ProcCtx, key: u64, ptr: DevPtr) -> CudaResult<()> {
        let _ = (p, key, ptr);
        Err(crate::error::CudaError::Unsupported(
            "publish_buffer: no resident store on this backend".into(),
        ))
    }

    /// DGSF handoff extension: adopt the buffer a predecessor stage parked
    /// under `key`, mapping it into this session at a fresh device pointer.
    fn adopt_buffer(&mut self, p: &ProcCtx, key: u64) -> CudaResult<DevPtr> {
        let _ = (p, key);
        Err(crate::error::CudaError::Unsupported(
            "adopt_buffer: no resident store on this backend".into(),
        ))
    }

    /// `cudaMallocHost` — host-only; fully emulated client-side under DGSF.
    fn malloc_host(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<()>;

    /// `cudnnCreate`.
    fn cudnn_create(&mut self, p: &ProcCtx) -> CudaResult<CudnnHandle>;
    /// `cudnnDestroy`.
    fn cudnn_destroy(&mut self, p: &ProcCtx, h: CudnnHandle) -> CudaResult<()>;
    /// Create `n` cuDNN descriptors of `kind` (aggregated: model loading
    /// issues thousands of these).
    fn cudnn_create_descriptors(
        &mut self,
        p: &ProcCtx,
        kind: DescriptorKind,
        n: u64,
    ) -> CudaResult<DescriptorRange>;
    /// Configure descriptors (`cudnnSet*Descriptor` — host-side).
    fn cudnn_set_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()>;
    /// Destroy descriptors.
    fn cudnn_destroy_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()>;
    /// Execute an aggregate cuDNN operation.
    fn cudnn_op(&mut self, p: &ProcCtx, h: CudnnHandle, op: LibOp) -> CudaResult<()>;

    /// `cublasCreate`.
    fn cublas_create(&mut self, p: &ProcCtx) -> CudaResult<CublasHandle>;
    /// `cublasDestroy`.
    fn cublas_destroy(&mut self, p: &ProcCtx, h: CublasHandle) -> CudaResult<()>;
    /// Execute an aggregate cuBLAS operation.
    fn cublas_op(&mut self, p: &ProcCtx, h: CublasHandle, op: LibOp) -> CudaResult<()>;

    /// Traffic statistics accumulated so far.
    fn stats(&self) -> ApiStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_reduction_math() {
        let mut s = ApiStats::default();
        s.issue(100);
        s.remoted_calls = 52;
        assert!((s.forwarding_reduction() - 0.48).abs() < 1e-12);
        assert_eq!(ApiStats::default().forwarding_reduction(), 0.0);
    }
}
