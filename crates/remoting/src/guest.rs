//! The DGSF guest library: the `LD_PRELOAD`-style interposer that makes a
//! remote GPU look local (paper §V-A/B/C).
//!
//! [`RemoteCuda`] implements [`CudaApi`] by classifying every interposed
//! call:
//!
//! * **localizable** — answered from guest-side state without any network
//!   traffic (`cudaPointerGetAttributes` from the tracked allocation map,
//!   cached device count/properties, `cudaMallocHost`, cuDNN descriptor
//!   create/set/destroy against guest-side pools);
//! * **batchable** — asynchronous calls (memsets, kernel launches, event
//!   records, elidable library calls) accumulated and flushed in a single
//!   round trip before the next synchronous call;
//! * **remotable** — everything else, one RPC each; un-batched call runs are
//!   charged as N sequential round trips.
//!
//! Which classes are active is controlled by [`OptConfig`], the knob the
//! ablation study (Figure 4) sweeps.

use std::collections::BTreeMap;
use std::sync::Arc;

use dgsf_cuda::{
    ApiStats, CublasHandle, CudaApi, CudaError, CudaResult, CudnnHandle, DescriptorKind,
    DescriptorRange, DevPtr, EventHandle, HostBuf, KernelArgs, LaunchConfig, LibOp, ModuleRegistry,
    PtrAttributes, StreamHandle,
};
use dgsf_gpu::DeviceProps;
use dgsf_sim::ProcCtx;

use crate::transport::RpcClient;
use crate::wire::{descriptor_kind_to_u8, error_from_wire, Request, Response, WireArgs};

/// Which serverless-specialization layers are active — the ablation knob of
/// Figure 4. Layers are cumulative in the paper's study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Use the API server's pre-initialized CUDA context pool (startup
    /// optimization, §V-C).
    pub pooled_runtime: bool,
    /// Use the API server's pre-created cuDNN/cuBLAS handle pools.
    pub pooled_handles: bool,
    /// Keep cuDNN descriptors in guest-side pools, never remoting their
    /// create/set/destroy calls.
    pub descriptor_pools: bool,
    /// Accumulate asynchronous APIs and flush them in batches.
    pub batching: bool,
    /// Emulate host-answerable APIs guest-side and piggyback launch
    /// configurations ("avoiding other unnecessary APIs").
    pub localization: bool,
}

impl OptConfig {
    /// No optimizations — the "DGSF without optimizations" baseline.
    pub fn none() -> OptConfig {
        OptConfig {
            pooled_runtime: false,
            pooled_handles: false,
            descriptor_pools: false,
            batching: false,
            localization: false,
        }
    }

    /// + context & handle pooling (ablation level 1).
    pub fn handle_pools() -> OptConfig {
        OptConfig {
            pooled_runtime: true,
            pooled_handles: true,
            ..OptConfig::none()
        }
    }

    /// + guest-side descriptor pools (ablation level 2).
    pub fn descriptor_pools() -> OptConfig {
        OptConfig {
            descriptor_pools: true,
            ..OptConfig::handle_pools()
        }
    }

    /// + batching and API elision (ablation level 3 — full DGSF).
    pub fn full() -> OptConfig {
        OptConfig {
            batching: true,
            localization: true,
            ..OptConfig::descriptor_pools()
        }
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::full()
    }
}

/// The guest library. One instance per function execution, connected to the
/// API server the monitor assigned.
pub struct RemoteCuda {
    rpc: RpcClient,
    opts: OptConfig,
    stats: ApiStats,
    count_cache: Option<u32>,
    props_cache: Option<DeviceProps>,
    /// Device allocations the guest has seen, by base pointer, with the
    /// requested size; lets `cudaPointerGetAttributes` answer locally. An
    /// adopted buffer's size is unknown here (`None`): the server answers
    /// the adoption with the pointer only.
    allocs: BTreeMap<u64, Option<u64>>,
    /// Kernel name → client-visible function pointer, sorted by name.
    fptrs: Vec<(String, u64)>,
    /// Live client stream handles (guest-side validation); a guest holds a
    /// handful, so a linear scan is the cheapest lookup.
    streams: Vec<u64>,
    /// Deferred asynchronous requests.
    batch: Vec<Request>,
    next_local_descriptor: u64,
    live_local_descriptors: u64,
}

impl RemoteCuda {
    /// Wrap an RPC connection to an API server.
    pub fn new(rpc: RpcClient, opts: OptConfig) -> RemoteCuda {
        RemoteCuda {
            rpc,
            opts,
            stats: ApiStats::default(),
            count_cache: None,
            props_cache: None,
            allocs: BTreeMap::new(),
            fptrs: Vec::new(),
            streams: Vec::new(),
            batch: Vec::new(),
            next_local_descriptor: 0x8000_0000_0000_0000,
            live_local_descriptors: 0,
        }
    }

    /// Active optimization configuration.
    pub fn opts(&self) -> OptConfig {
        self.opts
    }

    /// Descriptors currently held in guest-side pools.
    pub fn live_local_descriptors(&self) -> u64 {
        self.live_local_descriptors
    }

    fn call(&mut self, p: &ProcCtx, req: &Request) -> CudaResult<Response> {
        self.call_n(p, req, 1)
    }

    /// `n` sequential round trips of the same request (aggregate executes
    /// once server-side).
    fn call_n(&mut self, p: &ProcCtx, req: &Request, n: u32) -> CudaResult<Response> {
        self.stats.remoted_calls += n as u64;
        match self.rpc.call_repeated(p, req, n) {
            Ok(Response::Err { class, msg }) => Err(error_from_wire(class, msg)),
            Ok(ok) => Ok(ok),
            Err(te) => Err(CudaError::Transport(te.to_string())),
        }
    }

    /// Flush deferred asynchronous calls in one round trip.
    fn flush(&mut self, p: &ProcCtx) -> CudaResult<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = Request::Batch(std::mem::take(&mut self.batch));
        let result = self.call_n(p, &batch, 1);
        // Keep the vector's capacity for the next batch.
        if let Request::Batch(mut reqs) = batch {
            reqs.clear();
            self.batch = reqs;
        }
        result.map(|_| ())
    }

    /// The client-visible function pointer of kernel `name`.
    fn fptr(&self, name: &str) -> CudaResult<u64> {
        self.fptrs
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.fptrs[i].1)
            .map_err(|_| CudaError::InvalidValue(format!("unregistered kernel {name:?}")))
    }

    /// Hold `req` in the batch until the next synchronous call flushes it.
    fn defer(&mut self, req: Request, represented_calls: u64) {
        self.stats.batched_calls += represented_calls;
        self.batch.push(req);
    }

    /// Finish the function: flush pending work and release all server-side
    /// state. Called by the platform glue, not the application.
    pub fn finish(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.flush(p)?;
        self.call(p, &Request::EndFunction)?;
        Ok(())
    }
}

impl CudaApi for RemoteCuda {
    fn runtime_init(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.stats.issue(1);
        self.call(
            p,
            &Request::Init {
                pooled_context: self.opts.pooled_runtime,
            },
        )?;
        Ok(())
    }

    fn register_module(&mut self, p: &ProcCtx, registry: Arc<ModuleRegistry>) -> CudaResult<()> {
        self.stats.issue(1);
        let kernels: Vec<String> = registry.names().map(str::to_string).collect();
        match self.call(p, &Request::RegisterModule { kernels })? {
            Response::Fptrs(mut fs) => {
                fs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                self.fptrs = fs;
                Ok(())
            }
            other => Err(CudaError::RemotingFailure(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    fn get_device_count(&mut self, p: &ProcCtx) -> CudaResult<u32> {
        self.stats.issue(1);
        if self.opts.localization {
            if let Some(c) = self.count_cache {
                self.stats.localized_calls += 1;
                return Ok(c);
            }
        }
        match self.call(p, &Request::GetDeviceCount)? {
            Response::Count(c) => {
                self.count_cache = Some(c);
                Ok(c)
            }
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn get_device_properties(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<DeviceProps> {
        self.stats.issue(1);
        if dev != 0 {
            return Err(CudaError::InvalidDevice { requested: dev });
        }
        if self.opts.localization {
            if let Some(props) = &self.props_cache {
                self.stats.localized_calls += 1;
                return Ok(props.clone());
            }
        }
        match self.call(p, &Request::GetDeviceProps { dev })? {
            Response::Props(props) => {
                self.props_cache = Some(props.clone());
                Ok(props)
            }
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn set_device(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<()> {
        self.stats.issue(1);
        if dev != 0 {
            return Err(CudaError::InvalidDevice { requested: dev });
        }
        if self.opts.localization {
            // The server is pinned to device 0 by construction; nothing to do.
            self.stats.localized_calls += 1;
            return Ok(());
        }
        self.call(p, &Request::SetDevice { dev })?;
        Ok(())
    }

    fn malloc(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<DevPtr> {
        self.stats.issue(1);
        self.flush(p)?;
        match self.call(p, &Request::Malloc { bytes })? {
            Response::Ptr(ptr) => {
                self.allocs.insert(ptr, Some(bytes));
                Ok(DevPtr(ptr))
            }
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn free(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::Free { ptr: ptr.0 })?;
        self.allocs.remove(&ptr.0);
        Ok(())
    }

    fn publish_buffer(&mut self, p: &ProcCtx, key: u64, ptr: DevPtr) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::PublishBuffer { key, ptr: ptr.0 })?;
        self.allocs.remove(&ptr.0);
        Ok(())
    }

    fn adopt_buffer(&mut self, p: &ProcCtx, key: u64) -> CudaResult<DevPtr> {
        self.stats.issue(1);
        self.flush(p)?;
        match self.call(p, &Request::AdoptBuffer { key })? {
            Response::Ptr(ptr) => {
                self.allocs.insert(ptr, None);
                Ok(DevPtr(ptr))
            }
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn memset(&mut self, p: &ProcCtx, ptr: DevPtr, value: u8, bytes: u64) -> CudaResult<()> {
        self.stats.issue(1);
        let req = Request::Memset {
            ptr: ptr.0,
            value,
            bytes,
        };
        if self.opts.batching {
            self.defer(req, 1);
            Ok(())
        } else {
            self.call(p, &req).map(|_| ())
        }
    }

    fn memcpy_h2d(&mut self, p: &ProcCtx, dst: DevPtr, src: HostBuf) -> CudaResult<()> {
        self.stats.issue(1);
        self.stats.bytes_to_device += src.len();
        self.flush(p)?;
        self.call(
            p,
            &Request::MemcpyH2D {
                dst: dst.0,
                data: src,
            },
        )?;
        Ok(())
    }

    fn memcpy_d2h(
        &mut self,
        p: &ProcCtx,
        src: DevPtr,
        bytes: u64,
        want_data: bool,
    ) -> CudaResult<HostBuf> {
        self.stats.issue(1);
        self.stats.bytes_to_host += bytes;
        self.flush(p)?;
        match self.call(
            p,
            &Request::MemcpyD2H {
                src: src.0,
                bytes,
                want_data,
            },
        )? {
            Response::Data(d) => Ok(d),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn launch_kernel(
        &mut self,
        p: &ProcCtx,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        // A launch is really two interposed calls:
        // __cudaPushCallConfiguration + cudaLaunchKernel.
        self.stats.issue(2);
        self.stats.kernel_launches += 1;
        let fptr = self.fptr(name)?;
        let args = WireArgs::from(args);
        if self.opts.batching {
            self.defer(
                Request::LaunchConfigured {
                    fptr,
                    stream: 0,
                    cfg,
                    args,
                },
                2,
            );
            Ok(())
        } else if self.opts.localization {
            // Piggyback the configuration: one round trip instead of two.
            self.stats.localized_calls += 1;
            self.call(
                p,
                &Request::LaunchConfigured {
                    fptr,
                    stream: 0,
                    cfg,
                    args,
                },
            )
            .map(|_| ())
        } else {
            self.call(p, &Request::PushCallConfiguration { cfg })?;
            self.call(p, &Request::Launch { fptr, args }).map(|_| ())
        }
    }

    fn launch_kernel_on(
        &mut self,
        p: &ProcCtx,
        stream: StreamHandle,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.stats.issue(2);
        self.stats.kernel_launches += 1;
        if !self.streams.contains(&stream.0) {
            return Err(CudaError::InvalidResourceHandle(format!(
                "stream {:#x}",
                stream.0
            )));
        }
        let fptr = self.fptr(name)?;
        let req = Request::LaunchConfigured {
            fptr,
            stream: stream.0,
            cfg,
            args: WireArgs::from(args),
        };
        if self.opts.batching {
            self.defer(req, 2);
            Ok(())
        } else {
            // Stream launches always piggyback the configuration.
            self.stats.localized_calls += 1;
            self.call(p, &req).map(|_| ())
        }
    }

    fn device_synchronize(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::Sync)?;
        Ok(())
    }

    fn stream_create(&mut self, p: &ProcCtx) -> CudaResult<StreamHandle> {
        self.stats.issue(1);
        self.flush(p)?;
        match self.call(p, &Request::StreamCreate)? {
            Response::Handle(h) => {
                self.streams.push(h);
                Ok(StreamHandle(h))
            }
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn stream_destroy(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::StreamDestroy { h: s.0 })?;
        self.streams.retain(|&h| h != s.0);
        Ok(())
    }

    fn stream_synchronize(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::StreamSync { h: s.0 })?;
        Ok(())
    }

    fn event_create(&mut self, p: &ProcCtx) -> CudaResult<EventHandle> {
        self.stats.issue(1);
        self.flush(p)?;
        match self.call(p, &Request::EventCreate)? {
            Response::Handle(h) => Ok(EventHandle(h)),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn event_record(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.stats.issue(1);
        let req = Request::EventRecord { h: e.0 };
        if self.opts.batching {
            self.defer(req, 1);
            Ok(())
        } else {
            self.call(p, &req).map(|_| ())
        }
    }

    fn event_synchronize(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::EventSync { h: e.0 })?;
        Ok(())
    }

    fn pointer_get_attributes(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<PtrAttributes> {
        self.stats.issue(1);
        // The guest tracks every device allocation and answers locally,
        // unless the pointer may lie in an adopted buffer, whose size only
        // the server knows.
        let below = self.allocs.range(..=ptr.0).next_back();
        let maybe_adopted = matches!(below, Some((_, None)));
        if self.opts.localization && !maybe_adopted {
            self.stats.localized_calls += 1;
            let alloc_size = below.and_then(|(base, size)| size.filter(|size| ptr.0 < base + size));
            return Ok(PtrAttributes {
                is_device: alloc_size.is_some(),
                alloc_size,
                device: 0,
            });
        }
        match self.call(p, &Request::PointerGetAttributes { ptr: ptr.0 })? {
            Response::Attrs {
                is_device,
                alloc_size,
                device,
            } => Ok(PtrAttributes {
                is_device,
                alloc_size,
                device,
            }),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn malloc_host(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<()> {
        self.stats.issue(1);
        if self.opts.localization {
            // Host-only state: fully emulated client-side (§V-C).
            self.stats.localized_calls += 1;
            return Ok(());
        }
        self.call(p, &Request::MallocHost { bytes })?;
        Ok(())
    }

    fn cudnn_create(&mut self, p: &ProcCtx) -> CudaResult<CudnnHandle> {
        self.stats.issue(1);
        self.flush(p)?;
        if self.opts.pooled_handles {
            self.stats.pool_hits += 1;
        }
        match self.call(
            p,
            &Request::CudnnCreate {
                pooled: self.opts.pooled_handles,
            },
        )? {
            Response::Handle(h) => Ok(CudnnHandle(h)),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn cudnn_destroy(&mut self, p: &ProcCtx, h: CudnnHandle) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::CudnnDestroy { h: h.0 })?;
        Ok(())
    }

    fn cudnn_create_descriptors(
        &mut self,
        p: &ProcCtx,
        kind: DescriptorKind,
        n: u64,
    ) -> CudaResult<DescriptorRange> {
        self.stats.issue(n);
        if self.opts.descriptor_pools {
            // Served from the guest-side pool: no network traffic at all.
            self.stats.localized_calls += n;
            self.live_local_descriptors += n;
            let out = DescriptorRange {
                first: self.next_local_descriptor,
                count: n,
            };
            self.next_local_descriptor += n;
            return Ok(out);
        }
        match self.call_n(
            p,
            &Request::CudnnCreateDescriptors {
                kind: descriptor_kind_to_u8(kind),
                n,
            },
            n.max(1) as u32,
        )? {
            // The server hands out consecutive ids.
            Response::Handles(hs) => Ok(DescriptorRange {
                first: hs.first().copied().unwrap_or(0),
                count: hs.len() as u64,
            }),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn cudnn_set_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()> {
        let n = descs.count;
        self.stats.issue(n);
        if self.opts.descriptor_pools {
            // Descriptor state is kept guest-side and piggybacked onto the
            // operations that use it.
            self.stats.localized_calls += n;
            return Ok(());
        }
        self.call_n(p, &Request::CudnnSetDescriptors { n }, n.max(1) as u32)?;
        Ok(())
    }

    fn cudnn_destroy_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()> {
        let n = descs.count;
        self.stats.issue(n);
        if self.opts.descriptor_pools {
            self.stats.localized_calls += n;
            self.live_local_descriptors = self.live_local_descriptors.saturating_sub(n);
            return Ok(());
        }
        self.call_n(p, &Request::CudnnDestroyDescriptors { n }, n.max(1) as u32)?;
        Ok(())
    }

    fn cudnn_op(&mut self, p: &ProcCtx, h: CudnnHandle, op: LibOp) -> CudaResult<()> {
        self.stats.issue(op.api_calls);
        let req = Request::CudnnOp {
            h: h.0,
            work: op.work,
            bytes: op.bytes,
            api_calls: op.api_calls,
        };
        self.lib_call(p, req, op)
    }

    fn cublas_create(&mut self, p: &ProcCtx) -> CudaResult<CublasHandle> {
        self.stats.issue(1);
        self.flush(p)?;
        if self.opts.pooled_handles {
            self.stats.pool_hits += 1;
        }
        match self.call(
            p,
            &Request::CublasCreate {
                pooled: self.opts.pooled_handles,
            },
        )? {
            Response::Handle(h) => Ok(CublasHandle(h)),
            other => Err(CudaError::RemotingFailure(format!("{other:?}"))),
        }
    }

    fn cublas_destroy(&mut self, p: &ProcCtx, h: CublasHandle) -> CudaResult<()> {
        self.stats.issue(1);
        self.flush(p)?;
        self.call(p, &Request::CublasDestroy { h: h.0 })?;
        Ok(())
    }

    fn cublas_op(&mut self, p: &ProcCtx, h: CublasHandle, op: LibOp) -> CudaResult<()> {
        self.stats.issue(op.api_calls);
        let req = Request::CublasOp {
            h: h.0,
            work: op.work,
            bytes: op.bytes,
            api_calls: op.api_calls,
        };
        self.lib_call(p, req, op)
    }

    fn stats(&self) -> ApiStats {
        self.stats.clone()
    }
}

impl RemoteCuda {
    /// Shared path for aggregate library operations: under batching, the
    /// elidable fraction of the represented calls rides in the batch; the
    /// rest are synchronous round trips. Without batching every represented
    /// call is its own round trip.
    fn lib_call(&mut self, p: &ProcCtx, req: Request, op: LibOp) -> CudaResult<()> {
        if self.opts.batching {
            let elided = op.elidable_calls.min(op.api_calls);
            let sync_calls = op.api_calls - elided;
            if sync_calls == 0 {
                self.defer(req, op.api_calls);
            } else {
                self.stats.batched_calls += elided;
                self.flush(p)?;
                self.call_n(p, &req, sync_calls.max(1) as u32)?;
            }
            Ok(())
        } else {
            self.call_n(p, &req, op.api_calls.max(1) as u32)?;
            Ok(())
        }
    }
}
