//! Per-function GPU session: the client-visible CUDA state an API server
//! maintains on behalf of one serverless function, and the VA-preserving
//! live-migration engine (paper §V-D).
//!
//! All device memory is allocated through the driver-level VMM
//! (`cuMemCreate` + `cuMemAddressReserve` + `cuMemMap`) instead of plain
//! `cudaMalloc`, so the session can move its physical allocations to another
//! GPU while every virtual address the application ever saw stays valid —
//! including indirect device pointers stored *inside* device data structures,
//! which no argument-translation scheme could fix up.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_gpu::{VaRange, VaSpace, VA_GRANULARITY};
use dgsf_sim::{Dur, ProcCtx, SimCell, SimHandle, SimTime};

use crate::context::{CudaContext, StreamCmd};
use crate::costs::CostTable;
use crate::error::{CudaError, CudaResult};
use crate::module::{KernelId, ModuleRegistry};
use crate::types::{
    CublasHandle, CudnnHandle, DevPtr, EventHandle, HostBuf, KernelArgs, LaunchConfig,
    PtrAttributes, StreamHandle,
};
use crate::view::DeviceView;

/// One `cudaMalloc`-level allocation.
#[derive(Debug, Clone, Copy)]
struct SessionAlloc {
    /// Bytes the application asked for.
    requested: u64,
    /// Bytes actually reserved/mapped (granularity-rounded).
    mapped: u64,
    /// Backing physical allocation on the *current* GPU.
    phys: dgsf_gpu::PhysId,
    /// The VA reservation backing this allocation.
    range: VaRange,
}

/// A pipelined host→device copy not yet known to have retired: the VA range
/// it targets plus the background transfer's completion signal.
struct PendingH2d {
    base: u64,
    len: u64,
    done: dgsf_sim::SimReceiver<()>,
}

impl PendingH2d {
    fn overlaps(&self, base: u64, len: u64) -> bool {
        len > 0 && self.len > 0 && base < self.base + self.len && self.base < base + len
    }
}

/// Client-visible handle twins: the value the application holds, mapped to
/// the per-context native value for every context the session has visited.
#[derive(Default)]
struct TwinMap {
    /// client handle -> (context id -> native handle)
    twins: HashMap<u64, HashMap<u64, u64>>,
}

impl TwinMap {
    fn insert(&mut self, client: u64, ctx: u64, native: u64) {
        self.twins.entry(client).or_default().insert(ctx, native);
    }
    fn get(&self, client: u64, ctx: u64) -> Option<u64> {
        self.twins.get(&client).and_then(|m| m.get(&ctx)).copied()
    }
    fn remove(&mut self, client: u64) -> Option<HashMap<u64, u64>> {
        self.twins.remove(&client)
    }
    /// True if the client handle is known at all.
    fn contains(&self, client: u64) -> bool {
        self.twins.contains_key(&client)
    }
    /// Drop one context's twin of a client handle (after destroying it).
    fn remove_twin(&mut self, client: u64, ctx: u64) {
        if let Some(m) = self.twins.get_mut(&client) {
            m.remove(&ctx);
        }
    }
    fn clients(&self) -> Vec<u64> {
        self.twins.keys().copied().collect()
    }
    fn len(&self) -> usize {
        self.twins.len()
    }
}

/// Outcome of one live migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationReport {
    /// Bytes of device memory moved.
    pub bytes_moved: u64,
    /// Number of allocations moved.
    pub allocs_moved: usize,
    /// Time spent quiescing in-flight work.
    pub quiesce: Dur,
    /// Duration of the copy/stop stage (`max(stop, copy)` — they overlap).
    pub copy: Dur,
    /// Pure data-movement time (overlapped across DMA channels), excluding
    /// the handler-stop floor. This is what Table II's "approx. migration
    /// time" reports.
    pub data_copy: Dur,
    /// Time spent recreating cuDNN/cuBLAS state on the target context.
    pub lib_recreate: Dur,
    /// Wall (virtual) time of the whole migration.
    pub total: Dur,
}

/// The CUDA state of one application/function, bound to a *current* context
/// but migratable between contexts (and thus between physical GPUs).
pub struct GpuSession {
    handle: SimHandle,
    costs: Arc<CostTable>,
    /// Context currently executing this session's work.
    active: Rc<CudaContext>,
    /// Context the session started on (the API server's home GPU).
    home: Rc<CudaContext>,
    /// The application's virtual address space — survives migration intact.
    va: Rc<SimCell<VaSpace>>,
    registry: Arc<ModuleRegistry>,
    allocs: HashMap<u64, SessionAlloc>,
    mem_limit: Option<u64>,
    mem_used: u64,
    peak_mem: u64,
    streams: TwinMap,
    events: TwinMap,
    cudnn: TwinMap,
    cublas: TwinMap,
    /// Pending `cudaEventRecord` markers: client event → wait state.
    event_waits: HashMap<u64, EventWait>,
    /// In-flight pipelined host→device copies (empty unless
    /// [`CostTable::h2d_pipelined`] is set).
    pending_h2d: Vec<PendingH2d>,
    /// Number of completed migrations.
    pub migrations: u32,
}

/// State of a recorded event: a rendezvous that fires when every command
/// submitted to the stream before the record has retired.
struct EventWait {
    rx: dgsf_sim::SimReceiver<()>,
    completed: bool,
}

impl GpuSession {
    /// Start a session on `ctx` with an optional declared GPU memory limit.
    pub fn new(h: &SimHandle, ctx: Rc<CudaContext>, mem_limit: Option<u64>) -> GpuSession {
        GpuSession {
            handle: h.clone(),
            costs: Arc::clone(ctx.costs()),
            home: Rc::clone(&ctx),
            active: ctx,
            va: Rc::new(SimCell::new(h, VaSpace::new())),
            registry: Arc::new(ModuleRegistry::new()),
            allocs: HashMap::new(),
            mem_limit,
            mem_used: 0,
            peak_mem: 0,
            streams: TwinMap::default(),
            events: TwinMap::default(),
            cudnn: TwinMap::default(),
            cublas: TwinMap::default(),
            event_waits: HashMap::new(),
            pending_h2d: Vec::new(),
            migrations: 0,
        }
    }

    /// The context currently serving this session.
    pub fn active_context(&self) -> &Rc<CudaContext> {
        &self.active
    }

    /// Register the application's kernels (the guest library ships them at
    /// connection time, Figure 2 step ②).
    pub fn register_module(&mut self, registry: Arc<ModuleRegistry>) {
        self.registry = registry;
    }

    /// The registered module.
    pub fn registry(&self) -> &Arc<ModuleRegistry> {
        &self.registry
    }

    /// Device memory currently allocated by the application (mapped bytes;
    /// excludes context/library footprints).
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// Peak of [`GpuSession::mem_used`] over the session's lifetime.
    pub fn peak_mem(&self) -> u64 {
        self.peak_mem
    }

    // ---- memory management ----

    /// `cudaMalloc`, realized through the VMM path.
    pub fn malloc(&mut self, proc: &ProcCtx, bytes: u64) -> CudaResult<DevPtr> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue("cudaMalloc(0)".into()));
        }
        let mapped = bytes.div_ceil(VA_GRANULARITY) * VA_GRANULARITY;
        if let Some(limit) = self.mem_limit {
            if self.mem_used + mapped > limit {
                return Err(CudaError::MemoryLimitExceeded {
                    would_use: self.mem_used + mapped,
                    limit,
                });
            }
        }
        let phys = self.active.gpu().mem_create(mapped)?;
        let mut va = self.va.borrow_in(proc);
        let range = va.reserve(mapped)?;
        va.map(range.base, mapped, phys)?;
        drop(va);
        self.allocs.insert(
            range.base,
            SessionAlloc {
                requested: bytes,
                mapped,
                phys,
                range,
            },
        );
        self.mem_used += mapped;
        self.peak_mem = self.peak_mem.max(self.mem_used);
        Ok(DevPtr(range.base))
    }

    /// `cudaFree`.
    pub fn free(&mut self, proc: &ProcCtx, ptr: DevPtr) -> CudaResult<()> {
        if let Some(a) = self.allocs.get(&ptr.0) {
            let (base, mapped) = (a.range.base, a.mapped);
            self.fence_h2d_range(proc, base, mapped);
        }
        let a = self
            .allocs
            .remove(&ptr.0)
            .ok_or_else(|| CudaError::InvalidValue(format!("cudaFree({:#x})", ptr.0)))?;
        let mut va = self.va.borrow_in(proc);
        va.unmap(a.range.base)?;
        va.release(a.range)?;
        drop(va);
        self.active.gpu().mem_free(a.phys);
        self.mem_used -= a.mapped;
        Ok(())
    }

    /// Park an allocation in the active context's resident store under
    /// `key` (DGSF handoff extension): the buffer leaves this session —
    /// its VA is released and its bytes stop counting against the memory
    /// limit — but the *physical* allocation stays on the GPU, data
    /// intact, for a later session on the same context to adopt. Pending
    /// pipelined copies into the range are fenced first.
    pub fn publish_buffer(&mut self, proc: &ProcCtx, key: u64, ptr: DevPtr) -> CudaResult<()> {
        // Reject duplicate keys before dismantling the mapping, so a
        // failed publish leaves the allocation untouched in this session.
        if self.active.resident_peek(key).is_ok() {
            return Err(CudaError::InvalidResourceHandle(format!(
                "resident key {key:#x} already published"
            )));
        }
        if let Some(a) = self.allocs.get(&ptr.0) {
            let (base, mapped) = (a.range.base, a.mapped);
            self.fence_h2d_range(proc, base, mapped);
        }
        let a = self
            .allocs
            .remove(&ptr.0)
            .ok_or_else(|| CudaError::InvalidValue(format!("publish_buffer({:#x})", ptr.0)))?;
        let mut va = self.va.borrow_in(proc);
        va.unmap(a.range.base)?;
        va.release(a.range)?;
        drop(va);
        // No `mem_free`: the physical pages survive as the parked buffer.
        self.active.publish_resident(
            key,
            crate::context::ResidentBuf {
                phys: a.phys,
                requested: a.requested,
                mapped: a.mapped,
            },
        )?;
        self.mem_used -= a.mapped;
        Ok(())
    }

    /// Adopt the buffer parked under `key` in the active context's
    /// resident store: map its physical allocation into *this* session's
    /// VA space (at a fresh virtual address — the adopter never saw the
    /// publisher's) and take ownership as an ordinary allocation.
    pub fn adopt_buffer(&mut self, proc: &ProcCtx, key: u64) -> CudaResult<DevPtr> {
        // Check the limit before taking the buffer out of the store so a
        // failed adopt leaves it parked (and later reclaimable).
        let mapped = {
            let buf = self.active.resident_peek(key)?;
            buf.mapped
        };
        if let Some(limit) = self.mem_limit {
            if self.mem_used + mapped > limit {
                return Err(CudaError::MemoryLimitExceeded {
                    would_use: self.mem_used + mapped,
                    limit,
                });
            }
        }
        let buf = self.active.take_resident(key)?;
        let mut va = self.va.borrow_in(proc);
        let range = va.reserve(buf.mapped)?;
        va.map(range.base, buf.mapped, buf.phys)?;
        drop(va);
        self.allocs.insert(
            range.base,
            SessionAlloc {
                requested: buf.requested,
                mapped: buf.mapped,
                phys: buf.phys,
                range,
            },
        );
        self.mem_used += buf.mapped;
        self.peak_mem = self.peak_mem.max(self.mem_used);
        Ok(DevPtr(range.base))
    }

    /// `cudaMemset` (asynchronous, stream-ordered).
    pub fn memset(&mut self, proc: &ProcCtx, ptr: DevPtr, value: u8, bytes: u64) -> CudaResult<()> {
        self.check_mapped(proc, ptr, bytes)?;
        self.fence_h2d_range(proc, ptr.0, bytes);
        self.active.submit(
            proc,
            StreamCmd::Memset {
                va: Rc::clone(&self.va),
                ptr,
                len: bytes,
                value,
            },
        );
        Ok(())
    }

    /// `cudaMemcpy` host→device.
    ///
    /// Synchronous by default: drains the stream first (as a default-stream
    /// pageable copy does), then charges PCIe time. With
    /// [`CostTable::h2d_pipelined`] set the call instead *stages* the copy
    /// and returns immediately — the bytes are snapshotted (as a pinned
    /// staging copy would) and the DMA engines move them in the background,
    /// overlapping the transfer with compute and host work. Subsequent
    /// kernel launches touching the destination buffer fence on the
    /// in-flight copy; pipelined copies are not ordered against
    /// previously-submitted stream work.
    pub fn memcpy_h2d(&mut self, proc: &ProcCtx, dst: DevPtr, src: &HostBuf) -> CudaResult<()> {
        self.check_mapped(proc, dst, src.len())?;
        if self.costs.h2d_pipelined {
            if let Some(bytes) = src.as_bytes() {
                let va = self.va.borrow_in(proc);
                let mut view = DeviceView::new(&va, self.active.gpu());
                view.write_bytes(dst, bytes);
            }
            let done = self.active.gpu().dma_pipelined(
                proc,
                src.len(),
                self.costs.h2d_chunk_bytes,
                self.costs.h2d_dma_engines,
            );
            self.pending_h2d.push(PendingH2d {
                base: dst.0,
                len: src.len(),
                done,
            });
            return Ok(());
        }
        self.active.sync(proc);
        self.active.gpu().dma(proc, src.len());
        if let Some(bytes) = src.as_bytes() {
            let va = self.va.borrow_in(proc);
            let mut view = DeviceView::new(&va, self.active.gpu());
            view.write_bytes(dst, bytes);
        }
        Ok(())
    }

    /// Wait for in-flight pipelined copies overlapping `[base, base+len)`.
    fn fence_h2d_range(&mut self, proc: &ProcCtx, base: u64, len: u64) {
        if self.pending_h2d.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_h2d);
        for t in pending {
            if t.overlaps(base, len) {
                let _ = t.done.recv(proc);
            } else {
                self.pending_h2d.push(t);
            }
        }
    }

    /// Wait for every in-flight pipelined copy.
    fn fence_h2d_all(&mut self, proc: &ProcCtx) {
        for t in std::mem::take(&mut self.pending_h2d) {
            let _ = t.done.recv(proc);
        }
    }

    /// Fence in-flight pipelined copies against the allocations any of
    /// `ptrs` point into (a kernel may read anywhere in a buffer it is
    /// handed, so the fence covers the whole allocation).
    fn fence_h2d_for_ptrs(&mut self, proc: &ProcCtx, ptrs: &[DevPtr]) {
        if self.pending_h2d.is_empty() {
            return;
        }
        let spans: Vec<(u64, u64)> = ptrs
            .iter()
            .filter_map(|p| {
                self.allocs
                    .values()
                    .find(|a| p.0 >= a.range.base && p.0 < a.range.base + a.mapped)
                    .map(|a| (a.range.base, a.mapped))
            })
            .collect();
        for (base, len) in spans {
            self.fence_h2d_range(proc, base, len);
        }
    }

    /// `cudaMemcpy` device→host. Returns real bytes when `want_data`.
    pub fn memcpy_d2h(
        &mut self,
        proc: &ProcCtx,
        src: DevPtr,
        bytes: u64,
        want_data: bool,
    ) -> CudaResult<HostBuf> {
        self.check_mapped(proc, src, bytes)?;
        self.fence_h2d_range(proc, src.0, bytes);
        self.active.sync(proc);
        self.active.gpu().dma(proc, bytes);
        if want_data {
            let va = self.va.borrow_in(proc);
            let view = DeviceView::new(&va, self.active.gpu());
            let mut out = vec![0u8; bytes as usize];
            view.read_bytes(src, &mut out);
            Ok(HostBuf::Bytes(out.into()))
        } else {
            Ok(HostBuf::Logical(bytes))
        }
    }

    fn check_mapped(&self, proc: &ProcCtx, ptr: DevPtr, bytes: u64) -> CudaResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        let va = self.va.borrow_in(proc);
        va.resolve(ptr.0)?;
        if bytes > 1 {
            va.resolve(ptr.0 + bytes - 1)?;
        }
        Ok(())
    }

    /// `cudaPointerGetAttributes`, answered from session-tracked state (the
    /// guest library does exactly this without remoting — §V-C).
    pub fn pointer_attributes(&self, ptr: DevPtr) -> PtrAttributes {
        let known = self
            .allocs
            .values()
            .find(|a| ptr.0 >= a.range.base && ptr.0 < a.range.base + a.mapped);
        PtrAttributes {
            is_device: known.is_some(),
            alloc_size: known.map(|a| a.requested),
            device: 0,
        }
    }

    // ---- execution ----

    /// Launch a kernel on a specific (client-visible) stream, or the
    /// default stream when `stream` is `None`. Client handles are
    /// translated to the active context's twin, so launches stay on "the
    /// same stream" across migrations. `kernel` is resolved against the
    /// registered module ([`ModuleRegistry::id`]; the wire layer maps
    /// client function pointers to ids once, at module registration).
    pub fn launch_on(
        &mut self,
        proc: &ProcCtx,
        stream: Option<StreamHandle>,
        kernel: KernelId,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        let Some(def) = self.registry.def(kernel) else {
            return Err(CudaError::InvalidValue(format!(
                "kernel {kernel:?} not in the registered module"
            )));
        };
        let work = def.cost.eval(&args);
        let body = def.func.clone();
        self.fence_h2d_for_ptrs(proc, &args.ptrs);
        let native = match stream {
            None => crate::context::DEFAULT_STREAM,
            Some(s) => self
                .streams
                .get(s.0, self.active.id)
                .ok_or_else(|| CudaError::InvalidResourceHandle(format!("stream {:#x}", s.0)))?,
        };
        // A timed kernel's command is its cost; only a functional one
        // carries what its body reads.
        let cmd = match body {
            None => StreamCmd::Compute { work },
            Some(body) => StreamCmd::Exec {
                work,
                body,
                cfg,
                args,
                va: Rc::clone(&self.va),
            },
        };
        self.active.submit_on(proc, native, cmd);
        Ok(())
    }

    /// `cudaStreamSynchronize`: drain one client stream's queue.
    pub fn stream_synchronize(&mut self, proc: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        let native = self
            .streams
            .get(s.0, self.active.id)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("stream {:#x}", s.0)))?;
        self.active.sync_stream(proc, native);
        Ok(())
    }

    /// Enqueue an aggregate cuDNN/cuBLAS operation of `work` GPU-seconds.
    pub fn lib_op(&mut self, proc: &ProcCtx, work: f64) {
        self.active.submit(proc, StreamCmd::Compute { work });
    }

    /// `cudaDeviceSynchronize`. Also fences every in-flight pipelined copy.
    pub fn synchronize(&mut self, proc: &ProcCtx) {
        self.fence_h2d_all(proc);
        self.active.sync(proc);
    }

    // ---- handles (client-visible values are stable across migration) ----

    /// `cudaStreamCreate`. The twin is pre-created on the current context;
    /// further twins appear at migration time.
    pub fn stream_create(&mut self, _proc: &ProcCtx) -> StreamHandle {
        let native = self.active.create_stream();
        self.streams.insert(native, self.active.id, native);
        StreamHandle(native)
    }

    /// `cudaStreamDestroy`.
    pub fn stream_destroy(&mut self, _proc: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        let twins = self
            .streams
            .remove(s.0)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("stream {:#x}", s.0)))?;
        if let Some(&native) = twins.get(&self.active.id) {
            self.active.destroy_stream(native);
        }
        Ok(())
    }

    /// Native stream handle backing a client stream on the active context —
    /// exercised by migration tests.
    pub fn native_stream(&self, s: StreamHandle) -> Option<u64> {
        self.streams.get(s.0, self.active.id)
    }

    /// `cudaEventCreate`.
    pub fn event_create(&mut self, _proc: &ProcCtx) -> EventHandle {
        let native = self.active.create_event();
        self.events.insert(native, self.active.id, native);
        EventHandle(native)
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&mut self, _proc: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        let twins = self
            .events
            .remove(e.0)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("event {:#x}", e.0)))?;
        if let Some(&native) = twins.get(&self.active.id) {
            self.active.destroy_event(native);
        }
        self.event_waits.remove(&e.0);
        Ok(())
    }

    /// `cudaEventRecord` on the default stream: the event completes once
    /// every command submitted before this point has retired.
    pub fn event_record(&mut self, proc: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        if !self.events.contains(e.0) {
            return Err(CudaError::InvalidResourceHandle(format!(
                "event {:#x}",
                e.0
            )));
        }
        let (tx, rx) = self.handle.channel::<()>();
        self.active.submit(proc, StreamCmd::Sync { done: tx });
        self.event_waits.insert(
            e.0,
            EventWait {
                rx,
                completed: false,
            },
        );
        Ok(())
    }

    /// `cudaEventSynchronize`: wait until the last recorded marker fires.
    /// An event that was never recorded is complete by definition (CUDA
    /// semantics).
    pub fn event_synchronize(&mut self, proc: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        if let Some(w) = self.event_waits.get_mut(&e.0) {
            if !w.completed {
                let _ = w.rx.recv(proc);
                w.completed = true;
            }
        }
        Ok(())
    }

    /// `cudnnCreate`. `pooled` handles come from the API server's
    /// pre-created pool: no creation latency, no additional device memory
    /// (it is part of the server's idle footprint). Cold handles pay both.
    pub fn cudnn_create(&mut self, proc: &ProcCtx, pooled: bool) -> CudaResult<CudnnHandle> {
        let native = if pooled {
            self.active.serve_pooled_cudnn_handle()
        } else {
            self.active.create_cudnn_handle(proc, true)?
        };
        self.cudnn.insert(native, self.active.id, native);
        Ok(CudnnHandle(native))
    }

    /// `cudnnDestroy`.
    pub fn cudnn_destroy(&mut self, _proc: &ProcCtx, h: CudnnHandle) -> CudaResult<()> {
        let twins = self
            .cudnn
            .remove(h.0)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cudnn {:#x}", h.0)))?;
        if let Some(&native) = twins.get(&self.active.id) {
            self.active.destroy_cudnn_handle(native)?;
        }
        Ok(())
    }

    /// `cublasCreate`. See [`GpuSession::cudnn_create`] for the `pooled`
    /// semantics.
    pub fn cublas_create(&mut self, proc: &ProcCtx, pooled: bool) -> CudaResult<CublasHandle> {
        let native = if pooled {
            self.active.serve_pooled_cublas_handle()
        } else {
            self.active.create_cublas_handle(proc, true)?
        };
        self.cublas.insert(native, self.active.id, native);
        Ok(CublasHandle(native))
    }

    /// `cublasDestroy`.
    pub fn cublas_destroy(&mut self, _proc: &ProcCtx, h: CublasHandle) -> CudaResult<()> {
        let twins = self
            .cublas
            .remove(h.0)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cublas {:#x}", h.0)))?;
        if let Some(&native) = twins.get(&self.active.id) {
            self.active.destroy_cublas_handle(native)?;
        }
        Ok(())
    }

    /// True if the session holds any cuDNN or cuBLAS handles (migration must
    /// then recreate library state on the target).
    pub fn uses_dnn_libs(&self) -> bool {
        self.cudnn.len() > 0 || self.cublas.len() > 0
    }

    // ---- migration (§V-D) ----

    /// Live-migrate this session to `target` (a context on another GPU).
    ///
    /// 1. Quiesce: wait for all in-flight stream work to retire.
    /// 2. For every allocation: create physical memory on the target GPU,
    ///    copy the data D2D (overlapping allocations across DMA channels),
    ///    and *remap the unchanged virtual range* onto the new physical
    ///    allocation.
    /// 3. Recreate cuDNN/cuBLAS/stream/event twins on the target context and
    ///    extend the client→native translation maps.
    pub fn migrate(
        &mut self,
        proc: &ProcCtx,
        target: &Rc<CudaContext>,
    ) -> CudaResult<MigrationReport> {
        if target.id == self.active.id {
            return Ok(MigrationReport {
                bytes_moved: 0,
                allocs_moved: 0,
                quiesce: Dur::ZERO,
                copy: Dur::ZERO,
                data_copy: Dur::ZERO,
                lib_recreate: Dur::ZERO,
                total: Dur::ZERO,
            });
        }
        let t0 = proc.now();

        // (1) quiesce: in-flight pipelined copies, then all stream work
        self.fence_h2d_all(proc);
        self.active.sync(proc);
        let t_quiesced = proc.now();

        // (2) move memory. Admission-check the target first.
        let need: u64 = self.allocs.values().map(|a| a.mapped).sum();
        if target.gpu().free_mem() < need {
            return Err(CudaError::MemoryAllocation {
                requested: need,
                free: target.gpu().free_mem(),
            });
        }
        let src_gpu = Rc::clone(self.active.gpu());
        let dst_gpu = Rc::clone(target.gpu());
        let mut sizes = Vec::with_capacity(self.allocs.len());
        for a in self.allocs.values_mut() {
            let pa = src_gpu
                .take_alloc(a.phys)
                .expect("session allocation missing from source GPU");
            sizes.push(a.mapped);
            let new_phys = dst_gpu
                .mem_create_from(pa.store)
                .expect("admission-checked target ran out of memory");
            self.va
                .borrow_in(proc)
                .remap(a.range.base, new_phys)
                .expect("remap of session allocation failed");
            a.phys = new_phys;
        }
        let copy_secs = copy_makespan(
            &sizes,
            self.costs.d2d_channels.max(1),
            self.costs.d2d_bw_per_channel,
        );
        // The handler-stop/pending-op drain overlaps the copy (Table V's
        // max(stop, copy) shape); only the longer of the two gates progress.
        let gated = copy_secs.max(self.costs.migration_stop.as_secs_f64());
        proc.sleep(Dur::from_secs_f64(gated));
        let t_copied = proc.now();

        // (3) recreate handles on the target context.
        for client in self.streams.clients() {
            if self.streams.get(client, target.id).is_none() {
                let native = target.create_stream();
                self.streams.insert(client, target.id, native);
            }
        }
        for client in self.events.clients() {
            if self.events.get(client, target.id).is_none() {
                let native = target.create_event();
                self.events.insert(client, target.id, native);
            }
        }
        let uses_libs = self.uses_dnn_libs();
        for client in self.cudnn.clients() {
            if self.cudnn.get(client, target.id).is_none() {
                let native = target.create_cudnn_handle(proc, false)?;
                self.cudnn.insert(client, target.id, native);
                // the old twin's footprint leaves the source GPU
                if let Some(old) = self.cudnn.get(client, self.active.id) {
                    self.active.destroy_cudnn_handle(old)?;
                    self.cudnn.remove_twin(client, self.active.id);
                }
            }
        }
        for client in self.cublas.clients() {
            if self.cublas.get(client, target.id).is_none() {
                let native = target.create_cublas_handle(proc, false)?;
                self.cublas.insert(client, target.id, native);
                if let Some(old) = self.cublas.get(client, self.active.id) {
                    self.active.destroy_cublas_handle(old)?;
                    self.cublas.remove_twin(client, self.active.id);
                }
            }
        }
        if uses_libs {
            proc.sleep(self.costs.migration_lib_recreate);
        }
        let t_end = proc.now();

        self.active = Rc::clone(target);
        self.migrations += 1;
        Ok(MigrationReport {
            bytes_moved: sizes.iter().sum(),
            allocs_moved: sizes.len(),
            quiesce: t_quiesced.since(t0),
            copy: t_copied.since(t_quiesced),
            data_copy: Dur::from_secs_f64(copy_secs),
            lib_recreate: t_end.since(t_copied),
            total: t_end.since(t0),
        })
    }

    /// Read device memory for verification (tests/examples). Goes through
    /// the VA layer, so it exercises the same path kernels use.
    pub fn debug_read(&self, ptr: DevPtr, len: usize) -> Vec<u8> {
        let va = self.va.lock();
        let view = DeviceView::new(&va, self.active.gpu());
        let mut out = vec![0u8; len];
        view.read_bytes(ptr, &mut out);
        out
    }

    /// Tear down all function-owned state: frees allocations, destroys
    /// handle twins. Called by the API server when the function finishes
    /// (after which the server flips back to its home GPU for the next
    /// function — with nothing left to copy).
    pub fn release(&mut self, proc: &ProcCtx) {
        self.fence_h2d_all(proc);
        self.active.sync(proc);
        let ptrs: Vec<u64> = self.allocs.keys().copied().collect();
        for p in ptrs {
            let _ = self.free(proc, DevPtr(p));
        }
        for s in self.streams.clients() {
            let _ = self.stream_destroy(proc, StreamHandle(s));
        }
        for e in self.events.clients() {
            let _ = self.event_destroy(proc, EventHandle(e));
        }
        for h in self.cudnn.clients() {
            let _ = self.cudnn_destroy(proc, CudnnHandle(h));
        }
        for h in self.cublas.clients() {
            let _ = self.cublas_destroy(proc, CublasHandle(h));
        }
        self.active = Rc::clone(&self.home);
    }

    /// Number of live allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// Current virtual time, via the session's sim handle.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }
}

/// Makespan (seconds) of copying `sizes` across `channels` DMA channels at
/// `bw` bytes/s each, using longest-processing-time-first assignment.
fn copy_makespan(sizes: &[u64], channels: u32, bw: f64) -> f64 {
    let mut loads = vec![0u64; channels as usize];
    let mut sorted: Vec<u64> = sizes.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    for s in sorted {
        let min = loads
            .iter_mut()
            .min_by_key(|l| **l)
            .expect("at least one channel");
        *min += s;
    }
    loads.into_iter().max().unwrap_or(0) as f64 / bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_gpu::{Gpu, GpuId, MB};
    use dgsf_sim::{Sim, SimCell};

    use crate::module::{KernelCost, KernelDef};

    fn two_gpu_session(sim: &Sim) -> (Rc<Gpu>, Rc<Gpu>) {
        let h = sim.handle();
        (Gpu::v100(&h, GpuId(0)), Gpu::v100(&h, GpuId(1)))
    }

    #[test]
    fn copy_makespan_overlaps_channels() {
        // one big array: no overlap possible
        let one = copy_makespan(&[7_000_000_000], 2, 7.0e9);
        assert!((one - 1.0).abs() < 1e-9);
        // two equal arrays: perfectly overlapped
        let two = copy_makespan(&[7_000_000_000, 7_000_000_000], 2, 7.0e9);
        assert!((two - 1.0).abs() < 1e-9);
        // empty
        assert_eq!(copy_makespan(&[], 2, 7.0e9), 0.0);
    }

    #[test]
    fn malloc_free_accounting() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g0.clone(), costs, false).unwrap();
            let mut s = GpuSession::new(&h, ctx, None);
            let p = s.malloc(proc, 100 * MB).unwrap();
            assert!(s.mem_used() >= 100 * MB);
            assert!(s.pointer_attributes(p).is_device);
            assert!(!s.pointer_attributes(DevPtr(0x1234)).is_device);
            s.free(proc, p).unwrap();
            assert_eq!(s.mem_used(), 0);
            assert!(s.free(proc, p).is_err(), "double free rejected");
            assert_eq!(s.peak_mem(), 100 * MB);
        });
        sim.run();
    }

    #[test]
    fn mem_limit_enforced() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g0, costs, false).unwrap();
            let mut s = GpuSession::new(&h, ctx, Some(100 * MB));
            assert!(s.malloc(proc, 64 * MB).is_ok());
            match s.malloc(proc, 64 * MB) {
                Err(CudaError::MemoryLimitExceeded { limit, .. }) => {
                    assert_eq!(limit, 100 * MB)
                }
                other => panic!("expected limit violation, got {other:?}"),
            }
        });
        sim.run();
    }

    #[test]
    fn migration_preserves_addresses_and_data() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, g1) = two_gpu_session(&sim);
        let g0c = g0.clone();
        let g1c = g1.clone();
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let home = CudaContext::create(proc, &h, g0c.clone(), costs.clone(), false).unwrap();
            let away = CudaContext::create(proc, &h, g1c.clone(), costs, false).unwrap();
            let mut s = GpuSession::new(&h, home, None);
            let a = s.malloc(proc, 8 * MB).unwrap();
            let b = s.malloc(proc, 4 * MB).unwrap();
            s.memcpy_h2d(proc, a, &HostBuf::from_f32s(&[1.0, 2.0, 3.0]))
                .unwrap();
            s.memcpy_h2d(
                proc,
                b.offset(4096),
                &HostBuf::Bytes(b"hello".to_vec().into()),
            )
            .unwrap();

            let used_before = g0c.used_mem();
            assert!(used_before > 0);

            let report = s.migrate(proc, &away).unwrap();
            assert_eq!(report.allocs_moved, 2);
            assert!(report.bytes_moved >= 12 * MB);
            assert!(report.copy > Dur::ZERO);

            // pointers unchanged, data intact, now served from GPU 1
            let back = s.memcpy_d2h(proc, a, 12, true).unwrap();
            assert_eq!(back.to_f32s().unwrap(), vec![1.0, 2.0, 3.0]);
            assert_eq!(s.debug_read(b.offset(4096), 5), b"hello");
            assert_eq!(g0c.alloc_count(), 0, "source GPU fully drained");
            assert!(g1c.used_mem() >= 12 * MB);
        });
        sim.run();
    }

    #[test]
    fn migration_translates_handles_but_client_values_stay() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let home = CudaContext::create(proc, &h, g0, costs.clone(), false).unwrap();
            let away = CudaContext::create(proc, &h, g1, costs, false).unwrap();
            let mut s = GpuSession::new(&h, home.clone(), None);
            let stream = s.stream_create(proc);
            let dnn = s.cudnn_create(proc, false).unwrap();
            let native_before = s.native_stream(stream).unwrap();

            let report = s.migrate(proc, &away).unwrap();
            // cuDNN state recreation charged
            assert!(report.lib_recreate.as_secs_f64() >= 0.4 - 1e-9);

            let native_after = s.native_stream(stream).unwrap();
            assert_ne!(native_before, native_after, "twin differs per context");
            assert!(away.has_stream(native_after));
            // the client-visible values are unchanged — the application
            // never notices the migration
            assert!(s.native_stream(stream).is_some());
            s.cudnn_destroy(proc, dnn).unwrap();
        });
        sim.run();
    }

    #[test]
    fn kernel_runs_identically_after_migration() {
        // A functional kernel writing through stored device pointers keeps
        // working after migration — the headline VA-preservation property.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let home = CudaContext::create(proc, &h, g0, costs.clone(), false).unwrap();
            let away = CudaContext::create(proc, &h, g1, costs, false).unwrap();
            let mut s = GpuSession::new(&h, home, None);
            let registry = Arc::new(ModuleRegistry::new().with(KernelDef::functional(
                "inc",
                KernelCost::Fixed(0.001),
                |view, _cfg, args| {
                    let p = args.ptrs[0];
                    let v = view.read_f32s(p, 4);
                    let inc: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
                    view.write_f32s(p, &inc);
                },
            )));
            let inc = registry.id("inc").unwrap();
            s.register_module(registry);
            let buf = s.malloc(proc, 4 * MB).unwrap();
            s.memcpy_h2d(proc, buf, &HostBuf::from_f32s(&[0.0; 4]))
                .unwrap();

            let args = KernelArgs {
                ptrs: vec![buf],
                ..Default::default()
            };
            s.launch_on(proc, None, inc, LaunchConfig::linear(4, 32), args.clone())
                .unwrap();
            s.synchronize(proc);
            s.migrate(proc, &away).unwrap();
            s.launch_on(proc, None, inc, LaunchConfig::linear(4, 32), args)
                .unwrap();
            s.synchronize(proc);

            let out = s.memcpy_d2h(proc, buf, 16, true).unwrap();
            assert_eq!(out.to_f32s().unwrap(), vec![2.0; 4]);
        });
        sim.run();
    }

    #[test]
    fn migration_to_full_gpu_fails_cleanly() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let home = CudaContext::create(proc, &h, g0, costs.clone(), false).unwrap();
            let away = CudaContext::create(proc, &h, g1.clone(), costs, false).unwrap();
            // Fill GPU 1 almost completely.
            let _hog = g1.reserve(g1.free_mem() - MB).unwrap();
            let mut s = GpuSession::new(&h, home, None);
            let _p = s.malloc(proc, 64 * MB).unwrap();
            match s.migrate(proc, &away) {
                Err(CudaError::MemoryAllocation { .. }) => {}
                other => panic!("expected OOM, got {other:?}"),
            }
            // session still fully usable on the source GPU
            let data = s
                .memcpy_d2h(proc, DevPtr(dgsf_gpu::VA_BASE), 4, true)
                .unwrap();
            assert_eq!(data.to_f32s().unwrap(), vec![0.0]);
        });
        sim.run();
    }

    fn pipelined_costs() -> Arc<CostTable> {
        Arc::new(CostTable {
            h2d_pipelined: true,
            ..CostTable::default()
        })
    }

    #[test]
    fn pipelined_h2d_overlaps_compute() {
        // A pipelined copy runs while an already-submitted kernel computes:
        // 1 s of kernel + 1 s of PCIe finish together, not back to back.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g0, pipelined_costs(), false).unwrap();
            let mut s = GpuSession::new(&h, ctx, None);
            let registry = Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")));
            let k = registry.id("k").unwrap();
            s.register_module(registry);
            let buf = s.malloc(proc, 10_000 * MB).unwrap();
            let t0 = proc.now();
            s.launch_on(
                proc,
                None,
                k,
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(1.0, 0),
            )
            .unwrap();
            // 10 GB at 10 GB/s = 1 s, staged while the kernel runs
            s.memcpy_h2d(proc, buf, &HostBuf::Logical(10_000_000_000))
                .unwrap();
            assert_eq!(proc.now(), t0, "pipelined copy returns immediately");
            s.synchronize(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(
                elapsed < 1.1,
                "copy and kernel overlap, not serialize: {elapsed}"
            );
        });
        sim.run();
    }

    #[test]
    fn pipelined_h2d_fences_dependent_launches_only() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g0, pipelined_costs(), false).unwrap();
            let mut s = GpuSession::new(&h, ctx, None);
            let registry = Arc::new(ModuleRegistry::new().with(KernelDef::functional(
                "sum",
                KernelCost::Fixed(0.0),
                |view, _cfg, args| {
                    let v = view.read_f32s(args.ptrs[0], 2);
                    view.write_f32s(args.ptrs[1], &[v[0] + v[1]]);
                },
            )));
            let sum = registry.id("sum").unwrap();
            s.register_module(registry);
            let a = s.malloc(proc, 100 * MB).unwrap();
            let b = s.malloc(proc, MB).unwrap();
            let mut payload = vec![0u8; 100 * MB as usize];
            payload[..4].copy_from_slice(&2.0f32.to_le_bytes());
            payload[4..8].copy_from_slice(&3.0f32.to_le_bytes());
            s.memcpy_h2d(proc, a, &HostBuf::Bytes(payload.into()))
                .unwrap();
            let t0 = proc.now();
            // kernel reads `a`: the launch fences on the in-flight copy
            let args = KernelArgs {
                ptrs: vec![a, b],
                ..Default::default()
            };
            s.launch_on(proc, None, sum, LaunchConfig::linear(2, 32), args)
                .unwrap();
            assert!(
                proc.now().since(t0).as_secs_f64() > 0.009,
                "launch waited for the 100 MB copy (~10 ms)"
            );
            let out = s.memcpy_d2h(proc, b, 4, true).unwrap();
            assert_eq!(out.to_f32s().unwrap(), vec![5.0]);
        });
        sim.run();
    }

    #[test]
    fn pipelined_h2d_zero_bytes_is_free() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g0, pipelined_costs(), false).unwrap();
            let mut s = GpuSession::new(&h, ctx, None);
            let buf = s.malloc(proc, MB).unwrap();
            let t0 = proc.now();
            s.memcpy_h2d(proc, buf, &HostBuf::Logical(0)).unwrap();
            s.synchronize(proc);
            assert_eq!(proc.now(), t0, "zero-byte pipelined copy costs nothing");
        });
        sim.run();
    }

    #[test]
    fn pipelined_h2d_release_fences_in_flight_copies() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g0, pipelined_costs(), false).unwrap();
            let mut s = GpuSession::new(&h, ctx, None);
            let buf = s.malloc(proc, 10_000 * MB).unwrap();
            let t0 = proc.now();
            s.memcpy_h2d(proc, buf, &HostBuf::Logical(10_000_000_000))
                .unwrap();
            s.release(proc);
            assert!(
                proc.now().since(t0).as_secs_f64() > 0.99,
                "release drained the in-flight copy"
            );
            assert_eq!(s.alloc_count(), 0);
        });
        sim.run();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Chunking is telemetry-only: a pipelined (chunked) copy never
        /// finishes later than the synchronous unchunked copy of the same
        /// bytes at the same bandwidth.
        #[test]
        fn pipelined_copy_never_slower_than_sync(
            bytes in 1u64..2_000_000_000,
            chunk in 1u64..64 * MB,
        ) {
            let run = |pipelined: bool| -> u64 {
                let mut sim = Sim::new(1);
                let h = sim.handle();
                let gpu = Gpu::v100(&h, GpuId(0));
                let elapsed = Rc::new(SimCell::new(&h, 0u64));
                let e = elapsed.clone();
                sim.spawn("app", move |proc| {
                    let c = CostTable {
                        h2d_pipelined: pipelined,
                        h2d_chunk_bytes: chunk,
                        ..CostTable::default()
                    };
                    let ctx = CudaContext::create(proc, &h, gpu, Arc::new(c), false).unwrap();
                    let mut s = GpuSession::new(&h, ctx, None);
                    let buf = s.malloc(proc, bytes.div_ceil(MB) * MB).unwrap();
                    let t0 = proc.now();
                    s.memcpy_h2d(proc, buf, &HostBuf::Logical(bytes)).unwrap();
                    s.synchronize(proc);
                    *e.lock() = proc.now().since(t0).as_nanos();
                });
                sim.run();
                let v = *elapsed.lock();
                v
            };
            let chunked = run(true);
            let unchunked = run(false);
            proptest::prop_assert!(
                chunked <= unchunked,
                "chunked {chunked} ns > unchunked {unchunked} ns"
            );
        }
    }

    #[test]
    fn release_returns_all_resources() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        let g = g0.clone();
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g.clone(), costs.clone(), false).unwrap();
            let base = g.used_mem(); // ctx footprint
            let mut s = GpuSession::new(&h, ctx, None);
            s.malloc(proc, 100 * MB).unwrap();
            s.cudnn_create(proc, false).unwrap();
            s.cublas_create(proc, false).unwrap();
            s.stream_create(proc);
            assert!(g.used_mem() > base);
            s.release(proc);
            assert_eq!(g.used_mem(), base, "everything the function owned is gone");
            assert_eq!(s.alloc_count(), 0);
        });
        sim.run();
    }

    #[test]
    fn publish_adopt_preserves_data_across_sessions() {
        // Stage 1 writes and publishes; stage 2 (a fresh session on the
        // same context) adopts at a new VA and reads the same bytes back.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        let g = g0.clone();
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g.clone(), costs, false).unwrap();

            let mut s1 = GpuSession::new(&h, ctx.clone(), None);
            let p1 = s1.malloc(proc, MB).unwrap();
            s1.memcpy_h2d(proc, p1, &HostBuf::from_f32s(&[3.5, -7.25, 42.0]))
                .unwrap();
            s1.publish_buffer(proc, 0xDA6, p1).unwrap();
            assert_eq!(s1.mem_used(), 0, "published bytes leave the session");
            assert_eq!(ctx.resident_count(), 1);
            assert!(
                s1.free(proc, p1).is_err(),
                "published pointer is gone from the session"
            );
            s1.release(proc);

            let mut s2 = GpuSession::new(&h, ctx.clone(), None);
            // The adopter maps into its *own* VA space; the numeric value
            // may coincide with the publisher's but is a fresh reservation.
            let p2 = s2.adopt_buffer(proc, 0xDA6).unwrap();
            assert_eq!(ctx.resident_count(), 0);
            let back = s2.memcpy_d2h(proc, p2, 12, true).unwrap();
            assert_eq!(back.to_f32s().unwrap(), vec![3.5, -7.25, 42.0]);
            s2.free(proc, p2).unwrap();
            s2.release(proc);

            use crate::context::ResidentEvent;
            assert_eq!(
                ctx.resident_events(),
                vec![
                    ResidentEvent::Published {
                        key: 0xDA6,
                        bytes: 2 * MB
                    },
                    ResidentEvent::Adopted {
                        key: 0xDA6,
                        bytes: 2 * MB
                    },
                ]
            );
        });
        sim.run();
    }

    #[test]
    fn adopt_respects_mem_limit_and_missing_keys_fail() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g0.clone(), costs, false).unwrap();

            let mut s1 = GpuSession::new(&h, ctx.clone(), None);
            let p1 = s1.malloc(proc, 100 * MB).unwrap();
            s1.publish_buffer(proc, 1, p1).unwrap();
            s1.release(proc);

            // Limit smaller than the parked buffer: adopt refuses and the
            // buffer stays parked for someone else (or the reclaimer).
            let mut tight = GpuSession::new(&h, ctx.clone(), Some(10 * MB));
            assert!(matches!(
                tight.adopt_buffer(proc, 1),
                Err(CudaError::MemoryLimitExceeded { .. })
            ));
            assert_eq!(ctx.resident_count(), 1, "failed adopt leaves it parked");
            assert!(matches!(
                tight.adopt_buffer(proc, 99),
                Err(CudaError::InvalidResourceHandle(_))
            ));
            assert!(matches!(
                tight.publish_buffer(proc, 2, DevPtr(0xBAD)),
                Err(CudaError::InvalidValue(_))
            ));
            tight.release(proc);

            let mut roomy = GpuSession::new(&h, ctx.clone(), Some(200 * MB));
            let p2 = roomy.adopt_buffer(proc, 1).unwrap();
            roomy.free(proc, p2).unwrap();
            roomy.release(proc);
        });
        sim.run();
    }

    #[test]
    fn context_release_reclaims_orphaned_residents() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        let g = g0.clone();
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g.clone(), costs, false).unwrap();
            let base = g.used_mem();
            let mut s = GpuSession::new(&h, ctx.clone(), None);
            let p = s.malloc(proc, 64 * MB).unwrap();
            s.publish_buffer(proc, 7, p).unwrap();
            s.release(proc);
            assert!(g.used_mem() > base, "parked buffer still holds memory");
            ctx.release();
            assert_eq!(g.used_mem(), 0, "teardown reclaims orphaned residents");
            use crate::context::ResidentEvent;
            let evs = ctx.resident_events();
            assert_eq!(evs.len(), 2);
            assert!(matches!(evs[1], ResidentEvent::Reclaimed { key: 7, .. }));
        });
        sim.run();
    }

    #[test]
    fn duplicate_publish_key_rejected() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (g0, _g1) = two_gpu_session(&sim);
        sim.spawn("app", move |proc| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(proc, &h, g0.clone(), costs, false).unwrap();
            let mut s = GpuSession::new(&h, ctx.clone(), None);
            let a = s.malloc(proc, MB).unwrap();
            let b = s.malloc(proc, MB).unwrap();
            s.publish_buffer(proc, 5, a).unwrap();
            assert!(matches!(
                s.publish_buffer(proc, 5, b),
                Err(CudaError::InvalidResourceHandle(_))
            ));
            assert_eq!(s.alloc_count(), 1, "failed publish keeps the alloc");
            assert!(ctx.reclaim_resident(5));
            assert!(!ctx.reclaim_resident(5), "second reclaim is a no-op");
            s.release(proc);
        });
        sim.run();
    }
}
