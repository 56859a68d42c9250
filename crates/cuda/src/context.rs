//! CUDA contexts and their streams.
//!
//! A [`CudaContext`] is bound to one physical GPU and owns everything whose
//! *values* are context-specific in real CUDA: kernel function pointers,
//! stream/event handles, and cuDNN/cuBLAS library handles (with their device
//! memory footprints). DGSF's API servers keep one context per GPU and
//! translate client-visible handles to per-context twins on migration
//! (paper §V-D); [`crate::GpuSession`] implements that translation.
//!
//! Each stream of a context is an in-order queue of kernel launches,
//! library ops and memsets on the GPU's compute engine ([`Gpu::stream`]).
//! No process drains it: the simulation's scheduler starts a stream's next
//! job when the last one retires, and runs the finished kernel's functional
//! body or memset fill right there. Launches are therefore asynchronous to
//! the caller (as in CUDA), work on different streams of the same context
//! overlaps (contending on the GPU's processor-sharing compute engine, as
//! under Hyper-Q), co-located contexts contend the same way, and
//! `cudaDeviceSynchronize` / `cudaStreamSynchronize` are real rendezvous.
//! Each stream owns one [`SyncMarker`], reused by every sync of that
//! stream; a device-wide sync records the markers and then waits for them
//! in creation order, so its event order replays exactly.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgsf_gpu::{Gpu, PhysId, ReservationId, VaSpace};
use dgsf_sim::{Dur, GpsStream, ProcCtx, SimCell, SimHandle, SyncMarker};

use crate::costs::CostTable;
use crate::error::{CudaError, CudaResult};
use crate::module::KernelFn;
use crate::types::{DevPtr, KernelArgs, LaunchConfig};
use crate::view::DeviceView;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// What a stream does once a command's GPU work has retired. The work
/// itself is given with the command, when it is submitted.
pub(crate) enum StreamCmd {
    /// A timed kernel, whose cost the launching session evaluated, or an
    /// aggregate cuDNN/cuBLAS operation: nothing.
    Timed,
    /// A kernel with a functional body: run `body` against the launching
    /// session's memory.
    Exec {
        body: KernelFn,
        cfg: LaunchConfig,
        args: KernelArgs,
        va: Rc<SimCell<VaSpace>>,
    },
    /// Asynchronous device memset: fill the range.
    Memset {
        va: Rc<SimCell<VaSpace>>,
        ptr: DevPtr,
        len: u64,
        value: u8,
    },
}

impl StreamCmd {
    /// Apply the command's effect to device memory, inside the scheduler.
    /// The GPU is held weakly, since its compute engine holds the stream
    /// while a job is in flight.
    fn retire(self, gpu: &Weak<Gpu>) {
        if let StreamCmd::Timed = self {
            return;
        }
        let Some(gpu) = gpu.upgrade() else {
            return;
        };
        match self {
            StreamCmd::Timed => {}
            StreamCmd::Exec {
                body,
                cfg,
                args,
                va,
            } => body(&mut DeviceView::new(&va.lock(), &gpu), &cfg, &args),
            StreamCmd::Memset {
                va,
                ptr,
                len,
                value,
            } => DeviceView::new(&va.lock(), &gpu).fill(ptr, len, value),
        }
    }
}

/// A device buffer parked in a context's resident store between DAG
/// stages: the physical allocation survives while no session maps it.
#[derive(Debug, Clone, Copy)]
pub struct ResidentBuf {
    /// Physical allocation handle on the context's GPU.
    pub phys: PhysId,
    /// Bytes the publishing session originally requested.
    pub requested: u64,
    /// Bytes actually mapped (requested rounded up to VA granularity).
    pub mapped: u64,
}

/// Audit-log entry for the resident store — the raw material of the
/// leak/exactly-once oracle: every `Published` key must later appear as
/// exactly one `Adopted` or `Reclaimed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentEvent {
    /// A session parked a buffer under `key` without freeing its physical
    /// allocation.
    Published {
        /// Handoff key.
        key: u64,
        /// Mapped bytes parked.
        bytes: u64,
    },
    /// A (possibly different) session mapped the parked buffer into its
    /// own VA space and took ownership.
    Adopted {
        /// Handoff key.
        key: u64,
        /// Mapped bytes adopted.
        bytes: u64,
    },
    /// The buffer was freed without ever being adopted — on explicit
    /// reclaim after a DAG abort, or at context teardown.
    Reclaimed {
        /// Handoff key.
        key: u64,
        /// Mapped bytes returned to the GPU.
        bytes: u64,
    },
}

/// The kind of a library handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LibKind {
    /// A cuDNN handle (≈1.2 s, 382 MB).
    Cudnn,
    /// A cuBLAS handle (≈0.2 s, 70 MB).
    Cublas,
}

impl LibKind {
    /// Device memory one handle of this kind holds.
    pub fn mem(self, costs: &CostTable) -> u64 {
        match self {
            LibKind::Cudnn => costs.cudnn_mem,
            LibKind::Cublas => costs.cublas_mem,
        }
    }

    fn create_latency(self, costs: &CostTable) -> Dur {
        match self {
            LibKind::Cudnn => costs.cudnn_create,
            LibKind::Cublas => costs.cublas_create,
        }
    }

    /// The library's name, as error messages give it.
    pub fn name(self) -> &'static str {
        match self {
            LibKind::Cudnn => "cudnn",
            LibKind::Cublas => "cublas",
        }
    }
}

/// How a library handle comes to be, and so what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LibCreate {
    /// Handed out from the API server's pre-created pool: no creation
    /// latency and no *additional* memory (the pool's footprint is part of
    /// the server's idle 755 MB reservation).
    Pooled,
    /// Created on demand (the unoptimized and the native path): pays the
    /// creation latency and reserves the footprint.
    Cold,
    /// A migration twin: reserves the footprint but pays no creation
    /// latency (migration charges its library recreation once).
    Twin,
}

/// A library handle of a context and the footprint it owns, if any.
struct LibHandle {
    handle: u64,
    kind: LibKind,
    reservation: Option<ReservationId>,
}

/// A CUDA context bound to one physical GPU.
pub struct CudaContext {
    /// Globally unique context id.
    pub id: u64,
    gpu: Rc<Gpu>,
    costs: Arc<CostTable>,
    handle: SimHandle,
    ctx_reservation: SimCell<Option<ReservationId>>,
    next_handle: Cell<u64>,
    fptrs: SimCell<HashMap<String, u64>>,
    /// cuDNN and cuBLAS handles, in creation order (which is handle order).
    libs: SimCell<Vec<LibHandle>>,
    /// The default stream. Streams of the same context contend on the
    /// GPU's processor-sharing compute engine, so independent streams
    /// genuinely overlap.
    default_stream: Stream,
    /// Created streams, in creation order (which is handle order: handles
    /// only grow).
    streams: SimCell<Vec<Stream>>,
    /// GPU-resident handoff buffers parked between DAG stages, keyed by
    /// the handoff key chosen by the publisher. The context outlives the
    /// sessions that come and go on it, so a buffer published here stays
    /// on-device across function invocations.
    resident: SimCell<BTreeMap<u64, ResidentBuf>>,
    /// Append-only audit log of resident-store traffic.
    resident_log: SimCell<Vec<ResidentEvent>>,
}

/// The default stream's handle.
pub const DEFAULT_STREAM: u64 = 0;

/// One stream of a context and its sync marker.
///
/// One marker per stream is enough because only one process at a time
/// waits on a context: an API server serves one function at a time on its
/// own contexts, and a native application owns its context.
struct Stream {
    handle: u64,
    jobs: GpsStream<StreamCmd>,
    synced: SyncMarker,
}

impl Stream {
    fn new(h: &SimHandle, gpu: &Rc<Gpu>, handle: u64) -> Stream {
        let weak = Rc::downgrade(gpu);
        Stream {
            handle,
            jobs: gpu.stream(move |cmd: StreamCmd, _| cmd.retire(&weak)),
            synced: SyncMarker::new(h),
        }
    }

    /// Queue the stream's sync marker, which fires once every command
    /// queued before it has retired.
    fn request_sync(&self, proc: &ProcCtx) {
        self.jobs.record(proc, &self.synced);
    }
}

impl CudaContext {
    /// Create a context on `gpu`, reserving its ~303 MB footprint.
    ///
    /// If `pay_init` is true the calling process sleeps for the CUDA
    /// runtime initialization latency (≈3.2 s) — the cost a native
    /// application pays on its critical path, and an API-server pool pays
    /// off the critical path at provisioning time.
    pub fn create(
        proc: &ProcCtx,
        h: &SimHandle,
        gpu: Rc<Gpu>,
        costs: Arc<CostTable>,
        pay_init: bool,
    ) -> CudaResult<Rc<CudaContext>> {
        if pay_init {
            proc.sleep(costs.cuda_init);
        }
        let reservation = gpu.reserve(costs.cuda_ctx_mem)?;
        let id = NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed);
        let default_stream = Stream::new(h, &gpu, DEFAULT_STREAM);
        let ctx = Rc::new(CudaContext {
            id,
            gpu: Rc::clone(&gpu),
            costs: Arc::clone(&costs),
            handle: h.clone(),
            ctx_reservation: SimCell::new(h, Some(reservation)),
            // Handle values are context-specific: embed the context id so
            // two contexts never hand out the same value (the property the
            // paper's migration translation exists to handle).
            next_handle: Cell::new((id << 32) | 1),
            fptrs: SimCell::new(h, HashMap::new()),
            libs: SimCell::new(h, Vec::new()),
            default_stream,
            streams: SimCell::new(h, Vec::new()),
            resident: SimCell::new(h, BTreeMap::new()),
            resident_log: SimCell::new(h, Vec::new()),
        });
        Ok(ctx)
    }

    /// The physical GPU this context is bound to.
    pub fn gpu(&self) -> &Rc<Gpu> {
        &self.gpu
    }

    /// The calibrated cost table.
    pub fn costs(&self) -> &Arc<CostTable> {
        &self.costs
    }

    /// Enqueue a command of `work` GPU-seconds on the context's default
    /// stream.
    pub(crate) fn submit(&self, proc: &ProcCtx, work: f64, cmd: StreamCmd) {
        self.default_stream.jobs.submit(proc, work, cmd);
    }

    /// Enqueue a command of `work` GPU-seconds on a specific native stream.
    /// Unknown streams fall back to the default stream (callers validate
    /// handles beforehand).
    pub(crate) fn submit_on(&self, proc: &ProcCtx, stream: u64, work: f64, cmd: StreamCmd) {
        let streams = self.streams.borrow_in(proc);
        self.stream(&streams, stream)
            .unwrap_or(&self.default_stream)
            .jobs
            .submit(proc, work, cmd);
    }

    /// Queue `marker` on the default stream (`cudaEventRecord`).
    pub(crate) fn record(&self, proc: &ProcCtx, marker: &SyncMarker) {
        self.default_stream.jobs.record(proc, marker);
    }

    /// `stream`: the default one, or one of `streams`.
    fn stream<'a>(&'a self, streams: &'a [Stream], stream: u64) -> Option<&'a Stream> {
        if stream == DEFAULT_STREAM {
            return Some(&self.default_stream);
        }
        let i = streams.binary_search_by_key(&stream, |s| s.handle).ok()?;
        Some(&streams[i])
    }

    /// Block until every previously submitted command on *every* stream has
    /// retired (`cudaDeviceSynchronize`). Markers go out and are awaited in
    /// creation order, the default stream first.
    pub fn sync(&self, proc: &ProcCtx) {
        self.default_stream.request_sync(proc);
        let streams = self.streams.borrow_in(proc);
        for s in streams.iter() {
            s.request_sync(proc);
        }
        let n = streams.len();
        drop(streams);
        self.default_stream.synced.wait(proc);
        for i in 0..n {
            // No borrow may be held across the park in `wait`.
            let synced = self.streams.borrow_in(proc)[i].synced.clone();
            synced.wait(proc);
        }
    }

    /// Block until one native stream's queue has drained
    /// (`cudaStreamSynchronize`).
    pub fn sync_stream(&self, proc: &ProcCtx, stream: u64) {
        let streams = self.streams.borrow_in(proc);
        let Some(s) = self.stream(&streams, stream) else {
            return;
        };
        s.request_sync(proc);
        let synced = s.synced.clone();
        drop(streams);
        synced.wait(proc);
    }

    fn alloc_handle(&self) -> u64 {
        self.next_handle.replace(self.next_handle.get() + 1)
    }

    /// Function pointer of kernel `name` in *this* context (assigned
    /// lazily; distinct across contexts).
    pub fn fptr_for(&self, name: &str) -> u64 {
        let mut f = self.fptrs.lock();
        if let Some(&p) = f.get(name) {
            return p;
        }
        let p = self.alloc_handle();
        f.insert(name.to_string(), p);
        p
    }

    /// Create an in-order stream in this context; returns the
    /// context-local handle.
    pub fn create_stream(&self) -> u64 {
        let s = self.alloc_handle();
        let stream = Stream::new(&self.handle, &self.gpu, s);
        let mut streams = self.streams.lock();
        debug_assert!(streams.last().is_none_or(|last| last.handle < s));
        streams.push(stream);
        s
    }

    /// Destroy a context-local stream handle. Nothing outlives it but its
    /// queued work: commands already submitted still retire, in order, as
    /// after `cudaStreamDestroy`, and then the stream is freed.
    pub fn destroy_stream(&self, s: u64) -> bool {
        let mut streams = self.streams.lock();
        match streams.binary_search_by_key(&s, |st| st.handle) {
            Ok(i) => {
                streams.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// True if `s` is a live stream of this context.
    pub fn has_stream(&self, s: u64) -> bool {
        let streams = self.streams.lock();
        streams.binary_search_by_key(&s, |st| st.handle).is_ok()
    }

    /// Create an event in this context. An event is a handle value and
    /// nothing more: its marker belongs to the session that records it.
    pub fn create_event(&self) -> u64 {
        self.alloc_handle()
    }

    /// Create a cuDNN or cuBLAS handle in this context; see [`LibCreate`]
    /// for what each way of creating it costs.
    pub(crate) fn create_lib_handle(
        &self,
        proc: &ProcCtx,
        kind: LibKind,
        how: LibCreate,
    ) -> CudaResult<u64> {
        if how == LibCreate::Cold {
            proc.sleep(kind.create_latency(&self.costs));
        }
        let reservation = match how {
            LibCreate::Pooled => None,
            LibCreate::Cold | LibCreate::Twin => Some(self.gpu.reserve(kind.mem(&self.costs))?),
        };
        let handle = self.alloc_handle();
        self.libs.lock().push(LibHandle {
            handle,
            kind,
            reservation,
        });
        Ok(handle)
    }

    /// Destroy a library handle, releasing its device footprint (if it owns
    /// one).
    pub(crate) fn destroy_lib_handle(&self, kind: LibKind, h: u64) -> CudaResult<()> {
        let mut libs = self.libs.lock();
        let i = libs
            .binary_search_by_key(&h, |l| l.handle)
            .ok()
            .filter(|&i| libs[i].kind == kind)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("{} {h:#x}", kind.name())))?;
        if let Some(r) = libs.remove(i).reservation {
            self.gpu.release(r);
        }
        Ok(())
    }

    /// Park a buffer in the resident store under `key`. Fails if the key
    /// is already taken (handoff keys are single-use by construction).
    pub fn publish_resident(&self, key: u64, buf: ResidentBuf) -> CudaResult<()> {
        let mut map = self.resident.lock();
        if map.contains_key(&key) {
            return Err(CudaError::InvalidResourceHandle(format!(
                "resident key {key:#x} already published"
            )));
        }
        map.insert(key, buf);
        self.resident_log.lock().push(ResidentEvent::Published {
            key,
            bytes: buf.mapped,
        });
        Ok(())
    }

    /// Look at the buffer parked under `key` without taking it.
    pub fn resident_peek(&self, key: u64) -> CudaResult<ResidentBuf> {
        self.resident.lock().get(&key).copied().ok_or_else(|| {
            CudaError::InvalidResourceHandle(format!("resident key {key:#x} not published"))
        })
    }

    /// Take ownership of the buffer parked under `key`, logging the
    /// adoption. The caller is now responsible for the physical allocation.
    pub fn take_resident(&self, key: u64) -> CudaResult<ResidentBuf> {
        let buf = self.resident.lock().remove(&key).ok_or_else(|| {
            CudaError::InvalidResourceHandle(format!("resident key {key:#x} not published"))
        })?;
        self.resident_log.lock().push(ResidentEvent::Adopted {
            key,
            bytes: buf.mapped,
        });
        Ok(buf)
    }

    /// Free the buffer parked under `key` without adopting it (DAG abort
    /// path). Returns false if no such buffer is parked here.
    pub fn reclaim_resident(&self, key: u64) -> bool {
        let Some(buf) = self.resident.lock().remove(&key) else {
            return false;
        };
        self.reclaim(key, buf);
        true
    }

    fn reclaim(&self, key: u64, buf: ResidentBuf) {
        self.gpu.mem_free(buf.phys);
        self.resident_log.lock().push(ResidentEvent::Reclaimed {
            key,
            bytes: buf.mapped,
        });
    }

    /// Number of buffers currently parked in the resident store.
    pub fn resident_count(&self) -> usize {
        self.resident.lock().len()
    }

    /// Snapshot of the resident-store audit log, in publish/adopt order.
    pub fn resident_events(&self) -> Vec<ResidentEvent> {
        self.resident_log.lock().clone()
    }

    /// Tear the context down: release its footprint and all library handle
    /// reservations, and reclaim any resident buffers never adopted. Its
    /// streams hold no process and need no teardown; work still queued on
    /// them retires, and they are freed with the context.
    pub fn release(&self) {
        let orphans = std::mem::take(&mut *self.resident.lock());
        for (key, buf) in orphans {
            self.reclaim(key, buf);
        }
        if let Some(r) = self.ctx_reservation.lock().take() {
            self.gpu.release(r);
        }
        for lib in self.libs.lock().drain(..) {
            if let Some(r) = lib.reservation {
                self.gpu.release(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_gpu::{GpuId, MB};
    use dgsf_sim::{Dur, Sim, SimTime};

    fn setup(sim: &Sim) -> (SimHandle, Rc<Gpu>, Arc<CostTable>) {
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        (h, gpu, Arc::new(CostTable::default()))
    }

    #[test]
    fn create_pays_init_and_reserves_footprint() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        let g2 = gpu.clone();
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g2.clone(), costs, true).unwrap();
            assert!((proc.now().as_secs_f64() - 3.2).abs() < 1e-9);
            assert_eq!(g2.used_mem(), 303 * MB);
            ctx.release();
            assert_eq!(g2.used_mem(), 0);
        });
        sim.run();
    }

    #[test]
    fn fptrs_differ_across_contexts_but_are_stable_within_one() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let a = CudaContext::create(proc, &h, gpu.clone(), costs.clone(), false).unwrap();
            let b = CudaContext::create(proc, &h, gpu.clone(), costs, false).unwrap();
            let fa = a.fptr_for("saxpy");
            let fb = b.fptr_for("saxpy");
            assert_ne!(fa, fb, "function pointers are unique per context");
            assert_eq!(a.fptr_for("saxpy"), fa, "stable within a context");
        });
        sim.run();
    }

    #[test]
    fn cudnn_handle_costs_time_and_memory() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        let g2 = gpu.clone();
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g2.clone(), costs, false).unwrap();
            let before = proc.now();
            let hdl = ctx
                .create_lib_handle(proc, LibKind::Cudnn, LibCreate::Cold)
                .unwrap();
            assert!((proc.now().since(before).as_secs_f64() - 1.2).abs() < 1e-9);
            assert_eq!(g2.used_mem(), (303 + 382) * MB);
            assert!(
                ctx.destroy_lib_handle(LibKind::Cublas, hdl).is_err(),
                "a cuDNN handle is not a cuBLAS one"
            );
            ctx.destroy_lib_handle(LibKind::Cudnn, hdl).unwrap();
            assert_eq!(g2.used_mem(), 303 * MB);
            assert!(ctx.destroy_lib_handle(LibKind::Cudnn, hdl).is_err());
        });
        sim.run();
    }

    #[test]
    fn stream_executor_serializes_and_sync_waits() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, gpu, costs, false).unwrap();
            let t0 = proc.now();
            for _ in 0..3 {
                ctx.submit(proc, 0.5, StreamCmd::Timed);
            }
            // submission is asynchronous
            assert_eq!(proc.now(), t0);
            ctx.sync(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(
                (elapsed - 1.5).abs() < 1e-6,
                "3 × 0.5 s serialized: {elapsed}"
            );
        });
        sim.run();
    }

    #[test]
    fn dropping_the_sim_mid_job_frees_the_queued_body() {
        /// Counts its drops.
        struct Counted(Arc<AtomicU64>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicU64::new(0));
        let counted = Counted(dropped.clone());
        let body: KernelFn = Arc::new(move |_view, _cfg, _args| {
            let _keep = &counted;
        });
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        let va = Rc::new(SimCell::new(&h, VaSpace::new()));
        let g2 = gpu.clone();
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g2, costs, false).unwrap();
            let s = ctx.create_stream();
            ctx.submit_on(proc, s, 1.0, StreamCmd::Timed);
            let exec = StreamCmd::Exec {
                body,
                cfg: LaunchConfig::linear(1, 1),
                args: KernelArgs::default(),
                va,
            };
            ctx.submit_on(proc, s, 1.0, exec);
            // The context goes; the job in flight keeps its stream.
            ctx.release();
        });
        // Half-way through the first job.
        sim.run_until(SimTime::ZERO + Dur::from_millis(500));
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "the body is queued");
        // The job holds its stream, the stream its queued body; nothing on
        // that path holds the job's resource or GPU.
        drop(sim);
        drop(gpu);
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "the body was freed");
    }

    #[test]
    fn sleeping_does_not_block_the_stream() {
        // Kernel runs while the host sleeps — classic async overlap.
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, gpu, costs, false).unwrap();
            let t0 = proc.now();
            ctx.submit(proc, 1.0, StreamCmd::Timed);
            proc.sleep(Dur::from_secs(1)); // host work overlaps the kernel
            ctx.sync(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(elapsed < 1.1, "kernel and host sleep overlap: {elapsed}");
        });
        sim.run();
    }
}
