//! CUDA contexts and their stream executors.
//!
//! A [`CudaContext`] is bound to one physical GPU and owns everything whose
//! *values* are context-specific in real CUDA: kernel function pointers,
//! stream/event handles, and cuDNN/cuBLAS library handles (with their device
//! memory footprints). DGSF's API servers keep one context per GPU and
//! translate client-visible handles to per-context twins on migration
//! (paper §V-D); [`crate::GpuSession`] implements that translation.
//!
//! Each context runs one **stream executor per stream** — simulated
//! processes that drain in-order queues of kernel launches, library ops and
//! memsets against the context's GPU. Launches are therefore asynchronous to
//! the caller (as in CUDA), work on different streams of the same context
//! overlaps (contending on the GPU's processor-sharing compute engine, as
//! under Hyper-Q), co-located contexts contend the same way, and
//! `cudaDeviceSynchronize` / `cudaStreamSynchronize` are real rendezvous.
//! Each executor owns one done-channel, created with it, on which every
//! sync of that stream is answered; a device-wide sync visits the
//! executors in creation order, so its event order replays exactly.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgsf_gpu::{Gpu, PhysId, ReservationId, VaSpace};
use dgsf_sim::{ProcCtx, SimCell, SimHandle, SimReceiver, SimSender};

use crate::costs::CostTable;
use crate::error::{CudaError, CudaResult};
use crate::module::KernelFn;
use crate::types::{DevPtr, KernelArgs, LaunchConfig};
use crate::view::DeviceView;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Commands accepted by a context's stream executor, in order.
pub(crate) enum StreamCmd {
    /// Occupy the GPU for `work` GPU-seconds: a timed kernel, whose cost
    /// the launching session evaluated, or an aggregate cuDNN/cuBLAS
    /// operation.
    Compute { work: f64 },
    /// A kernel with a functional body: occupy the GPU for `work`
    /// GPU-seconds, then run `body` against the launching session's memory.
    Exec {
        work: f64,
        body: KernelFn,
        cfg: LaunchConfig,
        args: KernelArgs,
        va: Rc<SimCell<VaSpace>>,
    },
    /// Asynchronous device memset.
    Memset {
        va: Rc<SimCell<VaSpace>>,
        ptr: DevPtr,
        len: u64,
        value: u8,
    },
    /// Rendezvous: reply once all prior commands have retired.
    Sync { done: SimSender<()> },
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
    fptr_names: SimCell<HashMap<u64, String>>,
    events: SimCell<HashSet<u64>>,
    /// Library handles; `None` reservation for pooled handles whose memory
    /// is pre-reserved in the owning API server's idle footprint.
    cudnn: SimCell<HashMap<u64, Option<ReservationId>>>,
    cublas: SimCell<HashMap<u64, Option<ReservationId>>>,
    /// One in-order executor per stream. Streams of the same context
    /// contend on the GPU's processor-sharing compute engine, so
    /// independent streams genuinely overlap.
    default_engine: Engine,
    /// Created streams and their executors, in creation order (which is
    /// handle order: handles only grow).
    streams: SimCell<Vec<(u64, Engine)>>,
    /// GPU-resident handoff buffers parked between DAG stages, keyed by
    /// the handoff key chosen by the publisher. The context outlives the
    /// sessions that come and go on it, so a buffer published here stays
    /// on-device across function invocations.
    resident: SimCell<HashMap<u64, ResidentBuf>>,
    /// Append-only audit log of resident-store traffic.
    resident_log: SimCell<Vec<ResidentEvent>>,
}

/// The default stream's handle.
pub const DEFAULT_STREAM: u64 = 0;

/// A stream executor's inbox and its done-channel.
///
/// One done-channel per executor is enough because only one process at a
/// time waits on a context: an API server serves one function at a time on
/// its own contexts, and a native application owns its context. Every
/// sync marker it queues is answered before it returns, so the channel is
/// empty between syncs.
struct Engine {
    tx: SimSender<StreamCmd>,
    done_tx: SimSender<()>,
    done_rx: SimReceiver<()>,
}

impl Engine {
    /// Queue a sync marker, answered on the done-channel once every
    /// command queued before it has retired.
    fn request_sync(&self, proc: &ProcCtx) {
        self.tx.send(
            proc,
            StreamCmd::Sync {
                done: self.done_tx.clone(),
            },
        );
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
        let default_engine = spawn_stream_engine(h, &gpu, &costs, &format!("ctx{id}-default"));
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
            fptr_names: SimCell::new(h, HashMap::new()),
            events: SimCell::new(h, HashSet::new()),
            cudnn: SimCell::new(h, HashMap::new()),
            cublas: SimCell::new(h, HashMap::new()),
            default_engine,
            streams: SimCell::new(h, Vec::new()),
            resident: SimCell::new(h, HashMap::new()),
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

    /// Enqueue a command on the context's default stream.
    pub(crate) fn submit(&self, proc: &ProcCtx, cmd: StreamCmd) {
        self.submit_on(proc, DEFAULT_STREAM, cmd);
    }

    /// Enqueue a command on a specific native stream. Unknown streams fall
    /// back to the default stream (callers validate handles beforehand).
    pub(crate) fn submit_on(&self, proc: &ProcCtx, stream: u64, cmd: StreamCmd) {
        let streams = self.streams.borrow_in(proc);
        self.engine(&streams, stream)
            .unwrap_or(&self.default_engine)
            .tx
            .send(proc, cmd);
    }

    /// The executor of `stream`: the default one, or one of `streams`.
    fn engine<'a>(&'a self, streams: &'a [(u64, Engine)], stream: u64) -> Option<&'a Engine> {
        if stream == DEFAULT_STREAM {
            return Some(&self.default_engine);
        }
        let i = streams.binary_search_by_key(&stream, |(h, _)| *h).ok()?;
        Some(&streams[i].1)
    }

    /// Block until every previously submitted command on *every* stream has
    /// retired (`cudaDeviceSynchronize`). Markers go out and are awaited in
    /// creation order, the default stream first.
    pub fn sync(&self, proc: &ProcCtx) {
        self.default_engine.request_sync(proc);
        let streams = self.streams.borrow_in(proc);
        for (_, e) in streams.iter() {
            e.request_sync(proc);
        }
        let n = streams.len();
        drop(streams);
        let _ = self.default_engine.done_rx.recv(proc);
        for i in 0..n {
            // No borrow may be held across the park in `recv`.
            let rx = self.streams.borrow_in(proc)[i].1.done_rx.clone();
            let _ = rx.recv(proc);
        }
    }

    /// Block until one native stream's queue has drained
    /// (`cudaStreamSynchronize`).
    pub fn sync_stream(&self, proc: &ProcCtx, stream: u64) {
        let streams = self.streams.borrow_in(proc);
        let Some(e) = self.engine(&streams, stream) else {
            return;
        };
        e.request_sync(proc);
        let rx = e.done_rx.clone();
        drop(streams);
        let _ = rx.recv(proc);
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
        self.fptr_names.lock().insert(p, name.to_string());
        p
    }

    /// Kernel name for a function pointer from this context.
    pub fn kernel_name(&self, fptr: u64) -> Option<String> {
        self.fptr_names.lock().get(&fptr).cloned()
    }

    /// Create a stream in this context with its own in-order executor;
    /// returns the context-local handle.
    pub fn create_stream(&self) -> u64 {
        let s = self.alloc_handle();
        let engine = spawn_stream_engine(
            &self.handle,
            &self.gpu,
            &self.costs,
            &format!("ctx{}-stream{s:x}", self.id),
        );
        let mut streams = self.streams.lock();
        debug_assert!(streams.last().is_none_or(|(h, _)| *h < s));
        streams.push((s, engine));
        s
    }

    /// Destroy a context-local stream handle (its executor exits at
    /// simulation shutdown; pending work was drained by the caller).
    pub fn destroy_stream(&self, s: u64) -> bool {
        let mut streams = self.streams.lock();
        match streams.binary_search_by_key(&s, |(h, _)| *h) {
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
        streams.binary_search_by_key(&s, |(h, _)| *h).is_ok()
    }

    /// Create an event in this context.
    pub fn create_event(&self) -> u64 {
        let e = self.alloc_handle();
        self.events.lock().insert(e);
        e
    }

    /// Destroy a context-local event handle.
    pub fn destroy_event(&self, e: u64) -> bool {
        self.events.lock().remove(&e)
    }

    /// Create a cuDNN handle in this context. Pays the ≈1.2 s creation
    /// latency when `pay_time` (pool pre-creation at provisioning and the
    /// unoptimized cold path pass `true`; migration twin creation passes
    /// `false` — memory but no creation latency).
    pub fn create_cudnn_handle(&self, proc: &ProcCtx, pay_time: bool) -> CudaResult<u64> {
        if pay_time {
            proc.sleep(self.costs.cudnn_create);
        }
        let r = self.gpu.reserve(self.costs.cudnn_mem)?;
        let h = self.alloc_handle();
        self.cudnn.lock().insert(h, Some(r));
        Ok(h)
    }

    /// Hand out a cuDNN handle from the API server's pre-created pool: no
    /// creation latency and no *additional* memory (the pool's footprint is
    /// part of the server's idle 755 MB reservation).
    pub fn serve_pooled_cudnn_handle(&self) -> u64 {
        let h = self.alloc_handle();
        self.cudnn.lock().insert(h, None);
        h
    }

    /// Destroy a cuDNN handle, releasing its device footprint (if it owns
    /// one).
    pub fn destroy_cudnn_handle(&self, h: u64) -> CudaResult<()> {
        let r = self
            .cudnn
            .lock()
            .remove(&h)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cudnn {h:#x}")))?;
        if let Some(r) = r {
            self.gpu.release(r);
        }
        Ok(())
    }

    /// Create a cuBLAS handle in this context (≈0.2 s, 70 MB).
    pub fn create_cublas_handle(&self, proc: &ProcCtx, pay_time: bool) -> CudaResult<u64> {
        if pay_time {
            proc.sleep(self.costs.cublas_create);
        }
        let r = self.gpu.reserve(self.costs.cublas_mem)?;
        let h = self.alloc_handle();
        self.cublas.lock().insert(h, Some(r));
        Ok(h)
    }

    /// Pooled cuBLAS analogue of [`CudaContext::serve_pooled_cudnn_handle`].
    pub fn serve_pooled_cublas_handle(&self) -> u64 {
        let h = self.alloc_handle();
        self.cublas.lock().insert(h, None);
        h
    }

    /// Destroy a cuBLAS handle, releasing its device footprint (if it owns
    /// one).
    pub fn destroy_cublas_handle(&self, h: u64) -> CudaResult<()> {
        let r = self
            .cublas
            .lock()
            .remove(&h)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cublas {h:#x}")))?;
        if let Some(r) = r {
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
        self.gpu.mem_free(buf.phys);
        self.resident_log.lock().push(ResidentEvent::Reclaimed {
            key,
            bytes: buf.mapped,
        });
        true
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
    /// reservations, and reclaim any resident buffers never adopted. (The
    /// stream executor exits at simulation shutdown.)
    pub fn release(&self) {
        // Sort for determinism: HashMap iteration order is seeded per
        // process, and reclaim order reaches the GPU free lists and log.
        let mut orphans: Vec<u64> = self.resident.lock().keys().copied().collect();
        orphans.sort_unstable();
        for key in orphans {
            self.reclaim_resident(key);
        }
        if let Some(r) = self.ctx_reservation.lock().take() {
            self.gpu.release(r);
        }
        for (_, r) in self.cudnn.lock().drain() {
            if let Some(r) = r {
                self.gpu.release(r);
            }
        }
        for (_, r) in self.cublas.lock().drain() {
            if let Some(r) = r {
                self.gpu.release(r);
            }
        }
    }
}

/// Spawn an in-order stream executor against `gpu`.
fn spawn_stream_engine(
    h: &SimHandle,
    gpu: &Rc<Gpu>,
    costs: &Arc<CostTable>,
    label: &str,
) -> Engine {
    let (tx, rx) = h.channel::<StreamCmd>();
    let (done_tx, done_rx) = h.channel::<()>();
    let exec_gpu = Rc::clone(gpu);
    let exec_costs = Arc::clone(costs);
    h.spawn(&format!("stream-exec-{label}"), move |pctx| {
        while let Some(cmd) = rx.recv(pctx) {
            match cmd {
                StreamCmd::Compute { work } => {
                    exec_gpu.exec(pctx, work);
                }
                StreamCmd::Exec {
                    work,
                    body,
                    cfg,
                    args,
                    va,
                } => {
                    exec_gpu.exec(pctx, work);
                    let vag = va.borrow_in(pctx);
                    let mut view = DeviceView::new(&vag, &exec_gpu);
                    body(&mut view, &cfg, &args);
                }
                StreamCmd::Memset {
                    va,
                    ptr,
                    len,
                    value,
                } => {
                    exec_gpu.exec(pctx, len as f64 / exec_costs.memset_bw);
                    let vag = va.borrow_in(pctx);
                    let mut view = DeviceView::new(&vag, &exec_gpu);
                    view.fill(ptr, len, value);
                }
                StreamCmd::Sync { done } => {
                    done.send(pctx, ());
                }
            }
        }
    });
    Engine {
        tx,
        done_tx,
        done_rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_gpu::{GpuId, MB};
    use dgsf_sim::{Dur, Sim};

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
            assert_eq!(a.kernel_name(fa).as_deref(), Some("saxpy"));
            assert_eq!(b.kernel_name(fa), None, "foreign fptr does not resolve");
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
            let hdl = ctx.create_cudnn_handle(proc, true).unwrap();
            assert!((proc.now().since(before).as_secs_f64() - 1.2).abs() < 1e-9);
            assert_eq!(g2.used_mem(), (303 + 382) * MB);
            ctx.destroy_cudnn_handle(hdl).unwrap();
            assert_eq!(g2.used_mem(), 303 * MB);
            assert!(ctx.destroy_cudnn_handle(hdl).is_err());
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
                ctx.submit(proc, StreamCmd::Compute { work: 0.5 });
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
    fn sleeping_does_not_block_the_stream() {
        // Kernel runs while the host sleeps — classic async overlap.
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, gpu, costs, false).unwrap();
            let t0 = proc.now();
            ctx.submit(proc, StreamCmd::Compute { work: 1.0 });
            proc.sleep(Dur::from_secs(1)); // host work overlaps the kernel
            ctx.sync(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(elapsed < 1.1, "kernel and host sleep overlap: {elapsed}");
        });
        sim.run();
    }
}
