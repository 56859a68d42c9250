//! The simulated physical GPU.
//!
//! A [`Gpu`] bundles
//! * a memory pool (capacity accounting + the table of physical allocations
//!   with their sparse byte stores),
//! * a processor-sharing **compute engine** (kernels from co-located API
//!   servers time-share it, as under Hyper-Q),
//! * a processor-sharing **PCIe/DMA engine** for host↔device transfers, and
//! * the busy timeline from which NVML-style utilization is sampled.

use std::collections::HashMap;
use std::rc::Rc;

use dgsf_sim::{
    Dur, GpsResource, ProcCtx, SimCell, SimHandle, SimReceiver, SimSender, SimTime, Timeline,
};

use crate::pagestore::PageStore;
use crate::vmm::PhysId;

/// Identifier of a physical GPU within a GPU server.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GpuId(pub u32);

/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One gibibyte.
pub const GB: u64 = 1 << 30;

/// Static device properties, as returned by `cudaGetDeviceProperties`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    /// Marketing name.
    pub name: String,
    /// Total device memory in bytes.
    pub total_mem: u64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Compute capability (major, minor).
    pub compute_capability: (u32, u32),
}

impl DeviceProps {
    /// The V100-SXM2-16GB the paper's p3.8xlarge testbed provides.
    pub fn v100() -> DeviceProps {
        DeviceProps {
            name: "Tesla V100-SXM2-16GB (simulated)".to_string(),
            total_mem: 16 * GB,
            sm_count: 80,
            compute_capability: (7, 0),
        }
    }
}

/// Error returned when a device allocation or reservation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub free: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} MB, free {} MB",
            self.requested / MB,
            self.free / MB
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A physical device allocation: accounting size plus sparse backing bytes.
#[derive(Debug)]
pub struct PhysAlloc {
    /// Allocation handle.
    pub id: PhysId,
    /// Size in bytes (fully accounted against device memory).
    pub size: u64,
    /// Sparse backing store; only written pages consume host memory.
    pub store: PageStore,
}

struct MemState {
    free: u64,
    allocs: HashMap<PhysId, PhysAlloc>,
    /// Named non-allocation reservations (runtime contexts, library
    /// handles). Keyed by caller-chosen tag.
    reservations: HashMap<u64, u64>,
    next_reservation: u64,
    /// Low bits of the next physical allocation handle.
    next_phys: u64,
}

/// Handle for a named memory reservation (e.g. a CUDA context footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(u64);

/// Engine-token pool gating concurrently in-flight pipelined transfers.
struct DmaTokens {
    tx: SimSender<u32>,
    rx: SimReceiver<u32>,
}

/// A simulated physical GPU. Cheap to share (`Rc<Gpu>`).
pub struct Gpu {
    /// Device index within its GPU server.
    pub id: GpuId,
    props: DeviceProps,
    compute: GpsResource,
    pcie: GpsResource,
    mem: SimCell<MemState>,
    handle: SimHandle,
    /// Lazily created on the first pipelined transfer, preloaded with one
    /// token per DMA engine.
    dma_tokens: SimCell<Option<DmaTokens>>,
}

impl Gpu {
    /// Create a GPU.
    ///
    /// * `compute_capacity` — GPU-seconds of kernel work retired per second
    ///   of virtual time when uncontended (1.0 = the reference V100).
    /// * `pcie_bw` — host↔device bandwidth in bytes/second.
    pub fn new(
        h: &SimHandle,
        id: GpuId,
        props: DeviceProps,
        compute_capacity: f64,
        pcie_bw: f64,
    ) -> Rc<Gpu> {
        let free = props.total_mem;
        Rc::new(Gpu {
            id,
            props,
            compute: h.gps_with_busy_log(compute_capacity),
            pcie: h.gps(pcie_bw),
            mem: SimCell::new(
                h,
                MemState {
                    free,
                    allocs: HashMap::new(),
                    reservations: HashMap::new(),
                    next_reservation: 0,
                    next_phys: 0,
                },
            ),
            handle: h.clone(),
            dma_tokens: SimCell::new(h, None),
        })
    }

    /// Create the paper's reference device: a V100 with 16 GB, PCIe at
    /// 10 GB/s.
    pub fn v100(h: &SimHandle, id: GpuId) -> Rc<Gpu> {
        Gpu::new(h, id, DeviceProps::v100(), 1.0, 10.0e9)
    }

    /// Static properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Total device memory in bytes.
    pub fn total_mem(&self) -> u64 {
        self.props.total_mem
    }

    /// Currently free device memory in bytes.
    pub fn free_mem(&self) -> u64 {
        self.mem.lock().free
    }

    /// Currently used device memory in bytes.
    pub fn used_mem(&self) -> u64 {
        self.props.total_mem - self.free_mem()
    }

    // ---- reservations (context / library footprints) ----

    /// Reserve `bytes` of device memory without creating an allocation
    /// (models CUDA context and cuDNN/cuBLAS handle footprints).
    pub fn reserve(&self, bytes: u64) -> Result<ReservationId, OutOfMemory> {
        let mut m = self.mem.lock();
        if m.free < bytes {
            return Err(OutOfMemory {
                requested: bytes,
                free: m.free,
            });
        }
        m.free -= bytes;
        let id = ReservationId(m.next_reservation);
        m.next_reservation += 1;
        m.reservations.insert(id.0, bytes);
        Ok(id)
    }

    /// Release a reservation made with [`Gpu::reserve`].
    pub fn release(&self, id: ReservationId) {
        let mut m = self.mem.lock();
        if let Some(bytes) = m.reservations.remove(&id.0) {
            m.free += bytes;
        }
    }

    // ---- physical allocations (cuMemCreate / cuMemRelease) ----

    /// Create a physical allocation of `size` bytes (`cuMemCreate`).
    pub fn mem_create(&self, size: u64) -> Result<PhysId, OutOfMemory> {
        let mut m = self.mem.lock();
        let id = self.next_phys_id(&mut m);
        if m.free < size {
            return Err(OutOfMemory {
                requested: size,
                free: m.free,
            });
        }
        m.free -= size;
        m.allocs.insert(
            id,
            PhysAlloc {
                id,
                size,
                store: PageStore::new(size),
            },
        );
        Ok(id)
    }

    /// Create a physical allocation adopting an existing byte store (the
    /// destination side of a migration copy: `cuMemCreate` on the target
    /// GPU followed by the D2D copy, collapsed). Returns the new handle.
    pub fn mem_create_from(&self, store: PageStore) -> Result<PhysId, OutOfMemory> {
        let size = store.len();
        let mut m = self.mem.lock();
        let id = self.next_phys_id(&mut m);
        if m.free < size {
            return Err(OutOfMemory {
                requested: size,
                free: m.free,
            });
        }
        m.free -= size;
        m.allocs.insert(id, PhysAlloc { id, size, store });
        Ok(id)
    }

    /// Take the next physical allocation handle (consumed even if the
    /// allocation then fails).
    fn next_phys_id(&self, m: &mut MemState) -> PhysId {
        // Encode the device in the high bits so handles are globally
        // unique and migrations are traceable in logs.
        let id = PhysId(((self.id.0 as u64) << 48) | m.next_phys);
        m.next_phys += 1;
        id
    }

    /// Destroy a physical allocation (`cuMemRelease`). Returns its size.
    pub fn mem_free(&self, id: PhysId) -> Option<u64> {
        let mut m = self.mem.lock();
        let a = m.allocs.remove(&id)?;
        m.free += a.size;
        Some(a.size)
    }

    /// Size of a physical allocation, if it lives on this device.
    pub fn alloc_size(&self, id: PhysId) -> Option<u64> {
        self.mem.lock().allocs.get(&id).map(|a| a.size)
    }

    /// Run `f` against an allocation's backing store (reads).
    pub fn with_alloc<R>(&self, id: PhysId, f: impl FnOnce(&PageStore) -> R) -> Option<R> {
        let m = self.mem.lock();
        m.allocs.get(&id).map(|a| f(&a.store))
    }

    /// Run `f` against an allocation's backing store (writes).
    pub fn with_alloc_mut<R>(&self, id: PhysId, f: impl FnOnce(&mut PageStore) -> R) -> Option<R> {
        let mut m = self.mem.lock();
        m.allocs.get_mut(&id).map(|a| f(&mut a.store))
    }

    /// Remove an allocation *with its bytes* for migration to another
    /// device. Frees the memory accounting on this device.
    pub fn take_alloc(&self, id: PhysId) -> Option<PhysAlloc> {
        let mut m = self.mem.lock();
        let a = m.allocs.remove(&id)?;
        m.free += a.size;
        Some(a)
    }

    /// Adopt an allocation migrated from another device, re-accounting its
    /// size here. The allocation keeps its (globally unique) handle.
    pub fn adopt_alloc(&self, a: PhysAlloc) -> Result<(), OutOfMemory> {
        let mut m = self.mem.lock();
        if m.free < a.size {
            return Err(OutOfMemory {
                requested: a.size,
                free: m.free,
            });
        }
        m.free -= a.size;
        m.allocs.insert(a.id, a);
        Ok(())
    }

    /// Number of live physical allocations.
    pub fn alloc_count(&self) -> usize {
        self.mem.lock().allocs.len()
    }

    // ---- engines ----

    /// Execute `gpu_seconds` of kernel work on the (shared) compute engine.
    /// Blocks the calling simulated process until the work retires.
    pub fn exec(&self, ctx: &ProcCtx, gpu_seconds: f64) {
        self.compute.acquire(ctx, gpu_seconds);
    }

    /// Transfer `bytes` over the (shared) PCIe/DMA engine.
    pub fn dma(&self, ctx: &ProcCtx, bytes: u64) {
        self.pcie.acquire(ctx, bytes as f64);
    }

    /// Submit `bytes` for a *pipelined* host→device transfer and return
    /// immediately; the copy proceeds in a background process and the
    /// returned receiver yields exactly one unit when it retires.
    ///
    /// At most `engines` transfers are in flight at once (the engine-token
    /// pool is sized on first use; `engines` is fixed per run by the cost
    /// table). In-flight transfers share the one PCIe link's bandwidth.
    /// The busy window is sliced into `chunk_bytes` chunks for per-chunk
    /// telemetry spans on track `gpu<id>/dma<engine>`; chunking never adds
    /// latency — the link is acquired once for the whole copy.
    pub fn dma_pipelined(
        self: &Rc<Self>,
        ctx: &ProcCtx,
        bytes: u64,
        chunk_bytes: u64,
        engines: u32,
    ) -> SimReceiver<()> {
        let (done_tx, done_rx) = self.handle.channel::<()>();
        if bytes == 0 {
            done_tx.send(ctx, ());
            return done_rx;
        }
        let (tok_tx, tok_rx) = {
            let mut slot = self.dma_tokens.borrow_in(ctx);
            let pool = slot.get_or_insert_with(|| {
                let (tx, rx) = self.handle.channel::<u32>();
                for e in 0..engines.max(1) {
                    tx.send(ctx, e);
                }
                DmaTokens { tx, rx }
            });
            (pool.tx.clone(), pool.rx.clone())
        };
        let gpu = Rc::clone(self);
        self.handle
            .spawn(&format!("gpu{}-h2d-dma", self.id.0), move |p| {
                let engine = tok_rx.recv(p).unwrap_or(0);
                let t0 = p.now();
                gpu.pcie.acquire(p, bytes as f64);
                let t1 = p.now();
                let tel = p.telemetry();
                if tel.is_enabled() {
                    let track = format!("gpu{}/dma{engine}", gpu.id.0);
                    let total = t1.since(t0).as_nanos() as u128;
                    let mut acc = 0u64;
                    for (i, cb) in plan_chunks(bytes, chunk_bytes).into_iter().enumerate() {
                        let s = t0 + Dur((total * acc as u128 / bytes as u128) as u64);
                        acc += cb;
                        let e = t0 + Dur((total * acc as u128 / bytes as u128) as u64);
                        tel.span_args(
                            &track,
                            "h2d_chunk",
                            "transfer",
                            s,
                            e,
                            &[
                                ("engine", engine.into()),
                                ("chunk", i.into()),
                                ("bytes", cb.into()),
                            ],
                        );
                    }
                }
                tok_tx.send(p, engine);
                done_tx.send(p, ());
            });
        done_rx
    }

    // ---- utilization (NVML-style) ----

    /// Busy time of the compute engine within `[a, b)`.
    pub fn busy_between(&self, a: SimTime, b: SimTime) -> Dur {
        self.compute.with_timeline(|tl| tl.busy_between(a, b))
    }

    /// NVML-style utilization samples: for each `period` within
    /// `[start, end)`, the fraction of time ≥1 kernel was executing.
    /// The paper samples every 200 ms with an underlying NVML period of
    /// 167 ms; callers choose.
    pub fn utilization_samples(&self, start: SimTime, end: SimTime, period: Dur) -> Vec<f64> {
        self.compute
            .with_timeline(|tl| tl.utilization_samples(start, end, period))
    }

    /// Move the compute busy timeline out (see
    /// [`GpsResource::take_timeline`]).
    pub fn take_compute_timeline(&self) -> Timeline {
        self.compute.take_timeline()
    }
}

/// Slice a `bytes`-long transfer into chunks of at most `chunk` bytes (the
/// last chunk carries the remainder). Zero bytes plan to no chunks; a chunk
/// size of zero is treated as one byte.
pub fn plan_chunks(bytes: u64, chunk: u64) -> Vec<u64> {
    if bytes == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(bytes.div_ceil(chunk) as usize);
    let mut left = bytes;
    while left > 0 {
        let c = left.min(chunk);
        out.push(c);
        left -= c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::{Sim, SimCell};

    fn mk() -> (Sim, Rc<Gpu>) {
        let sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        (sim, gpu)
    }

    #[test]
    fn memory_accounting_roundtrip() {
        let (_sim, gpu) = mk();
        assert_eq!(gpu.free_mem(), 16 * GB);
        let r = gpu.reserve(303 * MB).unwrap();
        let a = gpu.mem_create(GB).unwrap();
        assert_eq!(gpu.used_mem(), 303 * MB + GB);
        assert_eq!(gpu.mem_free(a), Some(GB));
        gpu.release(r);
        assert_eq!(gpu.used_mem(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let (_sim, gpu) = mk();
        let err = gpu.mem_create(17 * GB).unwrap_err();
        assert_eq!(err.requested, 17 * GB);
        assert_eq!(err.free, 16 * GB);
    }

    #[test]
    fn alloc_data_survives_take_and_adopt() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let g0 = Gpu::v100(&h, GpuId(0));
        let g1 = Gpu::v100(&h, GpuId(1));
        let a = g0.mem_create(MB).unwrap();
        g0.with_alloc_mut(a, |s| s.write(100, b"dgsf")).unwrap();
        let moved = g0.take_alloc(a).unwrap();
        assert_eq!(g0.used_mem(), 0);
        g1.adopt_alloc(moved).unwrap();
        assert_eq!(g1.used_mem(), MB);
        let mut out = [0u8; 4];
        g1.with_alloc(a, |s| s.read(100, &mut out)).unwrap();
        assert_eq!(&out, b"dgsf");
        // handle no longer resolves on the source device
        assert!(g0.with_alloc(a, |_| ()).is_none());
    }

    #[test]
    fn compute_engine_shares_between_kernels() {
        let mut sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        let done = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        for i in 0..2 {
            let gpu = gpu.clone();
            let done = done.clone();
            sim.spawn(&format!("k{i}"), move |ctx| {
                gpu.exec(ctx, 1.0);
                done.lock().push(ctx.now().as_secs_f64());
            });
        }
        sim.run();
        for t in done.lock().iter() {
            assert!((t - 2.0).abs() < 1e-6, "sharing should double runtime: {t}");
        }
    }

    #[test]
    fn dma_respects_bandwidth() {
        let mut sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        let done = Rc::new(SimCell::new(&sim.handle(), 0.0f64));
        let d = done.clone();
        let g = gpu.clone();
        sim.spawn("copy", move |ctx| {
            g.dma(ctx, 10_000_000_000); // 10 GB at 10 GB/s = 1 s
            *d.lock() = ctx.now().as_secs_f64();
        });
        sim.run();
        assert!((*done.lock() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn plan_chunks_covers_edge_cases() {
        assert!(plan_chunks(0, 4 * MB).is_empty());
        assert_eq!(
            plan_chunks(MB, 4 * MB),
            vec![MB],
            "chunk >= total: one chunk"
        );
        assert_eq!(plan_chunks(10, 4), vec![4, 4, 2]);
        assert_eq!(plan_chunks(8, 4), vec![4, 4]);
        assert_eq!(
            plan_chunks(5, 0),
            vec![1; 5],
            "zero chunk treated as one byte"
        );
        for (bytes, chunk) in [(1u64, 1u64), (4 * MB + 1, MB), (GB, 7)] {
            assert_eq!(plan_chunks(bytes, chunk).iter().sum::<u64>(), bytes);
        }
    }

    #[test]
    fn pipelined_dma_zero_bytes_completes_instantly() {
        let mut sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        let done = Rc::new(SimCell::new(&sim.handle(), None));
        let d = done.clone();
        sim.spawn("copy", move |ctx| {
            let rx = gpu.dma_pipelined(ctx, 0, 4 * MB, 2);
            assert_eq!(rx.recv(ctx), Some(()));
            *d.lock() = Some(ctx.now().as_nanos());
        });
        sim.run();
        assert_eq!(*done.lock(), Some(0), "zero-byte copy costs no time");
    }

    #[test]
    fn pipelined_dma_single_engine_serializes_transfers() {
        // With one engine the second copy cannot start until the first
        // retires, so the first finishes at exactly bytes/bw — it never
        // shares the link.
        let mut sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        let t_first = Rc::new(SimCell::new(&sim.handle(), 0.0f64));
        let t = t_first.clone();
        sim.spawn("copies", move |ctx| {
            let a = gpu.dma_pipelined(ctx, 10_000_000_000, 4 * MB, 1); // 1 s at 10 GB/s
            let b = gpu.dma_pipelined(ctx, 5_000_000_000, 4 * MB, 1); // 0.5 s
            assert_eq!(a.recv(ctx), Some(()));
            *t.lock() = ctx.now().as_secs_f64();
            assert_eq!(b.recv(ctx), Some(()));
            assert!((ctx.now().as_secs_f64() - 1.5).abs() < 1e-6);
        });
        sim.run();
        assert!(
            (*t_first.lock() - 1.0).abs() < 1e-6,
            "single engine: first copy ran exclusively"
        );
    }

    #[test]
    fn pipelined_dma_two_engines_share_the_link() {
        // With two engines both copies are in flight at once and GPS-share
        // the PCIe link: two equal copies finish together at 2×.
        let mut sim = Sim::new(1);
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        sim.spawn("copies", move |ctx| {
            let a = gpu.dma_pipelined(ctx, 5_000_000_000, 4 * MB, 2);
            let b = gpu.dma_pipelined(ctx, 5_000_000_000, 4 * MB, 2);
            assert_eq!(a.recv(ctx), Some(()));
            assert_eq!(b.recv(ctx), Some(()));
            assert!((ctx.now().as_secs_f64() - 1.0).abs() < 1e-6);
        });
        sim.run();
    }

    #[test]
    fn pipelined_dma_emits_per_chunk_telemetry() {
        let mut sim = Sim::new(1);
        sim.handle().telemetry().enable();
        let gpu = Gpu::v100(&sim.handle(), GpuId(0));
        sim.spawn("copy", move |ctx| {
            let rx = gpu.dma_pipelined(ctx, 10 * MB, 4 * MB, 2);
            assert_eq!(rx.recv(ctx), Some(()));
        });
        sim.run();
        let spans: Vec<_> = sim
            .handle()
            .telemetry()
            .spans()
            .into_iter()
            .filter(|s| s.name == "h2d_chunk")
            .collect();
        assert_eq!(spans.len(), 3, "10 MB in 4 MB chunks = 3 chunk spans");
        let total_bytes: u64 = spans
            .iter()
            .map(|s| {
                s.args
                    .iter()
                    .find(|(k, _)| k == "bytes")
                    .map(|(_, v)| v.parse::<u64>().unwrap())
                    .unwrap()
            })
            .sum();
        assert_eq!(total_bytes, 10 * MB);
        assert!(spans.iter().all(|s| s.track == "gpu0/dma0"));
        // chunk spans tile the busy window: contiguous, ordered, non-empty
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(spans.iter().all(|s| s.end > s.start));
    }

    #[test]
    fn phys_ids_are_globally_unique_across_gpus() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let g0 = Gpu::v100(&h, GpuId(0));
        let g1 = Gpu::v100(&h, GpuId(1));
        let a = g0.mem_create(MB).unwrap();
        let b = g1.mem_create(MB).unwrap();
        assert_ne!(a, b);
    }
}
