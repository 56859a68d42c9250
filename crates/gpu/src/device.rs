//! The simulated physical GPU.
//!
//! A [`Gpu`] bundles
//! * a memory pool (capacity accounting + the table of physical allocations
//!   with their sparse byte stores),
//! * a processor-sharing **compute engine** (kernels from co-located API
//!   servers time-share it, as under Hyper-Q), on which CUDA streams queue
//!   their kernels ([`Gpu::stream`]),
//! * a processor-sharing **PCIe/DMA engine** for host↔device transfers, and
//! * the busy timeline from which NVML-style utilization is sampled.

use std::collections::HashMap;
use std::rc::Rc;

use dgsf_sim::{Dur, GpsResource, GpsStream, ProcCtx, SimCell, SimHandle, SimTime, Timeline};

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

/// A simulated physical GPU. Cheap to share (`Rc<Gpu>`).
pub struct Gpu {
    /// Device index within its GPU server.
    pub id: GpuId,
    props: DeviceProps,
    compute: GpsResource,
    pcie: GpsResource,
    mem: SimCell<MemState>,
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

    /// A new in-order stream on the (shared) compute engine — a CUDA
    /// stream. The scheduler runs its jobs without a process and hands each
    /// finished operation to `retire`, with the instant it retired (see
    /// [`GpsStream`]).
    pub fn stream<Op: 'static>(&self, retire: impl Fn(Op, SimTime) + 'static) -> GpsStream<Op> {
        self.compute.stream(retire)
    }

    /// Transfer `bytes` over the (shared) PCIe/DMA engine.
    pub fn dma(&self, ctx: &ProcCtx, bytes: u64) {
        self.pcie.acquire(ctx, bytes as f64);
    }

    // ---- utilization (NVML-style) ----

    /// Busy time of the compute engine within `[a, b)`.
    pub fn busy_between(&self, a: SimTime, b: SimTime) -> Dur {
        self.compute.with_timeline(|tl| tl.busy_between(a, b))
    }

    /// Move the compute busy timeline out (see
    /// [`GpsResource::take_timeline`]).
    pub fn take_compute_timeline(&self) -> Timeline {
        self.compute.take_timeline()
    }
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
