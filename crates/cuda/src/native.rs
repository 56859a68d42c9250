//! Native (non-remoted) CUDA execution — the paper's baseline.
//!
//! [`NativeCuda`] runs an application directly against a local GPU. Unlike
//! the DGSF path, nothing can be pre-initialized: the CUDA runtime maps its
//! command rings into *this* process's address space, so the ≈3.2 s
//! initialization, cuDNN handle creation (≈1.2 s) and cuBLAS handle creation
//! (≈0.2 s) all land on the critical path (§V-C "Native GPU applications
//! cannot pre-initialize their own runtime").

use std::rc::Rc;
use std::sync::Arc;

use dgsf_gpu::{DeviceProps, Gpu};
use dgsf_sim::{ProcCtx, SimHandle};

use crate::api::{ApiStats, CudaApi, LibOp};
use crate::context::CudaContext;
use crate::costs::CostTable;
use crate::error::{CudaError, CudaResult};
use crate::module::ModuleRegistry;
use crate::session::GpuSession;
use crate::types::{
    CublasHandle, CudnnHandle, DescriptorKind, DescriptorRange, DevPtr, EventHandle, HostBuf,
    KernelArgs, LaunchConfig, PtrAttributes, StreamHandle,
};

/// Direct execution on a local GPU.
pub struct NativeCuda {
    handle: SimHandle,
    gpu: Rc<Gpu>,
    costs: Arc<CostTable>,
    session: Option<GpuSession>,
    stats: ApiStats,
    next_descriptor: u64,
    live_descriptors: u64,
}

impl NativeCuda {
    /// An application process on a machine with a physically attached GPU.
    pub fn new(h: &SimHandle, gpu: Rc<Gpu>, costs: Arc<CostTable>) -> NativeCuda {
        NativeCuda {
            handle: h.clone(),
            gpu,
            costs,
            session: None,
            stats: ApiStats::default(),
            next_descriptor: 1,
            live_descriptors: 0,
        }
    }

    /// Host-side cost of one local API call.
    fn call(&mut self, p: &ProcCtx) {
        self.stats.issue(1);
        p.sleep(self.costs.native_call_overhead);
    }

    /// Launch = push-call-configuration + the launch itself; the kernel
    /// name resolves against the registered module on every call.
    fn launch(
        &mut self,
        p: &ProcCtx,
        stream: Option<StreamHandle>,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.stats.issue(2);
        self.stats.kernel_launches += 1;
        p.sleep(self.costs.kernel_launch_overhead);
        let session = self.ensure(p)?;
        let Some(kernel) = session.registry().id(name) else {
            return Err(CudaError::InvalidValue(format!("unknown kernel {name:?}")));
        };
        session.launch_on(p, stream, kernel, cfg, args)
    }

    fn ensure(&mut self, p: &ProcCtx) -> CudaResult<&mut GpuSession> {
        if self.session.is_none() {
            // First CUDA call: pay runtime initialization.
            let ctx = CudaContext::create(
                p,
                &self.handle,
                Rc::clone(&self.gpu),
                Arc::clone(&self.costs),
                true,
            )?;
            self.session = Some(GpuSession::new(&self.handle, ctx, None));
        }
        Ok(self.session.as_mut().expect("just ensured"))
    }

    /// Live descriptor count (for leak tests).
    pub fn live_descriptors(&self) -> u64 {
        self.live_descriptors
    }

    /// The session, if initialized (tests).
    pub fn session(&self) -> Option<&GpuSession> {
        self.session.as_ref()
    }
}

impl CudaApi for NativeCuda {
    fn runtime_init(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?;
        Ok(())
    }

    fn register_module(&mut self, p: &ProcCtx, registry: Arc<ModuleRegistry>) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.register_module(registry);
        Ok(())
    }

    fn get_device_count(&mut self, p: &ProcCtx) -> CudaResult<u32> {
        self.call(p);
        self.ensure(p)?;
        Ok(1)
    }

    fn get_device_properties(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<DeviceProps> {
        self.call(p);
        if dev != 0 {
            return Err(CudaError::InvalidDevice { requested: dev });
        }
        self.ensure(p)?;
        Ok(self.gpu.props().clone())
    }

    fn set_device(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<()> {
        self.call(p);
        if dev != 0 {
            return Err(CudaError::InvalidDevice { requested: dev });
        }
        self.ensure(p)?;
        Ok(())
    }

    fn malloc(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<DevPtr> {
        self.call(p);
        self.ensure(p)?.malloc(p, bytes)
    }

    fn free(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.free(p, ptr)
    }

    fn memset(&mut self, p: &ProcCtx, ptr: DevPtr, value: u8, bytes: u64) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.memset(p, ptr, value, bytes)
    }

    fn memcpy_h2d(&mut self, p: &ProcCtx, dst: DevPtr, src: HostBuf) -> CudaResult<()> {
        self.call(p);
        self.stats.bytes_to_device += src.len();
        self.ensure(p)?.memcpy_h2d(p, dst, &src)
    }

    fn memcpy_d2h(
        &mut self,
        p: &ProcCtx,
        src: DevPtr,
        bytes: u64,
        want_data: bool,
    ) -> CudaResult<HostBuf> {
        self.call(p);
        self.stats.bytes_to_host += bytes;
        self.ensure(p)?.memcpy_d2h(p, src, bytes, want_data)
    }

    fn launch_kernel(
        &mut self,
        p: &ProcCtx,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.launch(p, None, name, cfg, args)
    }

    fn launch_kernel_on(
        &mut self,
        p: &ProcCtx,
        stream: StreamHandle,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.launch(p, Some(stream), name, cfg, args)
    }

    fn device_synchronize(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.synchronize(p);
        Ok(())
    }

    fn stream_create(&mut self, p: &ProcCtx) -> CudaResult<StreamHandle> {
        self.call(p);
        Ok(self.ensure(p)?.stream_create(p))
    }

    fn stream_destroy(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.stream_destroy(p, s)
    }

    fn stream_synchronize(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.stream_synchronize(p, s)
    }

    fn event_create(&mut self, p: &ProcCtx) -> CudaResult<EventHandle> {
        self.call(p);
        Ok(self.ensure(p)?.event_create(p))
    }

    fn event_record(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.event_record(p, e)
    }

    fn event_synchronize(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.event_synchronize(p, e)
    }

    fn pointer_get_attributes(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<PtrAttributes> {
        self.call(p);
        Ok(self.ensure(p)?.pointer_attributes(ptr))
    }

    fn malloc_host(&mut self, p: &ProcCtx, _bytes: u64) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?;
        Ok(())
    }

    fn cudnn_create(&mut self, p: &ProcCtx) -> CudaResult<CudnnHandle> {
        self.call(p);
        // Native applications pay the full handle creation latency.
        self.ensure(p)?.cudnn_create(p, false)
    }

    fn cudnn_destroy(&mut self, p: &ProcCtx, h: CudnnHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.cudnn_destroy(p, h)
    }

    fn cudnn_create_descriptors(
        &mut self,
        p: &ProcCtx,
        _kind: DescriptorKind,
        n: u64,
    ) -> CudaResult<DescriptorRange> {
        self.stats.issue(n);
        p.sleep(dgsf_sim::Dur(
            (self.costs.descriptor_create.as_nanos() + self.costs.native_call_overhead.as_nanos())
                .saturating_mul(n),
        ));
        self.ensure(p)?;
        let out = DescriptorRange {
            first: self.next_descriptor,
            count: n,
        };
        self.next_descriptor += n;
        self.live_descriptors += n;
        Ok(out)
    }

    fn cudnn_set_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()> {
        self.stats.issue(descs.count);
        p.sleep(dgsf_sim::Dur(
            self.costs
                .native_call_overhead
                .as_nanos()
                .saturating_mul(descs.count),
        ));
        self.ensure(p)?;
        Ok(())
    }

    fn cudnn_destroy_descriptors(&mut self, p: &ProcCtx, descs: DescriptorRange) -> CudaResult<()> {
        self.stats.issue(descs.count);
        p.sleep(dgsf_sim::Dur(
            self.costs
                .native_call_overhead
                .as_nanos()
                .saturating_mul(descs.count),
        ));
        self.live_descriptors = self.live_descriptors.saturating_sub(descs.count);
        self.ensure(p)?;
        Ok(())
    }

    fn cudnn_op(&mut self, p: &ProcCtx, _h: CudnnHandle, op: LibOp) -> CudaResult<()> {
        self.stats.issue(op.api_calls);
        p.sleep(dgsf_sim::Dur(
            self.costs
                .native_call_overhead
                .as_nanos()
                .saturating_mul(op.api_calls),
        ));
        self.ensure(p)?.lib_op(p, op.work);
        Ok(())
    }

    fn cublas_create(&mut self, p: &ProcCtx) -> CudaResult<CublasHandle> {
        self.call(p);
        self.ensure(p)?.cublas_create(p, false)
    }

    fn cublas_destroy(&mut self, p: &ProcCtx, h: CublasHandle) -> CudaResult<()> {
        self.call(p);
        self.ensure(p)?.cublas_destroy(p, h)
    }

    fn cublas_op(&mut self, p: &ProcCtx, _h: CublasHandle, op: LibOp) -> CudaResult<()> {
        self.stats.issue(op.api_calls);
        p.sleep(dgsf_sim::Dur(
            self.costs
                .native_call_overhead
                .as_nanos()
                .saturating_mul(op.api_calls),
        ));
        self.ensure(p)?.lib_op(p, op.work);
        Ok(())
    }

    fn stats(&self) -> ApiStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{KernelCost, KernelDef};
    use dgsf_gpu::{GpuId, MB};
    use dgsf_sim::Sim;

    #[test]
    fn first_call_pays_runtime_init() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        sim.spawn("app", move |p| {
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            let t0 = p.now();
            api.runtime_init(p).unwrap();
            let init = p.now().since(t0).as_secs_f64();
            assert!(init >= 3.2, "native init on critical path: {init}");
            // second call is cheap
            let t1 = p.now();
            api.get_device_count(p).unwrap();
            assert!(p.now().since(t1).as_secs_f64() < 0.001);
        });
        sim.run();
    }

    #[test]
    fn device_is_hidden_to_one() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(3));
        sim.spawn("app", move |p| {
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            assert_eq!(api.get_device_count(p).unwrap(), 1);
            assert!(api.set_device(p, 0).is_ok());
            assert_eq!(
                api.set_device(p, 1),
                Err(CudaError::InvalidDevice { requested: 1 })
            );
        });
        sim.run();
    }

    #[test]
    fn functional_end_to_end_vector_increment() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        sim.spawn("app", move |p| {
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            let registry = Arc::new(ModuleRegistry::new().with(KernelDef::functional(
                "inc",
                KernelCost::Fixed(0.01),
                |view, _c, args| {
                    let v = view.read_f32s(args.ptrs[0], args.scalars[0] as usize);
                    let out: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
                    view.write_f32s(args.ptrs[0], &out);
                },
            )));
            api.register_module(p, registry).unwrap();
            let buf = api.malloc(p, MB).unwrap();
            api.memcpy_h2d(p, buf, HostBuf::from_f32s(&[1.0, 2.0, 3.0]))
                .unwrap();
            api.launch_kernel(
                p,
                "inc",
                LaunchConfig::linear(3, 32),
                KernelArgs {
                    ptrs: vec![buf],
                    scalars: vec![3],
                    ..Default::default()
                },
            )
            .unwrap();
            api.device_synchronize(p).unwrap();
            let out = api.memcpy_d2h(p, buf, 12, true).unwrap();
            assert_eq!(out.to_f32s().unwrap(), vec![2.0, 3.0, 4.0]);
            assert_eq!(api.stats().kernel_launches, 1);
            assert!(api.stats().issued_calls > 5);
        });
        sim.run();
    }

    #[test]
    fn descriptor_lifecycle_and_stats() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        sim.spawn("app", move |p| {
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            let descs = api
                .cudnn_create_descriptors(p, DescriptorKind::Tensor, 100)
                .unwrap();
            assert_eq!(descs.count, 100);
            assert_eq!(api.live_descriptors(), 100);
            api.cudnn_set_descriptors(p, descs).unwrap();
            api.cudnn_destroy_descriptors(p, descs).unwrap();
            assert_eq!(api.live_descriptors(), 0);
        });
        sim.run();
    }

    #[test]
    fn cudnn_create_costs_full_latency_natively() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        sim.spawn("app", move |p| {
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            api.runtime_init(p).unwrap();
            let t0 = p.now();
            let hdl = api.cudnn_create(p).unwrap();
            assert!(p.now().since(t0).as_secs_f64() >= 1.2);
            let t1 = p.now();
            let b = api.cublas_create(p).unwrap();
            assert!(p.now().since(t1).as_secs_f64() >= 0.2);
            api.cudnn_destroy(p, hdl).unwrap();
            api.cublas_destroy(p, b).unwrap();
        });
        sim.run();
    }
}
