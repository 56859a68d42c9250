//! Property-based tests of the remoting layer: the paper's central
//! transparency claim (C1) as a property — *no optimization configuration
//! may change observable results*, only timing.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{
    CostTable, CudaApi, CudaContext, GpuSession, HostBuf, KernelArgs, KernelCost, KernelDef,
    LaunchConfig, ModuleRegistry, NativeCuda,
};
use dgsf_gpu::{Gpu, GpuId, MB};
use dgsf_remoting::{Dispatcher, NetLink, NetProfile, OptConfig, RemoteCuda, RpcClient, RpcInbox};
use dgsf_sim::{Sim, SimCell};
use proptest::prelude::*;

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(ModuleRegistry::new().with(KernelDef::functional(
        "affine",
        KernelCost::Fixed(0.0005),
        |view, _c, args| {
            let n = args.scalars[0] as usize;
            let scale = f32::from_bits(args.scalars[1] as u32);
            let bias = f32::from_bits(args.scalars[2] as u32);
            let v = view.read_f32s(args.ptrs[0], n);
            let out: Vec<f32> = v.iter().map(|x| x * scale + bias).collect();
            view.write_f32s(args.ptrs[0], &out);
        },
    )))
}

/// Run the pipeline natively and return the resulting floats.
fn run_native(data: &[f32], steps: &[(f32, f32)]) -> Vec<f32> {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o = out.clone();
    let data = data.to_vec();
    let steps = steps.to_vec();
    sim.spawn("native", move |p| {
        let gpu = Gpu::v100(&h, GpuId(0));
        let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
        *o.lock() = Some(drive(&mut api, p, &data, &steps));
    });
    sim.run();
    let r = out.lock().take().unwrap();
    r
}

/// Run the same pipeline through the remoting stack under `opts`.
fn run_remote(data: &[f32], steps: &[(f32, f32)], opts: OptConfig) -> Vec<f32> {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let gpu = Gpu::v100(&h, GpuId(0));
    let link = NetLink::new(&h, NetProfile::datacenter());
    let (client, inbox) = RpcClient::connect(&h, link.clone());
    let reg = registry();
    let h2 = h.clone();
    sim.spawn("server", move |p| {
        let costs = Arc::new(CostTable::default());
        let ctx = CudaContext::create(p, &h2, gpu, costs, false).unwrap();
        let session = GpuSession::new(&h2, ctx, None);
        let mut d = Dispatcher::new(session, reg);
        while let Some(env) = inbox.next(p) {
            let req = RpcInbox::decode(&env).unwrap();
            let resp = d.handle(p, req, env.repeat);
            inbox.respond(p, &link, &env, &resp);
        }
    });
    let out = Rc::new(SimCell::new(&h, None));
    let o = out.clone();
    let data = data.to_vec();
    let steps = steps.to_vec();
    sim.spawn("guest", move |p| {
        let mut api = RemoteCuda::new(client, opts);
        *o.lock() = Some(drive(&mut api, p, &data, &steps));
        api.finish(p).unwrap();
    });
    sim.run();
    let r = out.lock().take().unwrap();
    r
}

/// The application trace: upload, run a chain of affine kernels, read back.
fn drive(
    api: &mut dyn CudaApi,
    p: &dgsf_sim::ProcCtx,
    data: &[f32],
    steps: &[(f32, f32)],
) -> Vec<f32> {
    api.runtime_init(p).unwrap();
    api.register_module(p, registry()).unwrap();
    let buf = api.malloc(p, 2 * MB).unwrap();
    api.memcpy_h2d(p, buf, HostBuf::from_f32s(data)).unwrap();
    for (scale, bias) in steps {
        api.launch_kernel(
            p,
            "affine",
            LaunchConfig::linear(data.len() as u64, 128),
            KernelArgs {
                ptrs: vec![buf],
                scalars: vec![
                    data.len() as u64,
                    scale.to_bits() as u64,
                    bias.to_bits() as u64,
                ],
                ..Default::default()
            },
        )
        .unwrap();
    }
    api.device_synchronize(p).unwrap();
    api.memcpy_d2h(p, buf, data.len() as u64 * 4, true)
        .unwrap()
        .to_f32s()
        .unwrap()
}

fn opt_config() -> impl Strategy<Value = OptConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..16,
    )
        .prop_map(|(a, b, c, d, e, t)| OptConfig {
            pooled_runtime: a,
            pooled_handles: b,
            descriptor_pools: c,
            batching: d,
            localization: e,
            batch_flush_threshold: t,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// C1 as a property: any combination of optimization layers produces
    /// bit-identical results to native execution.
    #[test]
    fn transparency_holds_for_every_opt_config(
        data in proptest::collection::vec(-100.0f32..100.0, 1..64),
        steps in proptest::collection::vec((-2.0f32..2.0, -5.0f32..5.0), 1..6),
        opts in opt_config(),
    ) {
        let native = run_native(&data, &steps);
        let remote = run_remote(&data, &steps, opts);
        prop_assert_eq!(native, remote, "opts {:?} changed results", opts);
    }
}
