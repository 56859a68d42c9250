//! # dgsf-remoting — API remoting specialized for serverless
//!
//! The transport half of DGSF (paper §V): a length-framed binary wire
//! protocol ([`wire`]), a contended network model ([`NetLink`]), an RPC
//! transport ([`RpcClient`]/[`RpcInbox`]), the guest interposition library
//! ([`RemoteCuda`]) with the serverless specializations the paper ablates
//! (context/handle pooling, guest-side descriptor pools, batching, API
//! elision — [`OptConfig`]), and the server-side request [`Dispatcher`].
//!
//! End-to-end, a workload written against `dyn CudaApi` runs over this path
//! with real serialization (every frame is encoded and decoded) and
//! simulated wire time.

#![warn(missing_docs)]

mod dispatch;
mod faults;
mod guest;
mod net;
mod transport;
pub mod wire;

pub use dispatch::{Dispatcher, ServerStats};
pub use faults::{FaultPlan, FaultStats, LinkFaults, MsgFate};
pub use guest::{OptConfig, RemoteCuda};
pub use net::{Delivery, Direction, NetLink, NetProfile};
pub use transport::{RpcClient, RpcEnvelope, RpcInbox, TransportError};

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{
        CostTable, CudaApi, CudaContext, DevPtr, GpuSession, HostBuf, KernelArgs, KernelCost,
        KernelDef, LaunchConfig, LibOp, ModuleRegistry,
    };
    use dgsf_gpu::{Gpu, GpuId, MB};
    use dgsf_sim::{Dur, Sim, SimCell};
    use std::rc::Rc;
    use std::sync::Arc;

    /// Spin up a one-GPU API server process and return a connected guest.
    fn serve(
        sim: &Sim,
        registry: Arc<ModuleRegistry>,
        opts: OptConfig,
    ) -> Rc<SimCell<Option<RemoteCuda>>> {
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        let link = NetLink::new(&h, NetProfile::datacenter());
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        let h2 = h.clone();
        sim.spawn("api-server", move |p| {
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(p, &h2, gpu, costs, false).unwrap();
            let session = GpuSession::new(&h2, ctx, None);
            let mut d = Dispatcher::new(session, registry);
            while let Some(env) = inbox.next(p) {
                let req = RpcInbox::decode(&env).unwrap();
                let resp = d.handle(p, req, env.repeat);
                inbox.respond(p, &link, &env, &resp);
            }
        });
        Rc::new(SimCell::new(&h, Some(RemoteCuda::new(client, opts))))
    }

    fn functional_registry() -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::functional(
            "scale2",
            KernelCost::Fixed(0.001),
            |view, _c, args| {
                let n = args.scalars[0] as usize;
                let v = view.read_f32s(args.ptrs[0], n);
                let out: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
                view.write_f32s(args.ptrs[0], &out);
            },
        )))
    }

    #[test]
    fn functional_workload_runs_identically_over_the_wire() {
        let mut sim = Sim::new(7);
        let api = serve(&sim, functional_registry(), OptConfig::full());
        let out = Rc::new(SimCell::new(&sim.handle(), None));
        let o = out.clone();
        let registry = functional_registry();
        sim.spawn("guest", move |p| {
            let mut api = api.lock().take().unwrap();
            api.runtime_init(p).unwrap();
            api.register_module(p, registry).unwrap();
            assert_eq!(api.get_device_count(p).unwrap(), 1);
            let buf = api.malloc(p, MB).unwrap();
            api.memcpy_h2d(p, buf, HostBuf::from_f32s(&[1.0, 2.0, 3.0, 4.0]))
                .unwrap();
            api.launch_kernel(
                p,
                "scale2",
                LaunchConfig::linear(4, 32),
                KernelArgs {
                    ptrs: vec![buf],
                    scalars: vec![4],
                    ..Default::default()
                },
            )
            .unwrap();
            api.device_synchronize(p).unwrap();
            let back = api.memcpy_d2h(p, buf, 16, true).unwrap();
            api.finish(p).unwrap();
            *o.lock() = Some((back.to_f32s().unwrap(), api.stats()));
        });
        sim.run();
        let (vals, stats) = out.lock().take().unwrap();
        assert_eq!(vals, vec![2.0, 4.0, 6.0, 8.0]);
        assert!(stats.remoted_calls > 0);
        assert!(stats.kernel_launches == 1);
    }

    #[test]
    fn optimizations_reduce_forwarded_calls() {
        // The same call sequence under no-opts vs full opts: the full
        // configuration must forward dramatically fewer calls — the §V-C
        // claim (up to 48 % / 96 % fewer forwarded APIs).
        let run = |opts: OptConfig| {
            let mut sim = Sim::new(7);
            let api = serve(&sim, functional_registry(), opts);
            let stats_out = Rc::new(SimCell::new(&sim.handle(), None));
            let so = stats_out.clone();
            let registry = functional_registry();
            sim.spawn("guest", move |p| {
                let mut api = api.lock().take().unwrap();
                api.runtime_init(p).unwrap();
                api.register_module(p, registry).unwrap();
                let dnn = api.cudnn_create(p).unwrap();
                let descs = api
                    .cudnn_create_descriptors(p, dgsf_cuda::DescriptorKind::Tensor, 200)
                    .unwrap();
                api.cudnn_set_descriptors(p, descs).unwrap();
                for _ in 0..10 {
                    api.cudnn_op(
                        p,
                        dnn,
                        LibOp {
                            work: 0.001,
                            bytes: 0,
                            api_calls: 50,
                            elidable_calls: 48,
                        },
                    )
                    .unwrap();
                }
                api.device_synchronize(p).unwrap();
                api.finish(p).unwrap();
                *so.lock() = Some((api.stats(), p.now()));
            });
            sim.run();
            let r = stats_out.lock().take().unwrap();
            r
        };
        let (none, t_none) = run(OptConfig::none());
        let (full, t_full) = run(OptConfig::full());
        assert_eq!(none.issued_calls, full.issued_calls, "same app trace");
        assert!(
            full.remoted_calls * 5 < none.remoted_calls,
            "full opts forward far fewer calls: {} vs {}",
            full.remoted_calls,
            none.remoted_calls
        );
        assert!(full.forwarding_reduction() > 0.8);
        assert!(
            t_full < t_none,
            "optimizations reduce wall time: {t_full:?} vs {t_none:?}"
        );
    }

    #[test]
    fn handle_pooling_removes_init_latency_from_critical_path() {
        let run = |opts: OptConfig| {
            let mut sim = Sim::new(7);
            let api = serve(&sim, functional_registry(), opts);
            let out = Rc::new(SimCell::new(&sim.handle(), Dur::ZERO));
            let o = out.clone();
            sim.spawn("guest", move |p| {
                let mut api = api.lock().take().unwrap();
                let t0 = p.now();
                api.runtime_init(p).unwrap();
                let _ = api.cudnn_create(p).unwrap();
                let _ = api.cublas_create(p).unwrap();
                api.finish(p).unwrap();
                *o.lock() = p.now().since(t0);
            });
            sim.run();
            let d = *out.lock();
            d
        };
        let cold = run(OptConfig::none()).as_secs_f64();
        let pooled = run(OptConfig::handle_pools()).as_secs_f64();
        // cold pays 3.2 + 1.2 + 0.2 ≈ 4.6 s; pooled pays only round trips
        assert!(cold > 4.5, "cold start pays full init: {cold}");
        assert!(pooled < 0.1, "pooled start hides init: {pooled}");
    }

    #[test]
    fn adopted_pointer_reads_as_device_memory_with_and_without_localization() {
        // The guest learns only an adopted buffer's pointer, not its size;
        // its answer must still be the server's.
        let run = |opts: OptConfig| {
            let mut sim = Sim::new(7);
            let api = serve(&sim, functional_registry(), opts);
            let out = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
            let o = out.clone();
            sim.spawn("guest", move |p| {
                let mut api = api.lock().take().unwrap();
                api.runtime_init(p).unwrap();
                let mine = api.malloc(p, MB).unwrap();
                let parked = api.malloc(p, MB).unwrap();
                api.publish_buffer(p, 0xAD, parked).unwrap();
                let adopted = api.adopt_buffer(p, 0xAD).unwrap();
                for ptr in [adopted, adopted.offset(4096), mine, DevPtr(0x10)] {
                    let attrs = api.pointer_get_attributes(p, ptr).unwrap();
                    o.lock().push((attrs.is_device, attrs.alloc_size));
                }
                api.finish(p).unwrap();
            });
            sim.run();
            let answers = out.lock().clone();
            answers
        };
        let local = run(OptConfig::full());
        let remote = run(OptConfig {
            localization: false,
            ..OptConfig::full()
        });
        let device = (true, Some(MB));
        assert_eq!(local, vec![device, device, device, (false, None)]);
        assert_eq!(local, remote, "the guest answers as the server does");
    }

    #[test]
    fn unknown_kernel_is_rejected_end_to_end() {
        let mut sim = Sim::new(7);
        let api = serve(&sim, functional_registry(), OptConfig::full());
        sim.spawn("guest", move |p| {
            let mut api = api.lock().take().unwrap();
            api.runtime_init(p).unwrap();
            let err = api
                .register_module(
                    p,
                    Arc::new(ModuleRegistry::new().with(KernelDef::timed("not-deployed"))),
                )
                .unwrap_err();
            assert!(matches!(err, dgsf_cuda::CudaError::InvalidValue(_)));
            api.finish(p).unwrap();
        });
        sim.run();
    }
}
