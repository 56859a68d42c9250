//! Multi-stream semantics through the full stack: per-stream ordering,
//! cross-stream overlap, stream-scoped synchronization, and stream
//! stability across live migration.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::cuda::{
    CudaApi, HostBuf, KernelArgs, KernelCost, KernelDef, LaunchConfig, ModuleRegistry,
};
use dgsf::gpu::{GpuId, MB};
use dgsf::prelude::*;
use dgsf::remoting::RemoteCuda;
use dgsf::server::GpuServer;
use dgsf::sim::{Sim, SimCell};

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(
        ModuleRegistry::new()
            .with(KernelDef::timed("spin"))
            .with(KernelDef::functional(
                "append",
                KernelCost::Fixed(0.001),
                |view, _c, args| {
                    // read counter at ptr[0], write marker at slot, bump counter
                    let p = args.ptrs[0];
                    let counter = view.read_f32s(p, 1)[0] as u64;
                    view.write_f32s(
                        dgsf::cuda::DevPtr(p.0 + 4 + counter * 4),
                        &[args.scalars[0] as f32],
                    );
                    view.write_f32s(p, &[(counter + 1) as f32]);
                },
            )),
    )
}

/// Drive a body against a one-GPU server through the remoting stack and
/// return what it returned.
fn with_remote<R: 'static>(
    seed: u64,
    body: impl FnOnce(&dgsf::sim::ProcCtx, &mut RemoteCuda) -> R + 'static,
) -> R {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o = Rc::clone(&out);
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
        let (client, _) = server.request_gpu(p, "streams", 1024 * MB, registry());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry()).unwrap();
        let r = body(p, &mut api);
        api.finish(p).unwrap();
        *o.lock() = Some(r);
    });
    sim.run();
    let r = out.lock().take().expect("the body ran");
    r
}

#[test]
fn same_stream_is_ordered_different_streams_overlap() {
    let (t_a, t_all) = with_remote(1, move |p, api| {
        let a = api.stream_create(p).unwrap();
        let b = api.stream_create(p).unwrap();
        let t0 = p.now();
        // A: short kernel; B: long kernel — submitted together.
        api.launch_kernel_on(
            p,
            a,
            "spin",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(0.5, 0),
        )
        .unwrap();
        api.launch_kernel_on(
            p,
            b,
            "spin",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(2.0, 0),
        )
        .unwrap();
        api.stream_synchronize(p, a).unwrap();
        let t_a = p.now().since(t0).as_secs_f64();
        api.device_synchronize(p).unwrap();
        let t_all = p.now().since(t0).as_secs_f64();
        (t_a, t_all)
    });
    // GPS: A runs at half speed while B is active → done ≈ 1.0 s, not 2.5 s
    // (which is what in-order same-stream execution would give).
    assert!(
        (0.9..1.3).contains(&t_a),
        "short stream finishes early under overlap: {t_a}"
    );
    assert!(
        (2.4..2.7).contains(&t_all),
        "total ≈ 2.5 s of work: {t_all}"
    );
    assert!(
        t_a < t_all - 1.0,
        "stream sync must not wait for the other stream"
    );
}

#[test]
fn per_stream_ordering_is_preserved() {
    let v = with_remote(2, move |p, api| {
        let s = api.stream_create(p).unwrap();
        let buf = api.malloc(p, 4 * MB).unwrap();
        api.memcpy_h2d(p, buf, HostBuf::from_f32s(&[0.0; 8]))
            .unwrap();
        for tag in [11u64, 22, 33] {
            api.launch_kernel_on(
                p,
                s,
                "append",
                LaunchConfig::linear(1, 32),
                KernelArgs {
                    ptrs: vec![buf],
                    scalars: vec![tag],
                    ..Default::default()
                },
            )
            .unwrap();
        }
        api.stream_synchronize(p, s).unwrap();
        let data = api.memcpy_d2h(p, buf, 16, true).unwrap();
        data.to_f32s().unwrap()
    });
    assert_eq!(v, vec![3.0, 11.0, 22.0, 33.0], "in-order within a stream");
}

#[test]
fn streams_survive_migration() {
    let mut sim = Sim::new(3);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o = out.clone();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
        let (client, _) = server.request_gpu(p, "mig-streams", 1024 * MB, registry());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry()).unwrap();
        let s = api.stream_create(p).unwrap();
        let buf = api.malloc(p, 4 * MB).unwrap();
        api.memcpy_h2d(p, buf, HostBuf::from_f32s(&[0.0; 8]))
            .unwrap();
        let launch = |api: &mut RemoteCuda, p: &dgsf::sim::ProcCtx, tag: u64| {
            api.launch_kernel_on(
                p,
                s,
                "append",
                LaunchConfig::linear(1, 32),
                KernelArgs {
                    ptrs: vec![buf],
                    scalars: vec![tag],
                    ..Default::default()
                },
            )
            .unwrap();
        };
        launch(&mut api, p, 1);
        api.stream_synchronize(p, s).unwrap();
        server.force_migration(0, GpuId(1));
        // next call crosses the boundary → migration; the same client
        // stream handle must keep working on the new GPU.
        launch(&mut api, p, 2);
        api.stream_synchronize(p, s).unwrap();
        assert_eq!(server.server_current_gpu(0), GpuId(1));
        let data = api.memcpy_d2h(p, buf, 12, true).unwrap();
        *o.lock() = data.to_f32s().unwrap();
        api.finish(p).unwrap();
    });
    sim.run();
    assert_eq!(
        *out.lock(),
        vec![2.0, 1.0, 2.0],
        "both appends landed in order"
    );
}

#[test]
fn invalid_stream_launch_is_rejected() {
    with_remote(4, move |p, api| {
        let err = api
            .launch_kernel_on(
                p,
                dgsf::cuda::StreamHandle(0xdead),
                "spin",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(0.1, 0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            dgsf::cuda::CudaError::InvalidResourceHandle(_)
        ));
    });
}

#[test]
fn event_record_marks_a_point_in_stream_order() {
    let (t_event, t_all) = with_remote(5, move |p, api| {
        let e = api.event_create(p).unwrap();
        let t0 = p.now();
        // 1 s of work, then the event marker, then 2 s more work.
        api.launch_kernel(
            p,
            "spin",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(1.0, 0),
        )
        .unwrap();
        api.event_record(p, e).unwrap();
        api.launch_kernel(
            p,
            "spin",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(2.0, 0),
        )
        .unwrap();
        api.event_synchronize(p, e).unwrap();
        let t_event = p.now().since(t0).as_secs_f64();
        api.device_synchronize(p).unwrap();
        let t_all = p.now().since(t0).as_secs_f64();
        (t_event, t_all)
    });
    assert!(
        (0.9..1.4).contains(&t_event),
        "event fires after the first kernel only: {t_event}"
    );
    assert!((2.9..3.3).contains(&t_all), "full drain ≈ 3 s: {t_all}");
}

#[test]
fn unrecorded_event_is_complete_and_double_sync_is_instant() {
    with_remote(6, move |p, api| {
        let e = api.event_create(p).unwrap();
        let t0 = p.now();
        api.event_synchronize(p, e).unwrap(); // never recorded: complete
        api.launch_kernel(
            p,
            "spin",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(1.0, 0),
        )
        .unwrap();
        api.event_record(p, e).unwrap();
        api.event_synchronize(p, e).unwrap();
        let first = p.now().since(t0).as_secs_f64();
        api.event_synchronize(p, e).unwrap(); // already completed
        let second = p.now().since(t0).as_secs_f64();
        assert!(
            (0.9..1.4).contains(&first),
            "first sync waits the kernel: {first}"
        );
        assert!(second - first < 0.05, "second sync is instant");
    });
}

/// One native run of 4 streams × 3 rounds of launch + device-wide sync.
fn multi_stream_sync_run() -> (u64, dgsf::sim::SimTime) {
    let mut sim = Sim::new(3);
    let h = sim.handle();
    let gpu = dgsf::gpu::Gpu::v100(&h, GpuId(0));
    sim.spawn("app", move |p| {
        let costs = Arc::new(dgsf::cuda::CostTable::default());
        let mut api = dgsf::cuda::NativeCuda::new(&h, gpu, costs);
        api.register_module(p, registry()).unwrap();
        let streams: Vec<_> = (0..4).map(|_| api.stream_create(p).unwrap()).collect();
        for round in 0..3u32 {
            for (i, &s) in streams.iter().enumerate() {
                let secs = 0.01 * f64::from(1 + (i as u32 + round) % 4);
                api.launch_kernel_on(
                    p,
                    s,
                    "spin",
                    LaunchConfig::linear(1, 32),
                    KernelArgs::timed(secs, 0),
                )
                .unwrap();
            }
            api.device_synchronize(p).unwrap();
        }
    });
    let end = sim.run();
    (sim.events_executed(), end)
}

#[test]
fn multi_stream_device_sync_replays_exactly() {
    // `cudaDeviceSynchronize` visits every stream's executor; the order it
    // visits them in reaches the event count, so it must not depend on
    // anything but the inputs (a hash map's per-process seed, say).
    let first = multi_stream_sync_run();
    for _ in 0..40 {
        assert_eq!(multi_stream_sync_run(), first, "same seed, same run");
    }
}
