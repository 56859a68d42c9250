//! End-to-end autoscaler tests: the warm pool grows when queue delay
//! breaches the target, shrinks back to the floor after the idle TTL, and
//! the simulation still terminates (the monitor keeps ticking only while
//! there is work in flight or excess live servers to retire).

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CudaApi, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf_gpu::GB;
use dgsf_remoting::{OptConfig, RemoteCuda};
use dgsf_server::{AutoscaleConfig, GpuServer, GpuServerConfig};
use dgsf_sim::{Dur, ProcCtx, Sim, SimCell, SimTime};

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(ModuleRegistry::new().with(KernelDef::timed("work")))
}

fn hold_gpu(p: &ProcCtx, srv: &GpuServer, name: &str, mem: u64, secs: f64) {
    let (client, _inv) = srv.request_gpu(p, name, mem, registry());
    let mut api = RemoteCuda::new(client, OptConfig::full());
    api.runtime_init(p).unwrap();
    api.register_module(p, registry()).unwrap();
    api.launch_kernel(
        p,
        "work",
        LaunchConfig::linear(1 << 20, 256),
        KernelArgs::timed(secs, 0),
    )
    .unwrap();
    api.device_synchronize(p).unwrap();
    api.finish(p).unwrap();
}

/// A burst of concurrent functions against one GPU with a one-server
/// baseline: the pool must grow (bounded by `max_per_gpu`), serve
/// everything, then shrink back to the floor after the idle TTL — and the
/// sim must terminate on its own.
#[test]
fn pool_grows_under_load_and_shrinks_back_to_the_floor() {
    let mut sim = Sim::new(7);
    let telemetry = sim.telemetry();
    telemetry.enable();
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default().gpus(1).with_autoscale(
                AutoscaleConfig::new(1, 3)
                    .with_target_queue_delay(Dur::from_millis(200))
                    .with_up_ticks(2)
                    .with_idle_ttl(Dur::from_secs(2))
                    .with_cooldown(Dur::from_millis(300)),
            ),
        );
        assert_eq!(srv.pool_size(), 1, "provisioned baseline is the floor");
        // Five 2-second functions land almost together on one GPU: with a
        // single warm server, queue delay breaches the 200 ms target for
        // many consecutive ticks.
        for i in 0..5u64 {
            let srv = Arc::clone(&srv);
            let name = format!("fn-{i}");
            h2.spawn_at(
                &name.clone(),
                SimTime::ZERO + Dur::from_millis(50 * i),
                move |p| hold_gpu(p, &srv, &name, GB, 2.0),
            );
        }
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            // Past all work (≈4-8 s) plus the idle TTL and cooldowns.
            p.sleep(Dur::from_secs(20));
            *o3.lock() = Some((srv.pool_size(), srv.records()));
        });
    });
    sim.run(); // terminating at all proves the monitor disarms
    let (final_pool, recs) = out.lock().take().expect("collector ran");
    assert_eq!(recs.len(), 5);
    assert!(
        recs.iter().all(|r| r.done_at.is_some()),
        "every function completes"
    );
    assert_eq!(final_pool, 1, "pool shrinks back to min_per_gpu");
    let ups = telemetry.counter("autoscale.scale_ups");
    let downs = telemetry.counter("autoscale.scale_downs");
    assert!(ups >= 1, "the burst forces at least one scale-up");
    assert_eq!(ups, downs, "every extra server is eventually retired");
    let peak = telemetry
        .gauge_peak("monitor.pool_size")
        .expect("pool gauge recorded");
    assert!(
        peak > 1 && peak <= 3,
        "peak pool {peak} must exceed the floor and respect max_per_gpu"
    );
}

/// Without queue pressure the autoscaler does nothing: no scale actions,
/// pool pinned at the floor.
#[test]
fn light_load_never_scales() {
    let mut sim = Sim::new(7);
    let telemetry = sim.telemetry();
    telemetry.enable();
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, None));
    let o2 = Rc::clone(&out);
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default()
                .gpus(1)
                .with_autoscale(AutoscaleConfig::new(1, 3)),
        );
        // Strictly sequential arrivals: each finds the warm server free.
        for i in 0..3u64 {
            let srv = Arc::clone(&srv);
            let name = format!("fn-{i}");
            h2.spawn_at(
                &name.clone(),
                SimTime::ZERO + Dur::from_secs(2 * i),
                move |p| hold_gpu(p, &srv, &name, GB, 0.5),
            );
        }
        let o3 = Rc::clone(&o2);
        h2.spawn("collector", move |p| {
            p.sleep(Dur::from_secs(10));
            *o3.lock() = Some(srv.pool_size());
        });
    });
    sim.run();
    assert_eq!(out.lock().take(), Some(1));
    assert_eq!(telemetry.counter("autoscale.scale_ups"), 0);
    assert_eq!(telemetry.counter("autoscale.scale_downs"), 0);
}

/// Scale-up charges the full 755 MB idle footprint, so the memory ceiling
/// binds before `max_per_gpu` when the GPU is nearly full: a workload that
/// pins most of GPU memory leaves no room for extra warm servers.
#[test]
fn scale_up_respects_the_memory_ceiling() {
    let mut sim = Sim::new(7);
    let telemetry = sim.telemetry();
    telemetry.enable();
    let h = sim.handle();
    let costs = GpuServerConfig::paper_default().costs.clone();
    let idle_fp = costs.idle_worker_mem();
    let h2 = h.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h2,
            GpuServerConfig::paper_default().gpus(1).with_autoscale(
                AutoscaleConfig::new(1, 4)
                    .with_target_queue_delay(Dur::from_millis(200))
                    .with_up_ticks(2)
                    .with_cooldown(Dur::from_millis(300)),
            ),
        );
        // The holder pins all memory the baseline pool leaves free, minus
        // room for exactly one more 755 MB warm server.
        let total = 16 * GB;
        let holder_mem = total - idle_fp - idle_fp - GB / 2;
        let s2 = Arc::clone(&srv);
        h2.spawn("holder", move |p| {
            hold_gpu(p, &s2, "holder", holder_mem, 3.0)
        });
        // Queued behind the holder: enough pressure to want several
        // scale-ups, but memory only allows one.
        for i in 0..3u64 {
            let srv = Arc::clone(&srv);
            let name = format!("queued-{i}");
            h2.spawn_at(
                &name.clone(),
                SimTime::ZERO + Dur::from_millis(100 + 50 * i),
                move |p| hold_gpu(p, &srv, &name, GB / 4, 0.5),
            );
        }
    });
    sim.run();
    let peak = telemetry
        .gauge_peak("monitor.pool_size")
        .expect("pool gauge recorded");
    assert!(
        peak <= 2,
        "peak pool {peak}: only one extra 755 MB server fits"
    );
}
