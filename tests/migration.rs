//! Integration tests of VA-preserving live migration through the full
//! stack (guest → wire → API server → session → GPUs), plus the monitor's
//! imbalance-driven migration policy.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::cuda::{
    CudaApi, HostBuf, KernelArgs, KernelCost, KernelDef, LaunchConfig, ModuleRegistry,
};
use dgsf::gpu::{GpuId, MB};
use dgsf::prelude::*;
use dgsf::remoting::{FaultPlan, RemoteCuda};
use dgsf::server::GpuServer;
use dgsf::sim::{Sim, SimCell};

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(
        ModuleRegistry::new()
            .with(KernelDef::timed("spin"))
            .with(KernelDef::functional(
                "add_one",
                KernelCost::Fixed(0.001),
                |view, _c, args| {
                    let n = args.scalars[0] as usize;
                    let v = view.read_f32s(args.ptrs[0], n);
                    let out: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
                    view.write_f32s(args.ptrs[0], &out);
                },
            )),
    )
}

#[test]
fn forced_migration_is_invisible_to_the_function() {
    let mut sim = Sim::new(2);
    let tel = sim.telemetry();
    tel.enable();
    let h = sim.handle();
    let checked: Rc<SimCell<Option<(u64, usize)>>> = Rc::new(SimCell::new(&h, None));
    let c2 = checked.clone();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
        let (client, _) = server.request_gpu(p, "f", 1024 * MB, registry());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry()).unwrap();

        let buf = api.malloc(p, 32 * MB).unwrap();
        api.memcpy_h2d(p, buf, HostBuf::from_f32s(&[10.0, 20.0, 30.0]))
            .unwrap();
        let args = KernelArgs {
            ptrs: vec![buf],
            scalars: vec![3],
            ..Default::default()
        };
        // increment once on GPU 0…
        api.launch_kernel(p, "add_one", LaunchConfig::linear(3, 32), args.clone())
            .unwrap();
        api.device_synchronize(p).unwrap();

        let ptr_before = buf;
        server.force_migration(0, GpuId(1));
        // …and once after the (transparent) migration on GPU 1.
        api.launch_kernel(p, "add_one", LaunchConfig::linear(3, 32), args)
            .unwrap();
        api.device_synchronize(p).unwrap();

        assert_eq!(server.server_current_gpu(0), GpuId(1));
        let out = api.memcpy_d2h(p, ptr_before, 12, true).unwrap();
        assert_eq!(out.to_f32s().unwrap(), vec![12.0, 22.0, 32.0]);

        let migs = server.migrations();
        assert_eq!(migs.len(), 1);
        assert!(migs[0].report.bytes_moved >= 32 * MB);
        assert!(migs[0].report.total > Dur::ZERO);
        api.finish(p).unwrap();
        *c2.lock() = Some((migs[0].report.bytes_moved, migs[0].report.allocs_moved));
    });
    sim.run();
    let (bytes_moved, allocs_moved) = checked.lock().expect("function ran to completion");

    // Trace oracle: exactly one migration event, agreeing field-for-field
    // with the migration record the server kept.
    assert_eq!(tel.counter("migrations"), 1);
    let events = tel.instants();
    let migration_events: Vec<_> = events.iter().filter(|e| e.name == "migration").collect();
    assert_eq!(migration_events.len(), 1, "exactly one migration event");
    let arg = |k: &str| -> &str {
        migration_events[0]
            .args
            .iter()
            .find(|(a, _)| a == k)
            .map(|(_, v)| v.as_str())
            .expect("migration event carries all args")
    };
    assert_eq!(arg("from"), "0");
    assert_eq!(arg("to"), "1");
    assert_eq!(arg("bytes_moved"), bytes_moved.to_string());
    assert_eq!(arg("allocs_moved"), allocs_moved.to_string());
}

#[test]
fn migration_respects_target_capacity() {
    // A forced migration to a GPU that cannot hold the session's memory
    // must be skipped, leaving the function unharmed.
    let mut sim = Sim::new(2);
    let h = sim.handle();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
        // Hog GPU 1 so nothing fits.
        let hog = server.gpus[1]
            .reserve(server.gpus[1].free_mem() - MB)
            .unwrap();
        let (client, _) = server.request_gpu(p, "f", 2048 * MB, registry());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry()).unwrap();
        let buf = api.malloc(p, 1024 * MB).unwrap();
        api.memcpy_h2d(p, buf, HostBuf::Bytes(vec![9u8; 64].into()))
            .unwrap();
        server.force_migration(0, GpuId(1));
        api.device_synchronize(p).unwrap(); // boundary: migration attempted
        assert_eq!(server.server_current_gpu(0), GpuId(0), "migration skipped");
        assert!(server.migrations().is_empty());
        let out = api.memcpy_d2h(p, buf, 64, true).unwrap();
        assert_eq!(out, HostBuf::Bytes(vec![9u8; 64].into()));
        api.finish(p).unwrap();
        server.gpus[1].release(hog);
    });
    sim.run();
}

#[test]
fn monitor_fixes_the_fig8_imbalance() {
    // The §VIII-E scenario in miniature: best-fit packs two long functions
    // onto one GPU; when the other empties, the monitor migrates one over
    // and the makespan improves versus no-migration.
    let run = |migration: bool| {
        let mut sim = Sim::new(4);
        let h = sim.handle();
        // (makespan in seconds, long functions finished): the makespan is
        // when the last long function returned.
        let makespan = Rc::new(SimCell::new(&h, (0.0f64, 0usize)));
        let server_out: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
        let (m2, s2) = (Rc::clone(&makespan), Rc::clone(&server_out));
        sim.spawn("root", move |p| {
            let server = GpuServer::provision(
                p,
                &h,
                GpuServerConfig::paper_default()
                    .gpus(2)
                    .sharing(2)
                    .with_policy(PlacementPolicy::BestFit)
                    .with_migration(migration),
            );
            for i in 0..2 {
                let server = Arc::clone(&server);
                let makespan = Rc::clone(&m2);
                h.spawn(&format!("long{i}"), move |p| {
                    let (client, _) = server.request_gpu(p, "long", 2048 * MB, registry());
                    let mut api = RemoteCuda::new(client, OptConfig::full());
                    api.runtime_init(p).unwrap();
                    api.register_module(p, registry()).unwrap();
                    for _ in 0..60 {
                        api.launch_kernel(
                            p,
                            "spin",
                            LaunchConfig::linear(1, 32),
                            KernelArgs::timed(0.25, 0),
                        )
                        .unwrap();
                        api.device_synchronize(p).unwrap();
                    }
                    api.finish(p).unwrap();
                    let mut m = makespan.borrow_in(p);
                    m.0 = m.0.max(p.now().as_secs_f64());
                    m.1 += 1;
                });
            }
            *s2.borrow_in(p) = Some(server);
        });
        sim.run();
        let server = server_out
            .lock()
            .take()
            .expect("the root provisioned the server");
        let (makespan, finished) = *makespan.lock();
        assert_eq!(finished, 2, "both long functions returned");
        (makespan, server.migrations().len())
    };
    let (t_none, m_none) = run(false);
    let (t_mig, m_mig) = run(true);
    assert_eq!(m_none, 0);
    assert!(m_mig >= 1, "monitor migrated at least once");
    assert!(
        t_mig < t_none * 0.8,
        "migration should fix the imbalance: {t_mig:.1}s vs {t_none:.1}s"
    );
}

#[test]
fn repeat_migration_charges_each_context_at_most_once() {
    // Migration contexts are created lazily, once per (server, GPU) pair
    // (§V-B): a server bouncing between the same two GPUs reuses the
    // context from its first visit. The memory the monitor places by must
    // match — count the 303 MB context footprint once, from the *first*
    // arrival on. This test pins that with a placement probe sized to fit
    // GPU 1 exactly iff the context was charged once: double-charging would
    // shrink availability below the probe and starve it.
    let mut sim = Sim::new(3);
    let h = sim.handle();
    let probe_ok = Rc::new(SimCell::new(&h, None));
    let p2 = probe_ok.clone();
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(2)
            .with_queue_timeout(Dur::from_secs(1));
        let idle_fp = cfg.costs.idle_worker_mem();
        let ctx_fp = cfg.costs.cuda_ctx_mem;
        let server = GpuServer::provision(p, &h, cfg);
        let total = server.gpus[1].total_mem();

        // The holder occupies server 0 (home GPU 0) for ~3.5 s, giving the
        // conductor migration boundaries (device_synchronize) to hit.
        let s2 = Arc::clone(&server);
        h.spawn("holder", move |p| {
            let (client, _) = s2.request_gpu(p, "holder", 1024 * MB, registry());
            let mut api = RemoteCuda::new(client, OptConfig::full());
            api.runtime_init(p).unwrap();
            api.register_module(p, registry()).unwrap();
            for _ in 0..20 {
                api.launch_kernel(
                    p,
                    "spin",
                    LaunchConfig::linear(1, 32),
                    KernelArgs::timed(0.25, 0),
                )
                .unwrap();
                api.device_synchronize(p).unwrap();
            }
            api.finish(p).unwrap();
        });

        // Bounce server 0 between the GPUs: GPU 1 is visited twice, but
        // its migration context must be charged exactly once.
        let s3 = Arc::clone(&server);
        h.spawn("conductor", move |p| {
            for target in [GpuId(1), GpuId(0), GpuId(1), GpuId(0)] {
                p.sleep(Dur::from_millis(500));
                s3.force_migration(0, target);
            }
        });

        // Probe at t = 3.2 s: the bounce is over, server 0 is back home on
        // GPU 0 and still busy, so only server 1 (GPU 1) can take this. It
        // fits exactly when GPU 1 carries idle_fp + one ctx_fp of overhead
        // — a double charge starves it past its queue timeout.
        let s4 = Arc::clone(&server);
        let p3 = p2.clone();
        h.spawn_at("probe", SimTime::ZERO + Dur::from_millis(3200), move |p| {
            let probe_mem = total - idle_fp - ctx_fp;
            match s4.try_request_gpu(p, "probe", probe_mem, registry(), 1) {
                Ok((client, _)) => {
                    let mut api = RemoteCuda::new(client, OptConfig::full());
                    api.runtime_init(p).unwrap();
                    api.register_module(p, registry()).unwrap();
                    api.launch_kernel(
                        p,
                        "spin",
                        LaunchConfig::linear(1, 32),
                        KernelArgs::timed(0.1, 0),
                    )
                    .unwrap();
                    api.device_synchronize(p).unwrap();
                    api.finish(p).unwrap();
                    assert_eq!(s4.server_current_gpu(1), GpuId(1));
                    *p3.lock() = Some(true);
                }
                Err(_) => *p3.lock() = Some(false),
            }
        });
    });
    sim.run();
    assert_eq!(
        probe_ok.lock().take(),
        Some(true),
        "the probe must fit GPU 1: repeat migrations may not re-charge the \
         303 MB context footprint"
    );
}

#[test]
fn an_aborted_migration_still_counts_its_context_on_the_target() {
    // A migration creates its context on the target before the state
    // transfer; when the transfer is dropped the migration aborts, but the
    // 303 MB context stays. The monitor must place by it: B asks for more
    // than GPU 1 really has left, so it may not land on server 1 (GPU 1)
    // and must wait for server 0 (GPU 0), which A holds.
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let b_malloc = Rc::new(SimCell::new(&h, None));
    let b_out = Rc::clone(&b_malloc);
    let server_out: Rc<SimCell<Option<Arc<GpuServer>>>> = Rc::new(SimCell::new(&h, None));
    let s_out = Rc::clone(&server_out);
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default()
            .gpus(2)
            .with_faults(FaultPlan::new(0).drop_migration(0));
        let ctx_fp = cfg.costs.cuda_ctx_mem;
        let idle_fp = cfg.costs.idle_worker_mem();
        let server = GpuServer::provision(p, &h, cfg);

        let s2 = Arc::clone(&server);
        h.spawn("a", move |p| {
            let (client, _) = s2.request_gpu(p, "a", 64 * MB, registry());
            let mut api = RemoteCuda::new(client, OptConfig::full());
            api.runtime_init(p).unwrap();
            api.register_module(p, registry()).unwrap();
            s2.force_migration(0, GpuId(1));
            api.device_synchronize(p).unwrap(); // boundary: migration aborts
            api.launch_kernel(
                p,
                "spin",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(1.0, 0),
            )
            .unwrap();
            api.device_synchronize(p).unwrap();
            api.finish(p).unwrap();
        });

        let s3 = Arc::clone(&server);
        h.spawn_at("b", SimTime::ZERO + Dur::from_millis(500), move |p| {
            // The abort left server 0 home and its context on GPU 1.
            assert_eq!(s3.server_current_gpu(0), GpuId(0));
            assert!(s3.migrations().is_empty(), "the migration aborted");
            assert_eq!(s3.gpus[1].used_mem(), idle_fp + ctx_fp);
            let need = s3.gpus[1].free_mem() + 100 * MB;
            let (client, _) = s3.request_gpu(p, "b", need, registry());
            let mut api = RemoteCuda::new(client, OptConfig::full());
            api.runtime_init(p).unwrap();
            api.register_module(p, registry()).unwrap();
            *b_out.borrow_in(p) = Some(api.malloc(p, need).is_ok());
            api.finish(p).unwrap();
        });
        *s_out.borrow_in(p) = Some(server);
    });
    sim.run();
    assert_eq!(
        b_malloc.lock().take(),
        Some(true),
        "B must wait for server 0 instead of being placed on GPU 1, which \
         cannot hold it next to the aborted migration's context"
    );
    let server = server_out.lock().take().expect("the root provisioned it");
    let records = server.records();
    let (a, b) = (&records[0], &records[1]);
    assert_eq!((b.name.as_str(), b.server), ("b", Some(0)));
    assert!(
        a.done_at.is_some() && b.assigned_at >= a.done_at,
        "B waited for A to leave server 0"
    );
    dgsf::check_memory_balance(&server, true).assert_ok();
}

#[test]
fn table_v_shape_holds() {
    // max(stop, copy): small arrays pay ~the stop floor, large arrays are
    // copy-dominated and scale linearly.
    let rows = |mb: u64| {
        let w = Arc::new(dgsf::workloads::SyntheticMigration::mb(mb));
        let cfg = PlatformConfig::paper_default();
        let dynw: Arc<dyn Workload> = w as Arc<dyn Workload>;
        Testbed::run_dgsf_once(&cfg, dynw).e2e().as_secs_f64()
    };
    // plain DGSF e2e is tiny compared to native's 3+ s
    assert!(rows(323) < 0.3);
    assert!(rows(13194) < 0.6);
}
