//! # dgsf-server — the disaggregated GPU server
//!
//! "A GPU server is defined as a disaggregated GPU machine: it contains
//! GPUs and a few CPUs and exclusively handles incoming API remoting"
//! (paper §IV). This crate provides:
//!
//! * [`GpuServer::provision`] — the manager: builds the simulated GPUs,
//!   pre-initializes per-API-server CUDA contexts and cuDNN/cuBLAS handle
//!   pools (the 755 MB idle footprint), and spawns everything;
//! * the **monitor** — tracks per-GPU memory commitments and utilization,
//!   assigns functions to idle API servers (best-fit / worst-fit, strict
//!   FCFS queue), and triggers live migration on load imbalance;
//! * **API server** processes — one function at a time, served through
//!   `dgsf-remoting`'s dispatcher, migratable at API-call boundaries;
//! * **failure recovery** — busy API servers heartbeat the monitor; a
//!   server silent past its lease (e.g. killed by a
//!   [`dgsf_remoting::FaultPlan`]) is declared dead, its memory commitment
//!   released and its invocation failed over so the serverless layer can
//!   retry on another server.

#![warn(missing_docs)]

mod api_server;
mod autoscale;
mod config;
pub mod fairqueue;
mod monitor;
pub mod policy;
mod server;

pub use api_server::{ApiServerShared, MigrationRecord};
pub use autoscale::{AutoscaleConfig, Autoscaler, PredictiveConfig};
pub use config::GpuServerConfig;
pub use fairqueue::{MqfqConfig, MqfqQueues};
pub use monitor::InvocationRecord;
pub use policy::{FleetPolicy, PlacementPolicy, QueuePolicy, ShedPolicy};
pub use server::{AcquireError, GpuServer, InvocationOutcome, ServerGauges};

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{
        CudaApi, HostBuf, KernelArgs, KernelCost, KernelDef, LaunchConfig, ModuleRegistry,
    };
    use dgsf_gpu::{GpuId, GB, MB};
    use dgsf_remoting::{OptConfig, RemoteCuda};
    use dgsf_sim::{Dur, Sim, SimCell};
    use std::rc::Rc;
    use std::sync::Arc;

    fn registry() -> Arc<ModuleRegistry> {
        Arc::new(
            ModuleRegistry::new()
                .with(KernelDef::timed("work"))
                .with(KernelDef::functional(
                    "stamp",
                    KernelCost::Fixed(0.001),
                    |view, _c, args| view.fill(args.ptrs[0], 8, args.scalars[0] as u8),
                )),
        )
    }

    /// Run a function body against an assigned API server.
    fn with_gpu<F>(p: &dgsf_sim::ProcCtx, srv: &GpuServer, name: &str, mem: u64, body: F)
    where
        F: FnOnce(&dgsf_sim::ProcCtx, &mut RemoteCuda),
    {
        let (client, _inv) = srv.request_gpu(p, name, mem, registry());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry()).unwrap();
        body(p, &mut api);
        api.finish(p).unwrap();
    }

    #[test]
    fn provision_reserves_idle_footprints() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("root", move |p| {
            let srv =
                GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2).sharing(2));
            // 2 servers per GPU × 755 MB each
            for g in &srv.gpus {
                assert_eq!(g.used_mem(), 2 * 755 * MB);
            }
        });
        sim.run();
    }

    #[test]
    fn end_to_end_function_on_gpu_server() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        sim.spawn("root", move |p| {
            let srv = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(1));
            with_gpu(p, &srv, "probe", GB, |p, api| {
                let buf = api.malloc(p, 16 * MB).unwrap();
                api.launch_kernel(
                    p,
                    "stamp",
                    LaunchConfig::linear(8, 32),
                    KernelArgs {
                        ptrs: vec![buf],
                        scalars: vec![0xAB],
                        ..Default::default()
                    },
                )
                .unwrap();
                api.device_synchronize(p).unwrap();
                let data = api.memcpy_d2h(p, buf, 8, true).unwrap();
                *o.lock() = Some(data);
            });
            // FunctionDone reaches the monitor one scheduling tick later.
            p.sleep(Dur::from_millis(1));
            let recs = srv.records();
            assert_eq!(recs.len(), 1);
            assert!(recs[0].done_at.is_some());
            assert_eq!(recs[0].queue_delay().unwrap(), Dur::ZERO);
        });
        sim.run();
        assert_eq!(
            out.lock().take().unwrap(),
            HostBuf::Bytes(vec![0xAB; 8].into())
        );
    }

    #[test]
    fn fcfs_queue_blocks_until_server_frees() {
        // 1 GPU, no sharing: the second function queues behind the first.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let delays = Rc::new(SimCell::new(&h, Vec::new()));
        let delays_in = delays.clone();
        sim.spawn("root", move |p| {
            let delays = delays_in;
            let srv = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(1));
            let srv2 = Arc::clone(&srv);
            let h2 = h.clone();
            for i in 0..2 {
                let srv = Arc::clone(&srv2);
                let delays = delays.clone();
                h2.spawn(&format!("fn{i}"), move |p| {
                    with_gpu(p, &srv, &format!("fn{i}"), GB, |p, api| {
                        api.launch_kernel(
                            p,
                            "work",
                            LaunchConfig::linear(1, 32),
                            KernelArgs::timed(2.0, 0),
                        )
                        .unwrap();
                        api.device_synchronize(p).unwrap();
                    });
                    let rec = &srv.records()[i];
                    delays.lock().push(rec.queue_delay().unwrap().as_secs_f64());
                });
            }
        });
        sim.run();
        // second invocation queued ≈ as long as the first ran
        let mut sim2_delays = delays.lock().clone();
        sim2_delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(sim2_delays[0] < 0.1);
        assert!(
            sim2_delays[1] > 1.9,
            "queued behind a ~2 s function: {sim2_delays:?}"
        );
    }

    #[test]
    fn sharing_runs_two_functions_concurrently_on_one_gpu() {
        let run = |per_gpu: u32| {
            let mut sim = Sim::new(1);
            let h = sim.handle();
            let finish = Rc::new(SimCell::new(&h, Vec::new()));
            let f2 = finish.clone();
            sim.spawn("root", move |p| {
                let srv = GpuServer::provision(
                    p,
                    &h,
                    GpuServerConfig::paper_default().gpus(1).sharing(per_gpu),
                );
                for i in 0..2 {
                    let srv = Arc::clone(&srv);
                    let f = f2.clone();
                    h.spawn(&format!("fn{i}"), move |p| {
                        with_gpu(p, &srv, "w", 4 * GB, |p, api| {
                            api.launch_kernel(
                                p,
                                "work",
                                LaunchConfig::linear(1, 32),
                                KernelArgs::timed(2.0, 0),
                            )
                            .unwrap();
                            api.device_synchronize(p).unwrap();
                        });
                        f.lock().push(p.now().as_secs_f64());
                    });
                }
            });
            sim.run();
            let v = finish.lock().clone();
            v.iter().cloned().fold(0.0f64, f64::max)
        };
        let serial = run(1); // queued: ~4 s total
        let shared = run(2); // GPS-shared: both finish ~4 s but start together
        assert!(serial > 3.9, "no sharing serializes: {serial}");
        // Sharing: both run concurrently at half speed => makespan ≈ 4 s but
        // the *sum of queue delays* is lower; check no queueing happened.
        assert!(shared <= serial + 0.1);
    }

    #[test]
    fn smallest_first_bypasses_head_of_line_blocking() {
        // One 2 s function occupies the only GPU; then a huge function that
        // can never run next to anything queues, followed by a tiny one.
        // FCFS serves huge→tiny; smallest-first serves tiny first.
        let order_of = |policy: QueuePolicy| {
            let mut sim = Sim::new(1);
            let h = sim.handle();
            let order = Rc::new(SimCell::new(&h, Vec::new()));
            let o2 = order.clone();
            sim.spawn("root", move |p| {
                let srv = GpuServer::provision(
                    p,
                    &h,
                    GpuServerConfig::paper_default()
                        .gpus(1)
                        .with_queue_policy(policy),
                );
                let launch = |name: &'static str, mem: u64, work: f64, delay_ms: u64| {
                    let srv = Arc::clone(&srv);
                    let o = o2.clone();
                    h.spawn(name, move |p| {
                        p.sleep(Dur::from_millis(delay_ms));
                        with_gpu(p, &srv, name, mem, |p, api| {
                            api.launch_kernel(
                                p,
                                "work",
                                LaunchConfig::linear(1, 32),
                                KernelArgs::timed(work, 0),
                            )
                            .unwrap();
                            api.device_synchronize(p).unwrap();
                        });
                        o.lock().push(name);
                    });
                };
                launch("first", GB, 2.0, 0);
                launch("huge", 14 * GB, 2.0, 100);
                launch("tiny", GB, 0.5, 200);
            });
            sim.run();
            let v = order.lock().clone();
            v
        };
        let fcfs = order_of(QueuePolicy::Fcfs);
        assert_eq!(
            fcfs,
            vec!["first", "huge", "tiny"],
            "FCFS head-of-line blocks"
        );
        let sjf = order_of(QueuePolicy::SmallestFirst);
        assert_eq!(
            sjf,
            vec!["first", "tiny", "huge"],
            "smallest-first bypasses the blocked head"
        );
    }

    #[test]
    fn forced_migration_moves_server_and_preserves_data() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("root", move |p| {
            let srv = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
            let srv2 = Arc::clone(&srv);
            h.spawn("fn", move |p| {
                let (client, _inv) = srv2.request_gpu(p, "mig", GB, registry());
                let mut api = RemoteCuda::new(client, OptConfig::full());
                api.runtime_init(p).unwrap();
                api.register_module(p, registry()).unwrap();
                let buf = api.malloc(p, 64 * MB).unwrap();
                api.memcpy_h2d(p, buf, HostBuf::Bytes(vec![5u8; 1024].into()))
                    .unwrap();
                api.device_synchronize(p).unwrap();
                let before = srv2.server_current_gpu(0);
                srv2.force_migration(0, GpuId(1));
                // next API call crosses a boundary → migration happens
                api.device_synchronize(p).unwrap();
                let after = srv2.server_current_gpu(0);
                assert_ne!(before, after);
                assert_eq!(after, GpuId(1));
                let data = api.memcpy_d2h(p, buf, 1024, true).unwrap();
                assert_eq!(data, HostBuf::Bytes(vec![5u8; 1024].into()));
                api.finish(p).unwrap();
                // after the function, the server reverts home
                assert_eq!(srv2.server_current_gpu(0), GpuId(0));
                let m = srv2.migrations();
                assert_eq!(m.len(), 1);
                assert!(m[0].report.bytes_moved >= 64 * MB);
            });
        });
        sim.run();
    }

    #[test]
    fn monitor_migrates_off_contended_gpu() {
        // Best-fit packs two long compute-heavy functions onto GPU 0 while
        // GPU 1 sits idle; with migration enabled the monitor moves one.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let migrated = Rc::new(SimCell::new(&h, 0usize));
        let m2 = migrated.clone();
        sim.spawn("root", move |p| {
            let srv = GpuServer::provision(
                p,
                &h,
                GpuServerConfig::paper_default()
                    .gpus(2)
                    .sharing(2)
                    .with_policy(PlacementPolicy::BestFit)
                    .with_migration(true),
            );
            for i in 0..2 {
                let srv = Arc::clone(&srv);
                h.spawn(&format!("busy{i}"), move |p| {
                    with_gpu(p, &srv, "busy", 2 * GB, |p, api| {
                        // long busy phase with frequent call boundaries
                        for _ in 0..100 {
                            api.launch_kernel(
                                p,
                                "work",
                                LaunchConfig::linear(1, 32),
                                KernelArgs::timed(0.1, 0),
                            )
                            .unwrap();
                            api.device_synchronize(p).unwrap();
                        }
                    });
                });
            }
            let srv2 = Arc::clone(&srv);
            let m3 = m2.clone();
            h.spawn("checker", move |p| {
                p.sleep(Dur::from_secs(30));
                *m3.lock() = srv2.migrations().len();
            });
        });
        sim.run();
        assert!(
            *migrated.lock() >= 1,
            "monitor should have migrated one function to the idle GPU"
        );
    }
}
