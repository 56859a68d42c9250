//! Placement-policy behaviour through the public API: best-fit packs,
//! worst-fit spreads, memory admission blocks oversized co-tenants.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CudaApi, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf_gpu::{GpuId, GB};
use dgsf_remoting::{OptConfig, RemoteCuda};
use dgsf_server::{GpuServer, GpuServerConfig, PlacementPolicy};
use dgsf_sim::{Dur, ProcCtx, Sim, SimCell, SimHandle};

fn registry() -> Arc<ModuleRegistry> {
    Arc::new(ModuleRegistry::new().with(KernelDef::timed("work")))
}

/// Launch `n` concurrent functions of `mem` bytes that each hold the GPU
/// for `secs`; return the home GPU each got assigned.
fn placements(policy: PlacementPolicy, mems: Vec<u64>, secs: f64) -> Vec<GpuId> {
    let mut sim = Sim::new(5);
    let h = sim.handle();
    let out = Rc::new(SimCell::new(&h, Vec::new()));
    let o = out.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(
            p,
            &h,
            GpuServerConfig::paper_default()
                .gpus(2)
                .sharing(2)
                .with_policy(policy),
        );
        for (i, mem) in mems.into_iter().enumerate() {
            let srv = Arc::clone(&srv);
            let h2 = h.clone();
            let _ = &h2;
            h.spawn(&format!("f{i}"), move |p| {
                // stagger slightly so assignment order is deterministic
                p.sleep(Dur::from_millis(10 * i as u64));
                run_one(p, &srv, mem, secs);
            });
        }
        let srv2 = Arc::clone(&srv);
        let o2 = o.clone();
        h.spawn("collect", move |p| {
            p.sleep(Dur::from_secs_f64(secs * 6.0 + 5.0));
            let mut recs = srv2.records();
            recs.sort_by_key(|r| r.invocation);
            *o2.lock() = recs.into_iter().filter_map(|r| r.gpu).collect();
        });
    });
    sim.run();
    let v = out.lock().clone();
    v
}

fn run_one(p: &ProcCtx, srv: &GpuServer, mem: u64, secs: f64) {
    let (client, _) = srv.request_gpu(p, "f", mem, registry());
    let mut api = RemoteCuda::new(client, OptConfig::full());
    api.runtime_init(p).unwrap();
    api.register_module(p, registry()).unwrap();
    api.launch_kernel(
        p,
        "work",
        LaunchConfig::linear(1, 32),
        KernelArgs::timed(secs, 0),
    )
    .unwrap();
    api.device_synchronize(p).unwrap();
    api.finish(p).unwrap();
}

#[test]
fn best_fit_packs_onto_one_gpu() {
    let gpus = placements(PlacementPolicy::BestFit, vec![2 * GB, 2 * GB], 3.0);
    assert_eq!(gpus.len(), 2);
    assert_eq!(gpus[0], gpus[1], "best-fit co-locates: {gpus:?}");
}

#[test]
fn worst_fit_spreads_across_gpus() {
    let gpus = placements(PlacementPolicy::WorstFit, vec![2 * GB, 2 * GB], 3.0);
    assert_eq!(gpus.len(), 2);
    assert_ne!(gpus[0], gpus[1], "worst-fit spreads: {gpus:?}");
}

#[test]
fn memory_admission_blocks_oversized_cotenant() {
    // First function declares nearly the whole GPU; the second big one must
    // land on the *other* GPU even under best-fit.
    let gpus = placements(PlacementPolicy::BestFit, vec![13 * GB, 13 * GB], 3.0);
    assert_eq!(gpus.len(), 2);
    assert_ne!(
        gpus[0], gpus[1],
        "13 GB functions cannot share a 16 GB GPU: {gpus:?}"
    );
}

#[test]
fn small_functions_fill_in_around_large_ones() {
    // 13 GB + 1 GB fit together (16 GB − 2×0.755 GB footprints ≈ 14.9 GB).
    let gpus = placements(PlacementPolicy::BestFit, vec![13 * GB, GB, 13 * GB], 3.0);
    assert_eq!(gpus.len(), 3);
    assert_eq!(
        gpus[0], gpus[1],
        "the 1 GB function packs next to the 13 GB one"
    );
    assert_ne!(gpus[0], gpus[2], "the second 13 GB function goes elsewhere");
}

#[test]
fn utilization_accounting_sees_the_work() {
    let mut sim = Sim::new(6);
    let h: SimHandle = sim.handle();
    let util = Rc::new(SimCell::new(&h, 0.0f64));
    let u = util.clone();
    sim.spawn("root", move |p| {
        let srv = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(1));
        let t0 = p.now();
        run_one(p, &srv, GB, 4.0);
        let t1 = p.now();
        *u.lock() = srv.mean_utilization(t0, t1);
    });
    sim.run();
    let u = *util.lock();
    assert!(
        (0.5..=1.0).contains(&u),
        "a 4 s kernel dominates the window: utilization {u:.2}"
    );
}
