//! Functional K-means through the whole DGSF stack.
//!
//! ```text
//! cargo run --release --example kmeans_serverless
//! ```
//!
//! The §III case study made executable: the *same* clustering code runs
//!
//! 1. natively on a (simulated) local GPU,
//! 2. as a serverless function whose CUDA calls are remoted by DGSF to a
//!    disaggregated GPU server — including a forced live migration between
//!    GPUs halfway through the iterations, and
//! 3. on host CPU threads (the paper's pthreads baseline),
//!
//! and all three produce the same centroids. The migration is completely
//! invisible to the function: same pointers, same results.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::cuda::{CostTable, CudaApi, NativeCuda};
use dgsf::gpu::{Gpu, GpuId};
use dgsf::prelude::*;
use dgsf::remoting::RemoteCuda;
use dgsf::server::GpuServer;
use dgsf::sim::{Sim, SimCell};
use dgsf::workloads::{max_abs_diff, KMeansProblem};

fn main() {
    let prob = KMeansProblem::synthetic(4000, 8, 5, 12, 2024);
    println!(
        "K-means: {} points x {} dims, k={}, {} iterations\n",
        prob.n(),
        prob.dims,
        prob.k,
        prob.iters
    );

    // --- CPU baseline (6 threads, as AWS Lambda caps functions) ---
    let wall = std::time::Instant::now();
    let cpu = prob.run_cpu(6);
    println!("CPU (6 threads): done in {:?} wall time", wall.elapsed());

    // --- native GPU ---
    let native = {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        let prob = prob.clone();
        sim.spawn("native-app", move |p| {
            let gpu = Gpu::v100(&h, GpuId(0));
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            api.runtime_init(p).unwrap();
            api.register_module(p, prob.registry()).unwrap();
            let t0 = p.now();
            let centroids = prob.run_gpu(p, &mut api);
            *o.lock() = Some((centroids, p.now().since(t0)));
        });
        sim.run();
        let r = out.lock().take().unwrap();
        r
    };
    println!(
        "native GPU:      {:.3}s of virtual time (plus 3.2s CUDA init)",
        native.1.as_secs_f64()
    );

    // --- DGSF with a live migration in the middle ---
    let dgsf = {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        let prob = prob.clone();
        let h2 = h.clone();
        sim.spawn("platform", move |p| {
            let server = GpuServer::provision(p, &h2, GpuServerConfig::paper_default().gpus(2));
            let (client, _inv) = server.request_gpu(p, "kmeans", 256 << 20, prob.registry());
            let mut api = RemoteCuda::new(client, OptConfig::full());
            api.runtime_init(p).unwrap();
            api.register_module(p, prob.registry()).unwrap();
            let t0 = p.now();

            // run half the iterations…
            let mut half = prob.clone();
            half.iters = prob.iters / 2;
            let _ = half.run_gpu(p, &mut api); // frees its buffers; re-run below

            // …then force a live migration to the other GPU and run the
            // full problem again on the migrated session.
            server.force_migration(0, GpuId(1));
            let centroids = prob.run_gpu(p, &mut api);
            let elapsed = p.now().since(t0);
            let migs = server.migrations();
            *o.lock() = Some((centroids, elapsed, migs.len(), server.server_current_gpu(0)));
            api.finish(p).unwrap();
        });
        sim.run();
        let r = out.lock().take().unwrap();
        r
    };
    println!(
        "DGSF (remoted):  {:.3}s of virtual time, {} live migration(s), now on {:?}",
        dgsf.1.as_secs_f64(),
        dgsf.2,
        dgsf.3
    );

    // --- all three agree ---
    let d_native = max_abs_diff(&native.0, &cpu);
    let d_dgsf = max_abs_diff(&dgsf.0, &cpu);
    println!("\nmax |centroid difference| native vs CPU: {d_native:.2e}");
    println!("max |centroid difference| DGSF   vs CPU: {d_dgsf:.2e}");
    assert!(d_native < 1e-3 && d_dgsf < 1e-3, "all paths must agree");
    println!("\nAll three execution paths produced the same clustering. ✔");
}
