//! The paper's motivating case study (§III): a 100+ student CUDA class.
//!
//! ```text
//! cargo run --release --example cuda_class
//! ```
//!
//! Students edit code in cheap CPU-only containers; every time someone runs
//! their CUDA program, a serverless function executes it against DGSF's
//! disaggregated GPU pool. This example launches a burst of short student
//! jobs against a *single* 4-GPU server with sharing enabled and shows that
//! (a) everyone gets a GPU without owning one, and (b) billing only covers
//! active GPU seconds, not idle IDE time.

use std::sync::Arc;

use dgsf::cuda::{KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf::prelude::*;
use dgsf::serverless::PhaseRecorder;
use dgsf::sim::Summary;

/// A student's assignment run: a couple of kernels plus a result readback.
struct StudentJob {
    id: usize,
    gpu_secs: f64,
}

impl Workload for StudentJob {
    fn name(&self) -> &str {
        "student-job"
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("assignment_kernel")))
    }
    fn required_gpu_mem(&self) -> u64 {
        1 << 30 // 1 GB
    }
    fn download_bytes(&self) -> u64 {
        8 << 20 // the student's data set
    }
    fn run(
        &self,
        p: &dgsf::sim::ProcCtx,
        api: &mut dyn dgsf::cuda::CudaApi,
        rec: &mut PhaseRecorder,
    ) -> dgsf::cuda::CudaResult<()> {
        rec.enter(p, dgsf::serverless::phase::PROCESSING);
        let buf = api.malloc(p, 64 << 20)?;
        api.memset(p, buf, 0, 64 << 20)?;
        for _ in 0..4 {
            api.launch_kernel(
                p,
                "assignment_kernel",
                LaunchConfig::linear(1 << 22, 256),
                KernelArgs::timed(self.gpu_secs / 4.0, 64 << 20),
            )?;
        }
        api.device_synchronize(p)?;
        api.memcpy_d2h(p, buf, 1 << 20, false)?;
        api.free(p, buf)?;
        let _ = self.id;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        self.gpu_secs * 30.0
    }
}

fn main() {
    let students = 60usize;
    println!("§III case study: {students} students, one 4-GPU server, sharing(2)\n");

    // Every student triggers a run within a 2-minute window.
    let suite: Vec<Arc<dyn Workload>> = (0..students)
        .map(|id| {
            Arc::new(StudentJob {
                id,
                gpu_secs: 1.0 + (id % 5) as f64, // 1–5 s of GPU work each
            }) as Arc<dyn Workload>
        })
        .collect();
    let schedule = Schedule {
        entries: (0..students)
            .map(|i| (SimTime::ZERO + Dur::from_millis(i as u64 * 2000), i))
            .collect(),
    };
    let cfg = PlatformConfig::paper_default().with_seed(21).with_server(
        GpuServerConfig::paper_default()
            .gpus(4)
            .sharing(2)
            .with_policy(PlacementPolicy::WorstFit),
    );
    let out = Testbed::run_platform_schedule(&cfg, &suite, &schedule);

    let e2es: Vec<f64> = out.results.iter().map(|r| r.e2e().as_secs_f64()).collect();
    let queues: Vec<f64> = out
        .records
        .iter()
        .flatten()
        .filter_map(|r| r.queue_delay())
        .map(|d| d.as_secs_f64())
        .collect();
    let se = Summary::from(&e2es);
    let sq = Summary::from(&queues);
    let gpu_busy: f64 = out
        .gpu_timelines
        .iter()
        .map(|tl| {
            tl.busy_between(out.first_launch, out.all_done)
                .as_secs_f64()
        })
        .sum();

    println!(
        "all {} runs served in {:.0}s of class time",
        students,
        out.provider_e2e().as_secs_f64()
    );
    println!(
        "per-run latency: mean {:.1}s  p95 {:.1}s  max {:.1}s",
        se.mean, se.p95, se.max
    );
    println!(
        "queueing:        mean {:.1}s  p95 {:.1}s  max {:.1}s",
        sq.mean, sq.p95, sq.max
    );
    println!(
        "\nbilling: {:.0} GPU-seconds of actual use across 4 GPUs — vs {:.0} GPU-seconds\nif every student held a dedicated GPU-enabled container for the whole window.",
        gpu_busy,
        students as f64 * out.provider_e2e().as_secs_f64()
    );
    println!(
        "utilization-based billing is {:.0}x cheaper.",
        students as f64 * out.provider_e2e().as_secs_f64() / gpu_busy
    );
}
