//! `fleet_surge`: the obs experiment's fleet under repeated diurnal surges.
//!
//! Two GPUs whose API-server pool autoscales from 1 to 4 per GPU in
//! predictive mode, behind admission control, with the obs plane (2 s
//! windows) and platform telemetry on.
//! Each cycle is 30 s at 0.36 rps then 40 s at 3.6 rps (Poisson) of a
//! function that spends 0.75 s on the host and 0.5 s on the GPU. This is
//! the only workload with cold starts (scale-ups and pre-warms), obs and
//! telemetry, so control-plane, snapshot/fork and telemetry changes show
//! here and must leave `paper_mix` unchanged.

use std::sync::Arc;

use dgsf::cuda::{CudaApi, CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf::gpu::GB;
use dgsf::server::{AutoscaleConfig, GpuServerConfig, PredictiveConfig};
use dgsf::serverless::{phase, PhaseRecorder, Schedule, Workload};
use dgsf::sim::{Dur, ObsConfig, ProcCtx, SimTime};
use dgsf::PlatformConfig;

use super::{Config, PlatformRun, Timed};
use crate::rng::Rng;

/// Off-peak and surge phases of one cycle: (length, rate in milli-rps).
const PHASES: [(u64, u64); 2] = [(30_000, 360), (40_000, 3_600)];
/// GPU seconds of work per function.
const SPIN_SECS: f64 = 0.5;
/// Host milliseconds per function (API server busy, GPU free).
const HOST_MS: u64 = 750;
/// Admission bounds: in-flight cap and the queue age beyond which an
/// attempt is shed. The benchmark's workloads must complete every
/// invocation, so a surge's scaling lag has to show as queueing delay, not
/// as sheds: the worst queue seen over 140 replicas was about 12 s with
/// some 50 functions in flight, and both bounds sit about five times
/// beyond that. Admission still runs for every function.
const MAX_INFLIGHT: usize = 256;
const MAX_QUEUE_AGE_MS: u64 = 60_000;

/// 0.75 s of host-side pre-processing, then 0.5 s of GPU work (1 GB
/// footprint, no download): the pool size, not the GPUs, sets the service
/// rate until GPU compute saturates.
struct Spin;

impl Workload for Spin {
    fn name(&self) -> &str {
        "spin"
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
    }
    fn required_gpu_mem(&self) -> u64 {
        GB
    }
    fn download_bytes(&self) -> u64 {
        0
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        rec.enter(p, phase::PROCESSING);
        p.sleep(Dur::from_millis(HOST_MS));
        api.launch_kernel(
            p,
            "k",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(SPIN_SECS, 0),
        )?;
        api.device_synchronize(p)?;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        30.0
    }
}

pub fn prepare(cfg: Config) -> PlatformRun {
    let mut rng = Rng::new(cfg.seed, 3);
    let mut entries = Vec::new();
    let mut start = 0u64;
    for _ in 0..cfg.size {
        for (len_ms, milli_rps) in PHASES {
            let mean_ns = 1_000_000_000_000 / milli_rps;
            let end = start + len_ms * 1_000_000;
            let mut at = start + rng.exp_ns(mean_ns);
            while at < end {
                entries.push((SimTime::ZERO + Dur(at), 0));
                at += rng.exp_ns(mean_ns);
            }
            start = end;
        }
    }
    let auto = AutoscaleConfig::new(1, 4)
        .with_target_queue_delay(Dur::from_millis(250))
        .with_up_ticks(4)
        .with_idle_ttl(Dur::from_secs(3))
        .with_cooldown(Dur::from_millis(600))
        .with_predictive(PredictiveConfig::default());
    let platform = PlatformConfig::paper_default()
        .with_seed(cfg.seed)
        .with_server(
            GpuServerConfig::paper_default()
                .gpus(2)
                .sharing(4)
                .with_autoscale(auto),
        )
        .with_max_inflight(MAX_INFLIGHT)
        .with_max_queue_age(Dur::from_millis(MAX_QUEUE_AGE_MS))
        .with_obs(ObsConfig::paper_default().with_window(Dur::from_secs(2)));
    PlatformRun::new(
        platform,
        vec![Arc::new(Timed(Arc::new(Spin)))],
        Schedule { entries },
        cfg.telemetry,
    )
}
