//! Overload behaviour of the admission-controlled, autoscaled platform:
//! deterministic shedding, telemetry consistent with the invocation ground
//! truth, and graceful saturation (bounded tail latency, shed rate below
//! 100%) at twice the fleet's compute ceiling.

use std::sync::Arc;

use dgsf::cuda::{CudaResult, KernelDef};
use dgsf::gpu::GB;
use dgsf::prelude::*;
use dgsf::serverless::phase;
use dgsf::sim::ProcCtx;

/// 0.5 s of GPU work per call: two GPUs cap the fleet at 4 rps.
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
        api.launch_kernel(
            p,
            "k",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(0.5, 0),
        )?;
        api.device_synchronize(p)?;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        30.0
    }
}

const MAX_PER_GPU: u32 = 4;
const NUM_GPUS: u32 = 2;

fn overload_config(seed: u64, obs: &ObsConfig) -> PlatformConfig {
    PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(
            GpuServerConfig::paper_default()
                .gpus(NUM_GPUS)
                .with_autoscale(
                    AutoscaleConfig::new(1, MAX_PER_GPU)
                        .with_target_queue_delay(Dur::from_millis(250))
                        .with_idle_ttl(Dur::from_secs(3))
                        .with_cooldown(Dur::from_millis(400)),
                ),
        )
        .with_max_inflight(24)
        .with_max_queue_age(Dur::from_secs(3))
        .with_obs(obs.clone())
}

/// Poisson arrivals at 8 rps — double the 4 rps ceiling. Checks the
/// counter and obs oracles on every run.
fn overload_run(seed: u64) -> (BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    overload_run_with(seed, &ObsConfig::paper_default())
}

/// [`overload_run`] under the obs plane configuration `obs`.
fn overload_run_with(seed: u64, obs: &ObsConfig) -> (BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(Spin)];
    let schedule = Schedule::mixed(
        seed,
        1,
        48,
        ArrivalPattern::Exponential {
            mean: Dur::from_millis(125),
        },
    );
    let (out, tel) =
        Testbed::run_platform_schedule_traced(&overload_config(seed, obs), &suite, &schedule);
    // The counters, the instants and the obs plane report each request's
    // end exactly as the results do, sheds included.
    dgsf::check_backend_counters(&out, &tel).assert_ok();
    dgsf::check_obs_reconciles(&out, obs).assert_ok();
    (out, tel)
}

/// A per-function fingerprint capturing everything overload-relevant.
fn fingerprint(out: &BackendRunOutput) -> Vec<(u64, u64, bool, Option<String>)> {
    out.results
        .iter()
        .map(|r| {
            (
                r.launched_at.as_nanos(),
                r.finished_at.as_nanos(),
                r.shed,
                r.failure.clone(),
            )
        })
        .collect()
}

#[test]
fn burn_rate_shedding_refuses_a_tenant_burning_its_budget_on_queueing() {
    // Shed new work once the tenant's fast-window burn reaches its budget
    // rate and its violating requests spent the gate's share queueing.
    let obs = ObsConfig::paper_default().with_shed_burn_threshold(1000);
    let (a, tel_a) = overload_run_with(11, &obs);
    let burn_shed = a
        .results
        .iter()
        .filter(|r| {
            r.shed
                && r.failure
                    .as_deref()
                    .is_some_and(|f| f.contains("over SLO burn-rate budget"))
        })
        .count();
    assert!(
        burn_shed > 0,
        "8 rps against a 4 rps ceiling burns the budget"
    );
    let (b, tel_b) = overload_run_with(11, &obs);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed ⇒ identical burn-shed set and timings"
    );
    assert_eq!(tel_a.metrics_json(), tel_b.metrics_json());
}

#[test]
fn shedding_is_deterministic_per_seed() {
    let (a, tel_a) = overload_run(11);
    let (b, tel_b) = overload_run(11);
    assert!(a.shed() > 0, "8 rps against a 4 rps ceiling must shed");
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed ⇒ identical shed set and timings"
    );
    assert_eq!(
        tel_a.metrics_json(),
        tel_b.metrics_json(),
        "same seed ⇒ byte-identical telemetry export"
    );
    let (c, _) = overload_run(12);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&c),
        "a different seed takes a different trajectory"
    );
}

#[test]
fn telemetry_matches_the_invocation_ground_truth() {
    let (out, tel) = overload_run(11);
    assert_eq!(
        tel.counter("backend.shed"),
        out.shed() as u64,
        "shed counter mirrors the per-function shed flags"
    );
    let shed_events = tel.instants().iter().filter(|e| e.name == "shed").count();
    assert_eq!(shed_events, out.shed(), "one shed event per shed function");
    let peak = tel
        .gauge_peak("monitor.pool_size")
        .expect("pool gauge recorded under load");
    assert!(
        peak as u32 <= MAX_PER_GPU * NUM_GPUS,
        "pool peak {peak} exceeds the configured ceiling"
    );
    assert!(peak > NUM_GPUS as i64, "overload must trigger scale-ups");
    assert_eq!(
        tel.counter("autoscale.scale_ups"),
        tel.counter("autoscale.scale_downs"),
        "every scaled-up server is retired once load subsides"
    );
}

#[test]
fn saturation_is_graceful() {
    let (out, _) = overload_run(11);
    let launched = out.results.len();
    let shed = out.shed();
    let completed = out.completed();
    assert_eq!(launched, 48);
    assert!(shed < launched, "shedding must not reach 100%");
    assert!(
        completed >= launched / 2,
        "the fleet keeps serving at its ceiling: {completed}/{launched}"
    );
    // Successful functions never queue past the 3 s admission age limit,
    // so their end-to-end time stays bounded even at 2x saturation.
    let worst = out
        .results
        .iter()
        .filter(|r| r.succeeded())
        .map(|r| r.e2e())
        .max()
        .expect("some functions complete");
    assert!(
        worst < Dur::from_secs(6),
        "bounded tail under overload, got {worst:?}"
    );
    // Shed functions fail fast with the overload marker and zero attempts
    // or an Overloaded final attempt — never a success.
    for r in out.results.iter().filter(|r| r.shed) {
        assert!(r
            .failure
            .as_deref()
            .is_some_and(|f| f.contains("overloaded")));
        assert!(!r.succeeded());
    }
}
