//! Online observability plane, end to end: the dashboard must replay
//! byte-for-byte per seed, predictive autoscaling must shed strictly less
//! than reactive on the 10× diurnal ramp, and every fired burn-rate alert
//! must reconcile **exactly** with the offline critical-path attribution
//! of PR 5 — the alert's queue-attributed share recomputed from assembled
//! trace trees equals the streamed value, and sits above the gate.

use std::sync::Arc;

use dgsf::cuda::{CudaApi, CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf::prelude::*;
use dgsf::sim::obs::QUEUE_SHARE_THRESHOLD_PERMILLE;
use dgsf::sim::trace::{assemble, TraceOutcome};
use dgsf_bench::obs as bench_obs;

const GB: u64 = 1 << 30;

/// One timed kernel, enough memory to fit anywhere.
struct SpinFn {
    secs: f64,
}

impl Workload for SpinFn {
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
    fn run(
        &self,
        p: &dgsf::sim::ProcCtx,
        api: &mut dyn CudaApi,
        rec: &mut PhaseRecorder,
    ) -> CudaResult<()> {
        rec.enter(p, dgsf::serverless::phase::PROCESSING);
        api.launch_kernel(
            p,
            "k",
            LaunchConfig::linear(1, 32),
            KernelArgs::timed(self.secs, 0),
        )?;
        api.device_synchronize(p)?;
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        self.secs * 30.0
    }
}

#[test]
fn ramp_is_byte_deterministic_and_predictive_sheds_strictly_fewer() {
    let a = bench_obs::obs(42, true);
    let b = bench_obs::obs(42, true);
    assert_eq!(
        bench_obs::obs_json(&a),
        bench_obs::obs_json(&b),
        "BENCH_obs.json must replay byte-for-byte per seed"
    );
    assert_eq!(
        a.dashboard, b.dashboard,
        "dashboard.json (incl. the alert log) must replay byte-for-byte per seed"
    );
    // The tentpole claim: at an equal hardware ceiling, pre-warming on the
    // plane's rate-ramp signal sheds strictly less than waiting for
    // sustained queue-delay breaches.
    assert!(
        a.predictive.shed < a.reactive.shed,
        "predictive shed {} must be strictly below reactive shed {}",
        a.predictive.shed,
        a.reactive.shed
    );
    assert!(
        a.predictive.prewarms > 0,
        "the ramp must actually trigger pre-warms"
    );
    assert!(
        a.predictive.first_grow_ms_after_surge >= 0
            && a.predictive.first_grow_ms_after_surge < a.reactive.first_grow_ms_after_surge,
        "prediction must grow the pool earlier after surge onset ({} vs {} ms)",
        a.predictive.first_grow_ms_after_surge,
        a.reactive.first_grow_ms_after_surge
    );
    assert!(
        a.predictive.alerts_fired > 0,
        "the surge must push the tenant over its burn budget"
    );
}

/// A single overloaded GPU server with the plane attached: arrivals at
/// ~2× the service rate, so latency is queue-dominated and the burn-rate
/// alert must fire with the queue-share gate open.
fn overloaded_run(seed: u64) -> (ObsConfig, dgsf::BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    let ocfg = ObsConfig::paper_default()
        .with_window(Dur::from_secs(1))
        .with_slo(Dur::from_millis(900), 100);
    let cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(1).sharing(2))
        .with_obs(ocfg.clone());
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(SpinFn { secs: 0.4 })];
    let schedule = Schedule::mixed(
        seed,
        1,
        40,
        ArrivalPattern::Exponential {
            mean: Dur::from_millis(250),
        },
    );
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    // The plane's windows and burn rows, and the backend's counters,
    // count every request's end exactly as the results do.
    dgsf::check_obs_reconciles(&out, &ocfg).assert_ok();
    dgsf::check_backend_counters(&out, &tel).assert_ok();
    (ocfg, out, tel)
}

#[test]
fn fired_alerts_reconcile_exactly_with_offline_attribution() {
    let (ocfg, out, tel) = overloaded_run(42);
    let report = out.obs.expect("obs plane was configured");
    assert!(
        report.fired().count() > 0,
        "the overload scenario must fire at least one burn-rate alert"
    );
    let trees = assemble(&tel);
    assert_eq!(trees.len(), out.results.len(), "one tree per request");
    let win = ocfg.window.as_nanos();
    let fast_span = ocfg.fast_windows as u64 * win;
    for alert in report.fired() {
        // Recompute the alert's fast-set queue share offline, from the
        // assembled critical-path trees: violating requests (same rule as
        // `trace::slo_burn`) finishing inside the alert's fast windows,
        // with shed zero-width requests excluded on both sides.
        let span_end = alert.window_start_ns + win;
        let span_start = span_end.saturating_sub(fast_span);
        let mut queue_ns = 0u64;
        let mut e2e_ns = 0u64;
        for t in trees.iter().filter(|t| t.tenant == alert.tenant) {
            let end = t.end.as_nanos();
            if end < span_start || end >= span_end {
                continue;
            }
            let violated = t.outcome != TraceOutcome::Completed || t.e2e() > ocfg.slo_target;
            if violated && t.e2e() > Dur::ZERO {
                queue_ns += t.segment("queue").as_nanos();
                e2e_ns += t.e2e().as_nanos();
            }
        }
        assert!(
            e2e_ns > 0,
            "a fired alert implies violating latency in its fast set"
        );
        let offline_share = ((queue_ns as u128 * 1000) / e2e_ns as u128) as u64;
        assert_eq!(
            offline_share, alert.queue_share_permille,
            "online queue share must reconcile exactly with the offline \
             attribution for the alert at {} ns (tenant {})",
            alert.at.0, alert.tenant
        );
        // And the gate: no alert may fire where queueing is not actually
        // the dominant cause.
        assert!(
            offline_share >= QUEUE_SHARE_THRESHOLD_PERMILLE,
            "alert fired with queue share {offline_share}‰ below the \
             {QUEUE_SHARE_THRESHOLD_PERMILLE}‰ gate"
        );
    }
    // Determinism of the full report, alert log included.
    let (_, out2, _) = overloaded_run(42);
    let report2 = out2.obs.expect("obs plane was configured");
    assert_eq!(
        report.dashboard_json(),
        report2.dashboard_json(),
        "same seed must reproduce the identical dashboard"
    );
}
