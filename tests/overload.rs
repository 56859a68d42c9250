//! Overload behaviour of the admission-controlled, autoscaled platform:
//! deterministic shedding, telemetry consistent with the invocation ground
//! truth, graceful saturation (bounded tail latency, shed rate below
//! 100%) at twice the fleet's compute ceiling, and an obs plane that only
//! watches the reactive autoscaler's run.

use std::sync::Arc;

use dgsf::prelude::*;

const MAX_PER_GPU: u32 = 4;
const NUM_GPUS: u32 = 2;

fn overload_config(seed: u64) -> PlatformConfig {
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
}

/// Poisson arrivals at 8 rps — double the 4 rps ceiling, with or without
/// the obs plane. Checks the counter oracle on every run, and the obs
/// oracle when the plane is on.
fn overload_run(seed: u64, with_obs: bool) -> (BackendRunOutput, Arc<dgsf::sim::Telemetry>) {
    // One 0.5 s kernel per call: two GPUs cap the fleet at 4 rps.
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(Spin::default())];
    let schedule = Schedule::mixed(
        seed,
        1,
        48,
        ArrivalPattern::Exponential {
            mean: Dur::from_millis(125),
        },
    );
    let obs = ObsConfig::paper_default();
    let mut cfg = overload_config(seed);
    if with_obs {
        cfg = cfg.with_obs(obs.clone());
    }
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);
    // The counters, the instants and the obs plane report each request's
    // end exactly as the results do, sheds included.
    dgsf::check_backend_counters(&out, &tel).assert_ok();
    if with_obs {
        dgsf::check_obs_reconciles(&out, &obs).assert_ok();
    }
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
fn the_obs_plane_is_read_only_under_reactive_scaling() {
    // Without a predictive autoscaler nothing reads the plane's signals:
    // turning it on must not move a single admission, route or timing.
    let (watched, _) = overload_run(11, true);
    let (blind, _) = overload_run(11, false);
    assert!(
        watched.shed() > 0,
        "8 rps against a 4 rps ceiling must shed"
    );
    assert!(watched.obs.is_some() && blind.obs.is_none());
    assert_eq!(
        fingerprint(&watched),
        fingerprint(&blind),
        "the obs plane changed the run it only watches"
    );
}

#[test]
fn shedding_is_deterministic_per_seed() {
    let (a, tel_a) = overload_run(11, true);
    let (b, tel_b) = overload_run(11, true);
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
    let (c, _) = overload_run(12, true);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&c),
        "a different seed takes a different trajectory"
    );
}

#[test]
fn telemetry_matches_the_invocation_ground_truth() {
    let (out, tel) = overload_run(11, true);
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
    let (out, _) = overload_run(11, true);
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

/// Fair shedding splits the budget among every tenant of the run from
/// t = 0. A tenant that first arrives after another has used up its part
/// of the budget still finds free slots, because the first tenant was held
/// to its share (plus its burst) even while it was alone.
#[test]
fn fair_shedding_keeps_a_share_for_a_tenant_that_has_not_arrived() {
    let suite: Vec<Arc<dyn Workload>> = vec![
        Arc::new(Tenanted::new("early", Spin::default())),
        Arc::new(Tenanted::new("late", Spin::default())),
    ];
    // Ten early functions at t = 0; four late ones at 100 ms, while every
    // admitted early one still runs its 0.5 s kernel.
    let late = SimTime::ZERO + Dur::from_millis(100);
    let mut entries: Vec<(SimTime, usize)> = vec![(SimTime::ZERO, 0); 10];
    entries.extend([(late, 1); 4]);
    let cfg = PlatformConfig::paper_default()
        .with_server(GpuServerConfig::paper_default().gpus(1))
        .with_max_inflight(8)
        .with_weighted_fair();
    let out = Testbed::run_platform_schedule(&cfg, &suite, &Schedule { entries });
    let admitted = |t: &str| {
        out.results
            .iter()
            .filter(|r| *r.tenant == *t && !r.shed)
            .count()
    };
    // 8 slots, two tenants: early gets its share of 4 plus its 2-token
    // burst, which leaves 2 slots for late.
    assert_eq!((admitted("early"), admitted("late")), (6, 2));
    for r in out
        .results
        .iter()
        .filter(|r| &*r.tenant == "early" && r.shed)
    {
        let why = r.failure.as_deref().unwrap_or_default();
        assert!(why.contains("(6 inflight / 4 slots"), "{why}");
    }
    assert_eq!(out.completed(), 8);
}
