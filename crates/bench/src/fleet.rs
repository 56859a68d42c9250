//! `dgsf-expt fleet` — the multi-tenant fleet sweep.
//!
//! Drives a two-tenant Poisson mix (a "hot" tenant flooding short
//! functions and a "cold" tenant with sparse long functions) across a
//! fleet of 4 GPU servers, for every combination of cluster-balancer
//! routing (round-robin vs load-aware) and shed policy (FIFO vs
//! per-tenant fair). Every variant replays the *same* arrival
//! schedule per load point, so differences are attributable to policy
//! alone. Per point it records per-tenant goodput, completion ratios and
//! Jain's fairness index over the tenants' goodputs.
//!
//! Two fixed-hardware comparisons ride along: migration off/on under a
//! stranded batch-pair mix, and the MQFQ-Sticky queueing arms — FCFS vs
//! per-tenant virtual-time fair queueing (with and without bounded sticky
//! placement) on a skewed two-tenant backlog, scored by Jain's index over
//! served-by-horizon occupancy and the light tenant's queue-delay tail.
//!
//! Everything in `BENCH_fleet.json` is an integer derived from virtual
//! time, so the file is **byte-identical per seed** across runs and
//! machines — CI diffs it against a committed golden.

use std::sync::Arc;

use dgsf::gpu::GB;
use dgsf::prelude::*;
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};
use dgsf::sim::stats::{jain_permille, percentile_permille};

use crate::report::{point_seed, poisson, summary_of, TextTable};

/// GPU seconds per hot-tenant invocation.
const HOT_SECS: f64 = 0.3;
/// GPU seconds per cold-tenant invocation — 4× heavier per job, so blind
/// routing queues short functions behind it.
const COLD_SECS: f64 = 1.2;
/// The cold tenant's fixed offered rate (milli-requests/second): 2.4 GPUs
/// of work, past its half-fleet fair share, so at the overloaded points
/// *both* tenants are backlogged and the shed policy decides who is
/// served.
const COLD_RPS_MILLI: u64 = 2_000;
/// Hot-tenant offered rates (milli-requests/second): mid-saturation, the
/// knee, and firm overload of the 4-GPU fleet.
const HOT_RATES_MILLI_RPS: &[u64] = &[2_000, 8_000, 16_000];
/// Platform-wide admission budget (2 slots per fleet server). Tight
/// enough that overload turns into admission-time shedding, where the
/// shed policy decides who pays.
const MAX_INFLIGHT: usize = 8;

/// Per-tenant slice of one load point. All integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPoint {
    /// Functions launched by this tenant.
    pub launched: u64,
    /// Functions completed.
    pub completed: u64,
    /// Functions shed.
    pub shed: u64,
    /// Goodput (milli-requests/second of completions over the run window).
    pub goodput_rps_milli: u64,
    /// Completions per launch, in permille — the tenant's served fraction
    /// of its own demand, which is what fairness budgets.
    pub completion_permille: u64,
    /// 99th-percentile end-to-end latency of this tenant's completions
    /// (microseconds, nearest-rank).
    pub p99_e2e_us: u64,
}

/// One load point of one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPoint {
    /// Hot tenant's offered rate (milli-requests/second).
    pub hot_rps_milli: u64,
    /// The hot tenant's slice.
    pub hot: TenantPoint,
    /// The cold tenant's slice.
    pub cold: TenantPoint,
    /// p50 end-to-end latency over all completions (microseconds).
    pub p50_e2e_us: u64,
    /// p99 end-to-end latency over all completions (microseconds).
    pub p99_e2e_us: u64,
    /// Jain's fairness index over the two tenants' goodputs, in permille
    /// (1000 = both tenants are served at the same rate). Meaningful at the backlogged points, where demand
    /// exceeds every tenant's share.
    pub jain_permille: u64,
}

/// One arm of the migration on/off comparison. All integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationArm {
    /// `"on"` or `"off"`.
    pub migration: &'static str,
    /// Functions completed.
    pub completed: u64,
    /// Committed live migrations across the fleet.
    pub migrations: u64,
    /// p50 end-to-end latency over all completions (microseconds).
    pub p50_e2e_us: u64,
    /// p99 end-to-end latency over all completions (microseconds).
    pub p99_e2e_us: u64,
    /// p99 of the batch tenant's completions (microseconds).
    pub batch_p99_e2e_us: u64,
    /// p99 of the interactive tenant's completions (microseconds).
    pub interactive_p99_e2e_us: u64,
}

/// Per-tenant slice of one queueing arm. All integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueTenant {
    /// Functions completed over the whole run.
    pub completed: u64,
    /// Milliseconds of API-server occupancy served to this tenant by the
    /// horizon (first launch + arrival window). With both tenants
    /// backlogged past their fair share, this is the quantity the queue
    /// discipline divides.
    pub served_by_horizon_ms: u64,
    /// Median monitor-queue delay (microseconds, nearest-rank).
    pub p50_queue_delay_us: u64,
    /// 99th-percentile monitor-queue delay (microseconds).
    pub p99_queue_delay_us: u64,
    /// Fleet members that ran at least one of this tenant's invocations —
    /// the tenant's placement spread (sticky placement shrinks it).
    pub servers_touched: u64,
}

/// One arm of the MQFQ-vs-FCFS queueing comparison. All integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueArm {
    /// `"fcfs"`, `"mqfq"` or `"mqfq_sticky"`.
    pub arm: &'static str,
    /// Functions completed across both tenants (equal demand is served in
    /// every arm — the disciplines reorder service, they do not shed).
    pub completed: u64,
    /// Jain's index over the two tenants' served-by-horizon occupancy, in
    /// permille. FCFS serves in proportion to offered load; MQFQ splits
    /// the backlogged horizon evenly.
    pub jain_served_permille: u64,
    /// The heavy tenant's slice (few long functions, most of the demand).
    pub heavy: QueueTenant,
    /// The light tenant's slice (many short functions).
    pub light: QueueTenant,
}

/// One (routing, shedding) policy combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetVariant {
    /// Cluster-balancer routing policy label.
    pub fleet_policy: &'static str,
    /// Admission shedding label: `weighted_fair` (per-tenant fair
    /// shedding) or `fifo`.
    pub shedding: &'static str,
    /// The measured curve, in offered-rate order.
    pub points: Vec<FleetPoint>,
}

/// The whole fleet sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutput {
    /// Base seed the per-point seeds derive from.
    pub seed: u64,
    /// Fleet size.
    pub num_servers: usize,
    /// Arrival window per point, in seconds.
    pub window_secs: u64,
    /// The cold tenant's fixed offered rate (milli-requests/second).
    pub cold_rps_milli: u64,
    /// One entry per policy combination.
    pub variants: Vec<FleetVariant>,
    /// Migration off/on under the skewed batch-vs-interactive mix, at
    /// equal hardware.
    pub migration: Vec<MigrationArm>,
    /// FCFS vs MQFQ vs MQFQ-Sticky on the skewed two-tenant queueing mix,
    /// at equal hardware and equal demand.
    pub queueing: Vec<QueueArm>,
}

/// The fleet under test: 4 single-GPU servers behind the cluster
/// balancer, platform-wide admission control, optional per-tenant fair
/// shedding.
fn fleet_config(seed: u64, policy: FleetPolicy, fair: bool) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(1))
        .with_num_servers(4)
        .with_fleet_policy(policy)
        .with_max_inflight(MAX_INFLIGHT);
    if fair {
        cfg = cfg.with_weighted_fair();
    }
    cfg
}

/// Two tenants' Poisson streams over `window_secs`: each `(tenant, spin,
/// rate)` offers `rate` milli-requests/second of `spin` deployed by
/// `tenant`. Returns the suite, in stream order, and the merged schedule.
fn tenant_mix(
    seed: u64,
    window_secs: u64,
    tenants: [(&str, Spin, u64); 2],
) -> (Vec<Arc<dyn Workload>>, Schedule) {
    let mut suite: Vec<Arc<dyn Workload>> = Vec::new();
    let mut streams = Vec::new();
    for (i, (tenant, spin, milli_rps)) in tenants.into_iter().enumerate() {
        suite.push(Arc::new(Tenanted::new(tenant, spin)));
        let launches = (milli_rps * window_secs / 1000) as usize;
        streams.push((i, launches, poisson(milli_rps)));
    }
    (suite, Schedule::merged(seed, &streams))
}

/// The load points' two-tenant mix (the attribution run drives it too):
/// the hot tenant's short functions at `hot_rps_milli`, the cold tenant's
/// heavy 4 GB ones at [`COLD_RPS_MILLI`].
pub(crate) fn hot_cold_mix(
    seed: u64,
    hot_rps_milli: u64,
    window_secs: u64,
) -> (Vec<Arc<dyn Workload>>, Schedule) {
    tenant_mix(
        seed,
        window_secs,
        [
            (
                "hot",
                Spin {
                    name: "hot-spin",
                    gpu_secs: HOT_SECS,
                    ..Spin::default()
                },
                hot_rps_milli,
            ),
            (
                "cold",
                Spin {
                    name: "cold-spin",
                    gpu_secs: COLD_SECS,
                    mem: 4 * GB,
                    ..Spin::default()
                },
                COLD_RPS_MILLI,
            ),
        ],
    )
}

/// Tenant slice of a run's results.
fn tenant_point(out: &BackendRunOutput, tenant: &str) -> TenantPoint {
    let arm = summary_of(out, |r| *r.tenant == *tenant);
    TenantPoint {
        launched: arm.launched,
        completed: arm.completed,
        shed: arm.shed,
        goodput_rps_milli: arm.goodput_rps_milli,
        completion_permille: (arm.completed * 1000)
            .checked_div(arm.launched)
            .unwrap_or(0),
        p99_e2e_us: arm.p99_e2e_us,
    }
}

/// Run one load point of one variant. Every variant at the same
/// `(base_seed, idx)` replays the identical schedule.
fn run_point(
    base_seed: u64,
    idx: usize,
    hot_rps_milli: u64,
    window_secs: u64,
    policy: FleetPolicy,
    fair: bool,
) -> FleetPoint {
    // Distinct, deterministic seed per load point — shared across the
    // four variants so their schedules are identical.
    let seed = point_seed(base_seed, idx as u64);
    let (suite, schedule) = hot_cold_mix(seed, hot_rps_milli, window_secs);
    let cfg = fleet_config(seed, policy, fair);
    let out = Testbed::run_platform_schedule(&cfg, &suite, &schedule);
    let hot = tenant_point(&out, "hot");
    let cold = tenant_point(&out, "cold");
    let all = summary_of(&out, |_| true);
    let jain = jain_permille(&[hot.goodput_rps_milli, cold.goodput_rps_milli]);
    FleetPoint {
        hot_rps_milli,
        p50_e2e_us: all.p50_e2e_us,
        p99_e2e_us: all.p99_e2e_us,
        jain_permille: jain,
        hot,
        cold,
    }
}

/// Chunks per batch function in the migration comparison (each 250 ms of
/// GPU time, each followed by a sync — a migration-eligible boundary).
const BATCH_CHUNKS: usize = 24;
/// Interactive tenant's offered rate in the migration comparison
/// (milli-requests/second). Light enough that the monitor regularly sees
/// the second GPU idle (the migration-target condition), yet steady
/// enough to prove migration does not evict interactive traffic.
const INTERACTIVE_RPS_MILLI: u64 = 1_000;

/// The migration comparison's fleet: 2 servers × 2 GPUs with 2-way
/// sharing and best-fit placement — the §VIII-E packing that strands an
/// idle GPU next to a contended one — with only the monitor's migration
/// policy toggled between arms.
fn migration_config(seed: u64, migration: bool) -> PlatformConfig {
    PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(
            GpuServerConfig::paper_default()
                .gpus(2)
                .sharing(2)
                .with_policy(PlacementPolicy::BestFit)
                .with_migration(migration),
        )
        .with_num_servers(2)
        .with_fleet_policy(FleetPolicy::RoundRobin)
}

/// Run one arm of the migration comparison. Both arms replay the same
/// skewed two-tenant schedule: four long chunked batch functions land
/// almost at once (best-fit packs two per server onto one GPU), while a
/// Poisson stream of short interactive functions keeps the other GPU
/// warm. With migration on, the monitor spreads each server's batch pair
/// across both GPUs mid-function; off, the pair time-shares one GPU to
/// the end.
fn migration_arm(base_seed: u64, window_secs: u64, on: bool) -> MigrationArm {
    let seed = base_seed.wrapping_add(0xD15A_66E6);
    let suite: Vec<Arc<dyn Workload>> = vec![
        Arc::new(Tenanted::new(
            "batch",
            Spin {
                name: "batch-chunked",
                gpu_secs: 0.25,
                chunks: BATCH_CHUNKS,
                mem: 2 * GB,
                ..Spin::default()
            },
        )),
        Arc::new(Tenanted::new(
            "interactive",
            Spin {
                name: "interactive-chunked",
                gpu_secs: 0.15,
                chunks: 2,
                ..Spin::default()
            },
        )),
    ];
    let n_interactive = (INTERACTIVE_RPS_MILLI * window_secs / 1000) as usize;
    let mut schedule =
        Schedule::merged(seed, &[(1, n_interactive, poisson(INTERACTIVE_RPS_MILLI))]);
    // The batch pairs launch once the fleet is provisioned and routable
    // (at t=0 a member may not have registered a live API server yet,
    // skewing the round-robin split), milliseconds apart so best-fit
    // packs each pair onto one GPU per server.
    for i in 0..4u64 {
        schedule
            .entries
            .push((SimTime::ZERO + Dur::from_millis(200 + i), 0));
    }
    schedule.entries.sort_by_key(|&(at, w)| (at, w));
    let out = Testbed::run_platform_schedule(&migration_config(seed, on), &suite, &schedule);
    // Fault-free arms must satisfy the exactly-once oracle outright.
    dgsf::check_backend_run(&out).assert_ok();
    let all = summary_of(&out, |_| true);
    MigrationArm {
        migration: if on { "on" } else { "off" },
        completed: all.completed,
        migrations: out.migrations.iter().map(|m| m.len() as u64).sum(),
        p50_e2e_us: all.p50_e2e_us,
        p99_e2e_us: all.p99_e2e_us,
        batch_p99_e2e_us: summary_of(&out, |r| &*r.tenant == "batch").p99_e2e_us,
        interactive_p99_e2e_us: summary_of(&out, |r| &*r.tenant == "interactive").p99_e2e_us,
    }
}

/// GPU seconds per heavy-tenant invocation in the queueing comparison.
const HEAVY_SECS: f64 = 0.8;
/// GPU seconds per light-tenant invocation — 4× shorter, so under FCFS
/// each one queues behind a convoy of heavy functions.
const LIGHT_SECS: f64 = 0.2;
/// Heavy tenant's offered rate (milli-requests/second): 8 GPU-seconds of
/// work per second against a 2-GPU fleet — far past its half share.
const HEAVY_RPS_MILLI: u64 = 10_000;
/// Light tenant's offered rate (milli-requests/second): 3 GPU-seconds of
/// work per second — also past its half share, so *both* tenants stay
/// backlogged over the horizon and the queue discipline alone decides the
/// split.
const LIGHT_RPS_MILLI: u64 = 15_000;

/// The queueing comparison's fleet: 2 single-GPU servers with 2-way
/// sharing and no admission cap, so nothing is shed and every arm serves
/// the identical demand — only the order differs.
fn queueing_config(seed: u64, policy: FleetPolicy, mqfq: bool, sticky: bool) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper_default()
        .with_seed(seed)
        .with_server(GpuServerConfig::paper_default().gpus(1).sharing(2))
        .with_num_servers(2)
        .with_fleet_policy(policy);
    if mqfq {
        cfg = cfg.with_mqfq();
    }
    if sticky {
        cfg = cfg.with_sticky();
    }
    cfg
}

/// Run one arm of the queueing comparison. Every arm at the same seed
/// replays the identical two-tenant Poisson schedule.
fn queueing_arm(
    base_seed: u64,
    window_secs: u64,
    arm: &'static str,
    policy: FleetPolicy,
    mqfq: bool,
    sticky: bool,
) -> QueueArm {
    let seed = base_seed.wrapping_add(0x0FA1_2C55);
    let (suite, schedule) = tenant_mix(
        seed,
        window_secs,
        [
            (
                "heavy",
                Spin {
                    name: "heavy-spin",
                    gpu_secs: HEAVY_SECS,
                    mem: 2 * GB,
                    ..Spin::default()
                },
                HEAVY_RPS_MILLI,
            ),
            (
                "light",
                Spin {
                    name: "light-spin",
                    gpu_secs: LIGHT_SECS,
                    ..Spin::default()
                },
                LIGHT_RPS_MILLI,
            ),
        ],
    );
    let cfg = queueing_config(seed, policy, mqfq, sticky);
    let out = Testbed::run_platform_schedule(&cfg, &suite, &schedule);
    dgsf::check_backend_run(&out).assert_ok();
    // The fairness horizon: the arrival window after the first launch.
    // Past it the backlog drains tenant by tenant, which would launder an
    // unfair discipline's split back toward the demand ratio.
    let horizon = out.first_launch + Dur::from_secs(window_secs);
    let slice_of = |tenant: &str| -> QueueTenant {
        let mut delays_us: Vec<u64> = Vec::new();
        let mut served_ns: u64 = 0;
        let mut servers_touched: u64 = 0;
        for server_records in &out.records {
            let mut touched = false;
            for r in server_records.iter().filter(|r| *r.tenant == *tenant) {
                touched = true;
                if let Some(d) = r.queue_delay() {
                    delays_us.push(d.as_nanos() / 1_000);
                }
                if let (Some(assigned), Some(done)) = (r.assigned_at, r.done_at) {
                    if done <= horizon {
                        served_ns += done.since(assigned).as_nanos();
                    }
                }
            }
            if touched {
                servers_touched += 1;
            }
        }
        delays_us.sort_unstable();
        QueueTenant {
            completed: summary_of(&out, |r| *r.tenant == *tenant).completed,
            served_by_horizon_ms: served_ns / 1_000_000,
            p50_queue_delay_us: percentile_permille(&delays_us, 500),
            p99_queue_delay_us: percentile_permille(&delays_us, 990),
            servers_touched,
        }
    };
    let heavy = slice_of("heavy");
    let light = slice_of("light");
    QueueArm {
        arm,
        completed: heavy.completed + light.completed,
        jain_served_permille: jain_permille(&[
            heavy.served_by_horizon_ms,
            light.served_by_horizon_ms,
        ]),
        heavy,
        light,
    }
}

/// The four policy combinations of the sweep.
const VARIANTS: &[(FleetPolicy, bool)] = &[
    (FleetPolicy::RoundRobin, false),
    (FleetPolicy::RoundRobin, true),
    (FleetPolicy::LoadAware, false),
    (FleetPolicy::LoadAware, true),
];

/// Run the full fleet sweep. `quick` shrinks the arrival window (CI
/// smoke); deterministic per `(seed, quick)`.
pub fn fleet(seed: u64, quick: bool) -> FleetOutput {
    let window_secs = if quick { 4 } else { 10 };
    let variants = VARIANTS
        .iter()
        .map(|&(policy, fair)| FleetVariant {
            fleet_policy: policy.label(),
            shedding: if fair { "weighted_fair" } else { "fifo" },
            points: HOT_RATES_MILLI_RPS
                .iter()
                .enumerate()
                .map(|(i, &r)| run_point(seed, i, r, window_secs, policy, fair))
                .collect(),
        })
        .collect();
    let mig_window = if quick { 6 } else { 12 };
    FleetOutput {
        seed,
        num_servers: 4,
        window_secs,
        cold_rps_milli: COLD_RPS_MILLI,
        variants,
        migration: vec![
            migration_arm(seed, mig_window, false),
            migration_arm(seed, mig_window, true),
        ],
        queueing: {
            let q_window = if quick { 4 } else { 8 };
            vec![
                queueing_arm(
                    seed,
                    q_window,
                    "fcfs",
                    FleetPolicy::RoundRobin,
                    false,
                    false,
                ),
                queueing_arm(seed, q_window, "mqfq", FleetPolicy::RoundRobin, true, false),
                queueing_arm(
                    seed,
                    q_window,
                    "mqfq_sticky",
                    FleetPolicy::LoadAware,
                    true,
                    true,
                ),
            ]
        },
    }
}

fn tenant_json(j: &mut JsonWriter, t: &TenantPoint) {
    j.object(Inline, |j| {
        j.key("launched").u64(t.launched);
        j.key("completed").u64(t.completed);
        j.key("shed").u64(t.shed);
        j.key("goodput_rps_milli").u64(t.goodput_rps_milli);
        j.key("completion_permille").u64(t.completion_permille);
        j.key("p99_e2e_us").u64(t.p99_e2e_us);
    });
}

fn queue_tenant_json(j: &mut JsonWriter, t: &QueueTenant) {
    j.object(Inline, |j| {
        j.key("completed").u64(t.completed);
        j.key("served_by_horizon_ms").u64(t.served_by_horizon_ms);
        j.key("p50_queue_delay_us").u64(t.p50_queue_delay_us);
        j.key("p99_queue_delay_us").u64(t.p99_queue_delay_us);
        j.key("servers_touched").u64(t.servers_touched);
    });
}

/// Render the sweep as JSON. Integers only — byte-identical per seed.
pub fn fleet_json(f: &FleetOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(f.seed);
        j.key("num_servers").u64(f.num_servers as u64);
        j.key("window_secs").u64(f.window_secs);
        j.key("cold_rps_milli").u64(f.cold_rps_milli);
        j.key("variants").array(Lines(4), |j| {
            for v in &f.variants {
                j.object(Inline, |j| {
                    j.key("fleet_policy").str(v.fleet_policy);
                    j.key("shed_policy").str(v.shedding);
                    j.key("points").array(Lines(6), |j| {
                        for p in &v.points {
                            j.object(Inline, |j| {
                                j.key("hot_rps_milli").u64(p.hot_rps_milli);
                                j.key("p50_e2e_us").u64(p.p50_e2e_us);
                                j.key("p99_e2e_us").u64(p.p99_e2e_us);
                                j.key("jain_permille").u64(p.jain_permille);
                                tenant_json(j.key("hot"), &p.hot);
                                tenant_json(j.key("cold"), &p.cold);
                            });
                        }
                    });
                });
            }
        });
        j.key("migration").array(Lines(4), |j| {
            for m in &f.migration {
                j.object(Inline, |j| {
                    j.key("migration").str(m.migration);
                    j.key("completed").u64(m.completed);
                    j.key("migrations").u64(m.migrations);
                    j.key("p50_e2e_us").u64(m.p50_e2e_us);
                    j.key("p99_e2e_us").u64(m.p99_e2e_us);
                    j.key("batch_p99_e2e_us").u64(m.batch_p99_e2e_us);
                    j.key("interactive_p99_e2e_us")
                        .u64(m.interactive_p99_e2e_us);
                });
            }
        });
        j.key("queueing").array(Lines(4), |j| {
            for q in &f.queueing {
                j.object(Inline, |j| {
                    j.key("arm").str(q.arm);
                    j.key("completed").u64(q.completed);
                    j.key("jain_served_permille").u64(q.jain_served_permille);
                    queue_tenant_json(j.key("heavy"), &q.heavy);
                    queue_tenant_json(j.key("light"), &q.light);
                });
            }
        });
    });
    j.finish()
}

/// Human-readable table of the sweep.
pub fn fleet_text(f: &FleetOutput) -> String {
    let mut t = TextTable::new(vec![
        "routing",
        "shedding",
        "hot rps",
        "p99 e2e",
        "jain",
        "hot done/shed",
        "cold done/shed",
        "hot goodput",
        "cold goodput",
    ]);
    for v in &f.variants {
        for p in &v.points {
            t.row(vec![
                v.fleet_policy.to_string(),
                v.shedding.to_string(),
                format!("{:.1}", p.hot_rps_milli as f64 / 1000.0),
                format!("{:.2}s", p.p99_e2e_us as f64 / 1e6),
                format!("{:.3}", p.jain_permille as f64 / 1000.0),
                format!("{}/{}", p.hot.completed, p.hot.shed),
                format!("{}/{}", p.cold.completed, p.cold.shed),
                format!("{:.2}", p.hot.goodput_rps_milli as f64 / 1000.0),
                format!("{:.2}", p.cold.goodput_rps_milli as f64 / 1000.0),
            ]);
        }
    }
    let mut m = TextTable::new(vec![
        "migration",
        "completed",
        "moves",
        "p50 e2e",
        "p99 e2e",
        "batch p99",
        "interactive p99",
    ]);
    for a in &f.migration {
        m.row(vec![
            a.migration.to_string(),
            a.completed.to_string(),
            a.migrations.to_string(),
            format!("{:.2}s", a.p50_e2e_us as f64 / 1e6),
            format!("{:.2}s", a.p99_e2e_us as f64 / 1e6),
            format!("{:.2}s", a.batch_p99_e2e_us as f64 / 1e6),
            format!("{:.2}s", a.interactive_p99_e2e_us as f64 / 1e6),
        ]);
    }
    let mut q = TextTable::new(vec![
        "queueing",
        "completed",
        "jain(served)",
        "heavy served",
        "light served",
        "light p50 qdelay",
        "light p99 qdelay",
        "heavy servers",
        "light servers",
    ]);
    for a in &f.queueing {
        q.row(vec![
            a.arm.to_string(),
            a.completed.to_string(),
            format!("{:.3}", a.jain_served_permille as f64 / 1000.0),
            format!("{:.2}s", a.heavy.served_by_horizon_ms as f64 / 1e3),
            format!("{:.2}s", a.light.served_by_horizon_ms as f64 / 1e3),
            format!("{:.1}ms", a.light.p50_queue_delay_us as f64 / 1e3),
            format!("{:.1}ms", a.light.p99_queue_delay_us as f64 / 1e3),
            a.heavy.servers_touched.to_string(),
            a.light.servers_touched.to_string(),
        ]);
    }
    format!("{}\n{}\n{}", t.render(), m.render(), q.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_halves_the_stranded_batch_pair_tail() {
        let off = migration_arm(42, 6, false);
        let on = migration_arm(42, 6, true);
        assert_eq!(off.migrations, 0, "off arm must not move anything");
        assert!(on.migrations >= 1, "monitor must migrate under the skew");
        assert_eq!(on.completed, off.completed, "same demand served");
        assert!(
            on.batch_p99_e2e_us < off.batch_p99_e2e_us,
            "batch p99 must improve: on {}us vs off {}us",
            on.batch_p99_e2e_us,
            off.batch_p99_e2e_us
        );
        assert!(
            on.p99_e2e_us < off.p99_e2e_us,
            "overall p99 must improve: on {}us vs off {}us",
            on.p99_e2e_us,
            off.p99_e2e_us
        );
    }

    #[test]
    fn one_light_point_serves_both_tenants() {
        // Light load, plain FIFO round-robin: nobody shed.
        let p = run_point(42, 0, 2_000, 3, FleetPolicy::RoundRobin, false);
        assert_eq!(p.hot.launched, 6);
        assert_eq!(p.cold.launched, 6);
        assert_eq!(p.hot.shed + p.cold.shed, 0);
        assert_eq!(p.hot.completion_permille, 1000);
        assert_eq!(p.cold.completion_permille, 1000);
    }
}
