//! Cluster-layer invariants: the balancer never routes to a lease-expired
//! server (property-tested over arbitrary gauge snapshots), weighted
//! fair shedding guarantees a tenant its share no matter how hard another
//! tenant floods the platform, and sticky tenant placement never lets a
//! tenant's warm set outgrow the max-share bound while cutting its
//! cold-placement spread versus round-robin.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf_gpu::GB;
use dgsf_remoting::{NetProfile, OptConfig};
use dgsf_server::{FleetPolicy, GpuServer, GpuServerConfig, ServerGauges};
use dgsf_serverless::cluster::select;
use dgsf_serverless::{
    AdmissionConfig, Backend, ClusterBalancer, FairShedConfig, ObjectStore, PhaseRecorder,
    StickyConfig, Tenanted, Workload,
};
use dgsf_sim::{Dur, ProcCtx, Sim, SimCell};
use proptest::prelude::*;

fn gauges_strategy() -> impl Strategy<Value = ServerGauges> {
    (
        0usize..5,
        0usize..5,
        0usize..12,
        0usize..12,
        0u64..32,
        0usize..3,
    )
        .prop_map(
            |(live, failed, active, queued, mem_gb, migrations)| ServerGauges {
                pool_size: live + failed,
                failed_api_servers: failed,
                active_functions: active,
                queued_functions: queued,
                used_mem_bytes: mem_gb * GB,
                total_mem_bytes: 16 * GB,
                migrations_in_flight: migrations,
            },
        )
}

fn policy_strategy() -> impl Strategy<Value = FleetPolicy> {
    (0usize..4).prop_map(|i| match i {
        0 => FleetPolicy::RoundRobin,
        1 => FleetPolicy::LeastLoaded,
        2 => FleetPolicy::MostLoaded,
        _ => FleetPolicy::LoadAware,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The routing invariant of the cluster balancer: whatever the fleet
    /// looks like, a server whose whole API-server pool is lease-expired
    /// is never selected — and a live server is found whenever one exists.
    #[test]
    fn balancer_never_selects_a_lease_expired_server(
        snaps in proptest::collection::vec(gauges_strategy(), 1..10),
        policy in policy_strategy(),
        rr in 0usize..64,
        avoid_raw in proptest::option::of(0usize..10),
    ) {
        let avoid = avoid_raw.map(|a| a % snaps.len());
        let picked = select(policy, &snaps, rr, avoid);
        let any_live = snaps.iter().any(|g| g.lease_live());
        match picked {
            Some(i) => {
                prop_assert!(i < snaps.len());
                prop_assert!(
                    snaps[i].lease_live(),
                    "policy {policy:?} picked lease-expired server {i}"
                );
            }
            None => prop_assert!(
                !any_live,
                "returned None although a live server exists"
            ),
        }
        // And the choice is a pure function of its inputs.
        prop_assert_eq!(picked, select(policy, &snaps, rr, avoid));
    }

    /// `avoid` steers away from the named server whenever any other live
    /// server exists.
    #[test]
    fn avoid_is_honored_when_an_alternative_exists(
        snaps in proptest::collection::vec(gauges_strategy(), 2..10),
        policy in policy_strategy(),
        rr in 0usize..64,
        avoid_raw in 0usize..10,
    ) {
        let avoid = avoid_raw % snaps.len();
        let others_live = snaps
            .iter()
            .enumerate()
            .any(|(i, g)| i != avoid && g.lease_live());
        if let Some(i) = select(policy, &snaps, rr, Some(avoid)) {
            if others_live {
                prop_assert_ne!(i, avoid, "picked the avoided server {avoid}");
            }
        }
    }

    /// The stickiness bound: with max-share = 50%, a tenant's warm set
    /// never outgrows half the fleet, whatever the gauges look like —
    /// and once the set is full, every route lands inside it.
    #[test]
    fn sticky_max_share_bounds_a_tenants_footprint(
        snaps in proptest::collection::vec(gauges_strategy(), 2..10),
        routes in 1usize..64,
    ) {
        let bal = ClusterBalancer::new(FleetPolicy::RoundRobin)
            .with_sticky(&Sim::new(0).handle(), StickyConfig::new().with_max_share(500));
        let cap = ((snaps.len() as u64 * 500) / 1000).max(1) as usize;
        for _ in 0..routes {
            let warm_before = bal.warm_servers_of("heavy");
            let picked = bal.route_snapshots_for("heavy", &snaps, None);
            match picked {
                Some(i) => {
                    prop_assert!(snaps[i].lease_live());
                    if warm_before.len() >= cap
                        && warm_before.iter().any(|&w| snaps[w].lease_live())
                    {
                        prop_assert!(
                            warm_before.contains(&i),
                            "a capped tenant must stay on its warm set"
                        );
                    }
                }
                None => prop_assert!(!snaps.iter().any(|g| g.lease_live())),
            }
            prop_assert!(
                bal.warm_servers_of("heavy").len() <= cap,
                "warm set {} exceeds the max-share cap {cap}",
                bal.warm_servers_of("heavy").len()
            );
        }
    }
}

/// A short spin function with a configurable name.
struct Spin(&'static str);

impl Workload for Spin {
    fn name(&self) -> &str {
        self.0
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
        p: &ProcCtx,
        api: &mut dyn dgsf_cuda::CudaApi,
        rec: &mut PhaseRecorder,
    ) -> CudaResult<()> {
        rec.enter(p, dgsf_serverless::phase::PROCESSING);
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

/// The fair-shedding guarantee: a flooding hot tenant can never push a
/// tenant that stays within its weighted share into being shed. The cold
/// tenant's shed count stays zero however many functions the hot tenant
/// throws at the platform.
#[test]
fn hot_tenant_cannot_shed_a_tenant_within_its_share() {
    let mut sim = Sim::new(7);
    let h = sim.handle();
    let shed_by_tenant = Rc::new(SimCell::new(&h, (0usize, 0usize))); // (hot, cold)
    let counts = Rc::clone(&shed_by_tenant);
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default().gpus(2);
        let srv = GpuServer::provision(p, &h, cfg);
        // 4 slots, equal weights ⇒ 2 guaranteed slots per tenant. No
        // bucket refill: borrowing is a one-shot burst, so the guarantee
        // is exercised in its tightest form.
        let b = Rc::new(
            Backend::new(&h, vec![srv], FleetPolicy::RoundRobin).with_admission(
                AdmissionConfig::new(4).with_weighted_fair(
                    FairShedConfig::new()
                        .with_weight("hot", 1)
                        .with_weight("cold", 1)
                        .with_burst(1)
                        .with_refill(0),
                ),
            ),
        );
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        // Hot floods 40 functions in the first 200 ms.
        for i in 0..40 {
            let b = Rc::clone(&b);
            let store = Arc::clone(&store);
            let counts = Rc::clone(&counts);
            h.spawn(&format!("hot{i}"), move |p| {
                p.sleep(Dur::from_millis(5 * i as u64));
                let r = b.invoke(
                    p,
                    &store,
                    &Tenanted::new("hot", Spin("hot-fn")),
                    OptConfig::full(),
                );
                if r.shed {
                    counts.lock().0 += 1;
                }
            });
        }
        // Cold launches sequentially: at most 1 in flight — always within
        // its guaranteed share of 2.
        let b2 = Rc::clone(&b);
        let store2 = Arc::clone(&store);
        let counts2 = Rc::clone(&counts);
        h.spawn("cold", move |p| {
            for _ in 0..8 {
                let r = b2.invoke(
                    p,
                    &store2,
                    &Tenanted::new("cold", Spin("cold-fn")),
                    OptConfig::full(),
                );
                if r.shed {
                    counts2.lock().1 += 1;
                }
                p.sleep(Dur::from_millis(100));
            }
        });
    });
    sim.run();
    let (hot_shed, cold_shed) = *shed_by_tenant.lock();
    assert!(
        hot_shed > 0,
        "the flood must exceed hot's share and be shed ({hot_shed})"
    );
    assert_eq!(
        cold_shed, 0,
        "a tenant within its weighted share is never shed"
    );
}

/// Sanity check of the FIFO baseline on the identical scenario: the flood
/// does spill onto the cold tenant, which is exactly what weighted fair
/// shedding prevents.
#[test]
fn fifo_baseline_lets_the_flood_starve_the_cold_tenant() {
    let mut sim = Sim::new(7);
    let h = sim.handle();
    let cold_shed = Rc::new(SimCell::new(&h, 0usize));
    let cold_counter = Rc::clone(&cold_shed);
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default().gpus(2);
        let srv = GpuServer::provision(p, &h, cfg);
        let b = Rc::new(
            Backend::new(&h, vec![srv], FleetPolicy::RoundRobin)
                .with_admission(AdmissionConfig::new(4)),
        );
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for i in 0..40 {
            let b = Rc::clone(&b);
            let store = Arc::clone(&store);
            h.spawn(&format!("hot{i}"), move |p| {
                p.sleep(Dur::from_millis(5 * i as u64));
                let _ = b.invoke(
                    p,
                    &store,
                    &Tenanted::new("hot", Spin("hot-fn")),
                    OptConfig::full(),
                );
            });
        }
        let b2 = Rc::clone(&b);
        let store2 = Arc::clone(&store);
        let counter = Rc::clone(&cold_counter);
        h.spawn("cold", move |p| {
            // Arrive just after the flood has filled every slot.
            p.sleep(Dur::from_millis(50));
            for _ in 0..8 {
                let r = b2.invoke(
                    p,
                    &store2,
                    &Tenanted::new("cold", Spin("cold-fn")),
                    OptConfig::full(),
                );
                if r.shed {
                    *counter.lock() += 1;
                }
                p.sleep(Dur::from_millis(100));
            }
        });
    });
    sim.run();
    assert!(
        *cold_shed.lock() > 0,
        "without fairness the flood sheds the cold tenant too"
    );
}

/// Sticky placement as a cold-start optimization: round-robin walks a
/// light tenant across the entire fleet (every server pays a cold start),
/// while the sticky balancer settles it on its max-share slice and keeps
/// routing there.
#[test]
fn sticky_placement_cuts_the_light_tenants_cold_placements_versus_round_robin() {
    let idle = || ServerGauges {
        pool_size: 2,
        failed_api_servers: 0,
        active_functions: 0,
        queued_functions: 0,
        used_mem_bytes: 0,
        total_mem_bytes: 16 * GB,
        migrations_in_flight: 0,
    };
    let snaps: Vec<ServerGauges> = (0..4).map(|_| idle()).collect();

    // Plain round-robin: 16 routes touch all 4 servers — 4 cold starts.
    let rr = ClusterBalancer::new(FleetPolicy::RoundRobin);
    let mut rr_touched = BTreeSet::new();
    for _ in 0..16 {
        rr_touched.insert(rr.route_snapshots(&snaps, None).expect("live fleet"));
    }
    assert_eq!(
        rr_touched.len(),
        4,
        "round-robin spreads over the whole fleet"
    );

    // Sticky with max-share 50%: the same 16 routes pay at most 2 cold
    // placements, then stay on the warm pair.
    let sticky = ClusterBalancer::new(FleetPolicy::RoundRobin).with_sticky(
        &Sim::new(0).handle(),
        StickyConfig::new().with_max_share(500),
    );
    let mut sticky_touched = BTreeSet::new();
    for _ in 0..16 {
        sticky_touched.insert(
            sticky
                .route_snapshots_for("light", &snaps, None)
                .expect("live fleet"),
        );
    }
    assert!(
        sticky.warm_servers_of("light").len() <= 2,
        "warm set respects the half-fleet bound"
    );
    assert_eq!(
        sticky.cold_placements_of("light") as usize,
        sticky_touched.len(),
        "every cold placement is a first touch of a server"
    );
    assert!(
        (sticky.cold_placements_of("light") as usize) < rr_touched.len(),
        "sticky must pay fewer cold placements ({}) than round-robin ({})",
        sticky.cold_placements_of("light"),
        rr_touched.len()
    );
}
