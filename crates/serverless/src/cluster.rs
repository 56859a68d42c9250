//! The cluster-level fleet balancer (§IV's open policy space, scaled out).
//!
//! The paper's prototype uses a fixed round-robin choice over GPU servers
//! and notes that "different policies can be used in a commercial
//! deployment". This module is that commercial deployment layer: it routes
//! each invocation across a sharded fleet of [`GpuServer`]s using the
//! monitor's exported gauges ([`ServerGauges`]) — queue depth, active
//! functions, live API-server capacity and memory pressure — and it
//! **never** routes to a server whose lease has expired (a server whose
//! whole API-server pool has been declared dead serves nothing).
//!
//! Selection is a pure function ([`select`]) over gauge snapshots, so the
//! routing invariants are property-testable without running a simulation.
//!
//! ## Sticky tenant placement (MQFQ-Sticky)
//!
//! With a [`StickyConfig`] installed, the balancer remembers which fleet
//! members each tenant has landed on (its *warm set* — servers already
//! holding the tenant's warm contexts and cached modules) and steers
//! repeat traffic back there: warm servers get a score bonus under
//! [`FleetPolicy::LoadAware`], and once a tenant's warm set reaches the
//! **max-share bound** (`max_share_permille` of the fleet), routing is
//! confined to the warm set entirely — a heavy tenant concentrates on its
//! slice of the fleet instead of spraying cold starts everywhere, and it
//! can never capture servers beyond its share and defeat the per-tenant
//! fair queues inside each monitor. Warm entries for lease-expired servers
//! are pruned, so a dead server's slot returns to the pool.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dgsf_server::{FleetPolicy, GpuServer, ServerGauges};
use dgsf_sim::{SimCell, SimHandle};

/// Weight of one active/queued function in the load-aware score, relative
/// to one permille of memory pressure. Load dominates (a queued function
/// costs as much as 100% memory pressure); memory breaks ties between
/// equally loaded servers.
const LOAD_WEIGHT: u64 = 1000;

/// Penalty per in-flight migration in the load-aware score: a migrating
/// server is briefly stalled at an API-call boundary (quiesce + state
/// transfer), so new work placed there eats that stall. Half a per-slot
/// function's weight steers traffic away without blacklisting the box.
const MIGRATION_WEIGHT: u64 = 500 * LOAD_WEIGHT;

/// Load-aware score of one server: lower is better. Combines queue depth
/// and active functions (normalized by live capacity, so a big server
/// absorbs more before looking loaded) with memory pressure in permille,
/// plus a transient penalty while migrations are in flight.
fn load_score(g: &ServerGauges) -> u64 {
    let live = g.live_api_servers().max(1) as u64;
    let load = g.active_functions as u64 + g.queued_functions as u64;
    // Per-slot load in milli-functions: 1500 means 1.5 functions per live
    // API server (queue building up).
    let per_slot_milli = load.saturating_mul(1000) / live;
    per_slot_milli
        .saturating_mul(LOAD_WEIGHT)
        .saturating_add(g.mem_used_permille())
        .saturating_add((g.migrations_in_flight as u64).saturating_mul(MIGRATION_WEIGHT))
}

/// Bounded sticky tenant→server placement (the "Sticky" half of
/// MQFQ-Sticky).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StickyConfig {
    /// Largest fraction of the fleet (per mille) one tenant's warm set may
    /// span; once reached, the tenant's traffic is confined to its warm
    /// servers. At least one server is always allowed.
    pub max_share_permille: u64,
}

impl Default for StickyConfig {
    fn default() -> Self {
        StickyConfig {
            max_share_permille: 500,
        }
    }
}

impl StickyConfig {
    /// Default stickiness: half the fleet per tenant.
    pub fn new() -> StickyConfig {
        StickyConfig::default()
    }

    /// Set the max-share bound (per mille, clamped to 1..=1000).
    pub fn with_max_share(mut self, permille: u64) -> Self {
        self.max_share_permille = permille.clamp(1, 1000);
        self
    }
}

/// One tenant's placement affinity, resolved against the live fleet.
#[derive(Debug, Clone, Copy)]
pub struct TenantAffinity<'w> {
    /// Fleet indices already warm for the tenant (lease-live only),
    /// borrowed from the balancer's warm-set memory.
    pub warm: &'w BTreeSet<usize>,
    /// True when the warm set has reached the max-share bound: routing is
    /// confined to warm servers (unless none is live).
    pub capped: bool,
}

/// Load-score bonus a warm server gets under [`FleetPolicy::LoadAware`]
/// before the max-share cap bites: large enough to win most ties against
/// cold servers, small enough that a genuinely overloaded warm server still
/// loses: 1.5 functions per slot of load (1 000 000 = one whole function).
const STICKY_BONUS: u64 = 1_500_000;

/// Choose a fleet index under `policy` from gauge `snaps`.
///
/// * Servers with no live API server (expired lease) are never eligible.
/// * `avoid` (the server a previous attempt just failed on) is skipped
///   when any other live server exists.
/// * `rr` is the round-robin cursor value for [`FleetPolicy::RoundRobin`].
/// * A tenant `affinity` (sticky placement) confines a capped tenant to
///   its live warm servers (falling back to the whole fleet only when none
///   of them is live); an uncapped tenant sees its warm servers win
///   load-aware ties through the score bonus.
/// * Ties break toward the lowest index, so the choice is deterministic.
///
/// Returns `None` when every server's lease has expired.
pub fn select(
    policy: FleetPolicy,
    snaps: &[ServerGauges],
    rr: usize,
    avoid: Option<usize>,
    affinity: Option<TenantAffinity>,
) -> Option<usize> {
    let live = |i: &usize| snaps[*i].lease_live();
    let mut pool: Vec<usize> = (0..snaps.len()).collect();
    if let Some(aff) = affinity {
        if aff.capped {
            let warm_live: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|i| aff.warm.contains(i))
                .filter(live)
                .collect();
            if !warm_live.is_empty() {
                pool = warm_live;
            }
        }
    }
    let mut eligible: Vec<usize> = pool
        .iter()
        .copied()
        .filter(live)
        .filter(|&i| Some(i) != avoid)
        .collect();
    if eligible.is_empty() {
        // Nothing but the avoided server left: better a suspect server
        // than none, as long as its lease is live.
        eligible = pool.into_iter().filter(live).collect();
    }
    if eligible.is_empty() {
        return None;
    }
    let warm_bonus = |i: usize| -> u64 {
        match affinity {
            Some(aff) if aff.warm.contains(&i) => STICKY_BONUS,
            _ => 0,
        }
    };
    let pick = match policy {
        FleetPolicy::RoundRobin => eligible[rr % eligible.len()],
        FleetPolicy::LoadAware => eligible
            .into_iter()
            .min_by_key(|&i| (load_score(&snaps[i]).saturating_sub(warm_bonus(i)), i))
            .expect("non-empty"),
    };
    Some(pick)
}

/// Per-tenant warm-set memory of a sticky balancer.
#[derive(Debug, Default)]
struct StickyState {
    /// Fleet indices each tenant has been routed to (its warm contexts).
    warm: BTreeMap<String, BTreeSet<usize>>,
    /// Cold placements per tenant: routes that grew the warm set (the
    /// tenant had never touched that server). A sticky balancer should
    /// keep this far below the round-robin spray.
    cold_placements: BTreeMap<String, u64>,
}

/// The balancer: a fleet policy plus the round-robin cursor, and — when
/// stickiness is configured — the per-tenant warm-set memory. Cheap to
/// share; [`crate::Backend`] owns one and consults it per attempt.
pub struct ClusterBalancer {
    policy: FleetPolicy,
    rr: Cell<usize>,
    sticky: Option<(StickyConfig, SimCell<StickyState>)>,
}

impl ClusterBalancer {
    /// A balancer under `policy`, without tenant stickiness.
    pub fn new(policy: FleetPolicy) -> ClusterBalancer {
        ClusterBalancer {
            policy,
            rr: Cell::new(0),
            sticky: None,
        }
    }

    /// Builder-style: enable bounded sticky tenant placement, its warm-set
    /// memory in a cell of the simulation `h` belongs to.
    pub fn with_sticky(mut self, h: &SimHandle, cfg: StickyConfig) -> ClusterBalancer {
        self.sticky = Some((cfg, SimCell::new(h, StickyState::default())));
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> FleetPolicy {
        self.policy
    }

    /// Route one of `tenant`'s invocations across `fleet`, steering away
    /// from `avoid` when possible, with sticky placement when it is
    /// configured. `None` means the whole fleet is lease-expired.
    pub fn route_for(
        &self,
        tenant: &str,
        fleet: &[Arc<GpuServer>],
        avoid: Option<usize>,
    ) -> Option<usize> {
        let snaps: Vec<ServerGauges> = fleet.iter().map(|s| s.gauges()).collect();
        self.route_snapshots_for(tenant, &snaps, avoid)
    }

    /// [`route_for`](Self::route_for) over pre-collected gauges (the
    /// testable entry point).
    ///
    /// Advances the round-robin cursor. With stickiness on, it also prunes
    /// lease-expired servers from the tenant's warm set, applies the
    /// max-share cap and warm bonus, and records the chosen server back
    /// into the warm set (counting a cold placement when the server was
    /// new to the tenant).
    pub fn route_snapshots_for(
        &self,
        tenant: &str,
        snaps: &[ServerGauges],
        avoid: Option<usize>,
    ) -> Option<usize> {
        let rr = match self.policy {
            FleetPolicy::RoundRobin => self.rr.replace(self.rr.get() + 1),
            _ => 0,
        };
        let Some((cfg, state)) = &self.sticky else {
            return select(self.policy, snaps, rr, avoid, None);
        };
        let mut st = state.lock();
        // The tenant's name is allocated only when it is first seen.
        if !st.warm.contains_key(tenant) {
            st.warm.insert(tenant.to_owned(), BTreeSet::new());
        }
        let warm = st.warm.get_mut(tenant).expect("inserted above");
        // A dead server's warm contexts are gone; its slot in the share
        // returns to the pool.
        warm.retain(|&i| i < snaps.len() && snaps[i].lease_live());
        let cap = ((snaps.len() as u64 * cfg.max_share_permille) / 1000).max(1) as usize;
        let aff = TenantAffinity {
            warm,
            capped: warm.len() >= cap,
        };
        let pick = select(self.policy, snaps, rr, avoid, Some(aff))?;
        if warm.insert(pick) {
            match st.cold_placements.get_mut(tenant) {
                Some(n) => *n += 1,
                None => {
                    st.cold_placements.insert(tenant.to_owned(), 1);
                }
            }
        }
        Some(pick)
    }

    /// The tenant's current warm set (empty when stickiness is off).
    pub fn warm_servers_of(&self, tenant: &str) -> BTreeSet<usize> {
        match &self.sticky {
            Some((_, state)) => state.lock().warm.get(tenant).cloned().unwrap_or_default(),
            None => BTreeSet::new(),
        }
    }

    /// How many of the tenant's routes landed on a server it had never
    /// touched (cold placements; 0 when stickiness is off).
    pub fn cold_placements_of(&self, tenant: &str) -> u64 {
        match &self.sticky {
            Some((_, state)) => state
                .lock()
                .cold_placements
                .get(tenant)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> SimHandle {
        dgsf_sim::Sim::new(0).handle()
    }

    fn gauges(live: usize, failed: usize, active: usize, queued: usize) -> ServerGauges {
        ServerGauges {
            pool_size: live + failed,
            failed_api_servers: failed,
            active_functions: active,
            queued_functions: queued,
            used_mem_bytes: 0,
            total_mem_bytes: 16 << 30,
            migrations_in_flight: 0,
        }
    }

    #[test]
    fn round_robin_skips_dead_servers() {
        let snaps = vec![gauges(1, 0, 0, 0), gauges(0, 2, 0, 0), gauges(1, 0, 0, 0)];
        let b = ClusterBalancer::new(FleetPolicy::RoundRobin);
        let picks: Vec<usize> = (0..4)
            .map(|_| b.route_snapshots_for("t", &snaps, None).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn load_aware_prefers_idle_then_memory() {
        // Same load, different memory pressure: lower pressure wins.
        let mut a = gauges(2, 0, 1, 0);
        a.used_mem_bytes = 8 << 30;
        let b_ = gauges(2, 0, 1, 0); // 0 bytes used
        assert_eq!(
            select(FleetPolicy::LoadAware, &[a, b_], 0, None, None),
            Some(1)
        );
        // Queue depth dominates memory.
        let mut busy = gauges(2, 0, 2, 3);
        busy.used_mem_bytes = 0;
        let mut calm = gauges(2, 0, 1, 0);
        calm.used_mem_bytes = 12 << 30;
        assert_eq!(
            select(FleetPolicy::LoadAware, &[busy, calm], 0, None, None),
            Some(1)
        );
    }

    #[test]
    fn avoid_is_respected_unless_it_is_the_last_live_server() {
        let snaps = vec![gauges(1, 0, 0, 0), gauges(1, 0, 5, 5)];
        assert_eq!(
            select(FleetPolicy::LoadAware, &snaps, 0, Some(0), None),
            Some(1)
        );
        let lone = vec![gauges(1, 0, 0, 0), gauges(0, 1, 0, 0)];
        assert_eq!(
            select(FleetPolicy::LoadAware, &lone, 0, Some(0), None),
            Some(0)
        );
    }

    #[test]
    fn load_aware_steers_around_in_flight_migrations() {
        // Equal load and memory, but server 0 is mid-migration: the
        // balancer routes to server 1 until the move commits.
        let mut migrating = gauges(2, 0, 1, 0);
        migrating.migrations_in_flight = 1;
        let calm = gauges(2, 0, 1, 0);
        assert_eq!(
            select(FleetPolicy::LoadAware, &[migrating, calm], 0, None, None),
            Some(1)
        );
        // The penalty is transient and bounded: a migrating-but-idle server
        // still beats a heavily queued one.
        let mut migrating_idle = gauges(2, 0, 0, 0);
        migrating_idle.migrations_in_flight = 1;
        let queued = gauges(2, 0, 2, 2);
        assert_eq!(
            select(
                FleetPolicy::LoadAware,
                &[migrating_idle, queued],
                0,
                None,
                None
            ),
            Some(0)
        );
    }

    #[test]
    fn sticky_confines_a_capped_tenant_to_its_warm_set() {
        // 4 servers, max share 50% → warm cap 2.
        let snaps = vec![
            gauges(1, 0, 0, 0),
            gauges(1, 0, 0, 0),
            gauges(1, 0, 0, 0),
            gauges(1, 0, 0, 0),
        ];
        let b = ClusterBalancer::new(FleetPolicy::RoundRobin)
            .with_sticky(&handle(), StickyConfig::new().with_max_share(500));
        for _ in 0..32 {
            let i = b.route_snapshots_for("heavy", &snaps, None).unwrap();
            assert!(b.warm_servers_of("heavy").contains(&i));
        }
        assert!(b.warm_servers_of("heavy").len() <= 2);
        assert_eq!(b.cold_placements_of("heavy"), 2);
    }

    #[test]
    fn sticky_prunes_dead_warm_servers_and_refills_the_share() {
        let live = gauges(1, 0, 0, 0);
        let dead = gauges(0, 1, 0, 0);
        let b = ClusterBalancer::new(FleetPolicy::LoadAware)
            .with_sticky(&handle(), StickyConfig::new().with_max_share(500));
        let snaps = vec![live; 4];
        // The first route warms server 0; loading it past the warm bonus
        // spills the tenant onto a second server, filling the 50% share.
        assert_eq!(b.route_snapshots_for("t", &snaps, None), Some(0));
        let mut loaded = snaps.clone();
        loaded[0] = gauges(1, 0, 6, 6);
        b.route_snapshots_for("t", &loaded, None).unwrap();
        let warm = b.warm_servers_of("t");
        assert_eq!(warm.len(), 2);
        // Kill one warm server: the next route prunes it and routing
        // continues on live servers, never exceeding the cap.
        let dead_idx = *warm.iter().next().unwrap();
        let mut snaps2 = snaps.clone();
        snaps2[dead_idx] = dead;
        let pick = b.route_snapshots_for("t", &snaps2, None).unwrap();
        assert!(snaps2[pick].lease_live());
        let warm2 = b.warm_servers_of("t");
        assert!(
            !warm2.contains(&dead_idx),
            "the dead server is pruned from the warm set"
        );
        assert!(warm2.len() <= 2);
    }

    #[test]
    fn warm_bonus_wins_ties_but_not_against_overload() {
        let b = ClusterBalancer::new(FleetPolicy::LoadAware)
            .with_sticky(&handle(), StickyConfig::new().with_max_share(1000));
        // First route warms server 0 (tie → lowest index).
        let idle = vec![gauges(2, 0, 0, 0), gauges(2, 0, 0, 0)];
        assert_eq!(b.route_snapshots_for("t", &idle, None), Some(0));
        // Equal load: the warm server wins the tie.
        let even = vec![gauges(2, 0, 1, 0), gauges(2, 0, 1, 0)];
        assert_eq!(b.route_snapshots_for("t", &even, None), Some(0));
        // Server 0 heavily overloaded: the bonus must not pin traffic there.
        let skewed = vec![gauges(2, 0, 6, 6), gauges(2, 0, 0, 0)];
        assert_eq!(b.route_snapshots_for("t", &skewed, None), Some(1));
    }

    #[test]
    fn all_dead_routes_nowhere() {
        let snaps = vec![gauges(0, 1, 0, 0), gauges(0, 4, 0, 0)];
        for p in [FleetPolicy::RoundRobin, FleetPolicy::LoadAware] {
            assert_eq!(select(p, &snaps, 0, None, None), None);
        }
    }
}
