//! Per-tenant weighted fair shedding.
//!
//! Admission control (PR 3) bounds the platform-wide in-flight budget, but
//! shedding was FIFO-blind across tenants: one hot customer could occupy
//! every slot and everyone else's arrivals got shed. This module adds the
//! fairness layer: each tenant owns a weighted share of the in-flight
//! budget, guaranteed for as long as it is under that share, plus a token
//! bucket (refilled in proportion to its weight) that meters how fast it
//! may borrow slots *beyond* its share. Under sustained overload the most
//! over-budget tenant drains its bucket first and becomes the one that is
//! shed, while under-share tenants keep being admitted.
//!
//! Everything is integer arithmetic over virtual time (milli-tokens,
//! nanosecond credit), so admission decisions are byte-deterministic per
//! seed.

use std::collections::BTreeMap;

use dgsf_sim::SimTime;

/// Milli-tokens consumed per borrowed admission.
const TOKEN_MILLI: u64 = 1000;

/// Weight of a tenant not named in [`FairShedConfig::weights`].
const DEFAULT_WEIGHT: u64 = 1;

/// Configuration of per-tenant weighted fair shedding.
///
/// Built with [`FairShedConfig::new`] plus `with_*` builders and installed
/// via [`crate::AdmissionConfig::with_weighted_fair`].
#[derive(Debug, Clone)]
pub struct FairShedConfig {
    /// Per-tenant weights. Tenants absent from the map get weight 1 on
    /// first arrival.
    pub weights: BTreeMap<String, u64>,
    /// Token-bucket capacity, in tokens: how many admissions beyond its
    /// fair share a tenant may burst before the refill rate binds.
    pub burst_tokens: u64,
    /// Bucket refill, in milli-tokens per second per weight unit: the
    /// sustained rate at which a tenant may borrow beyond its share.
    pub refill_milli_per_sec_per_weight: u64,
}

impl FairShedConfig {
    /// Equal-weight fairness: every tenant weight 1, a 4-token burst, one
    /// borrowed admission per second per weight unit sustained.
    pub fn new() -> FairShedConfig {
        FairShedConfig {
            weights: BTreeMap::new(),
            burst_tokens: 4,
            refill_milli_per_sec_per_weight: 1000,
        }
    }

    /// Builder-style: set one tenant's weight.
    pub fn with_weight(mut self, tenant: &str, weight: u64) -> Self {
        self.weights.insert(tenant.to_string(), weight.max(1));
        self
    }

    /// Builder-style: token-bucket burst capacity.
    pub fn with_burst(mut self, tokens: u64) -> Self {
        self.burst_tokens = tokens;
        self
    }

    /// Builder-style: sustained borrow rate (milli-tokens per second per
    /// weight unit).
    pub fn with_refill(mut self, milli_per_sec_per_weight: u64) -> Self {
        self.refill_milli_per_sec_per_weight = milli_per_sec_per_weight;
        self
    }

    /// Weight of `tenant` under this configuration.
    pub fn weight_of(&self, tenant: &str) -> u64 {
        self.weights
            .get(tenant)
            .copied()
            .unwrap_or(DEFAULT_WEIGHT)
            .max(1)
    }
}

impl Default for FairShedConfig {
    fn default() -> Self {
        FairShedConfig::new()
    }
}

/// Live state of one tenant's bucket and occupancy.
#[derive(Debug)]
struct TenantState {
    weight: u64,
    inflight: usize,
    /// Bucket level in milli-tokens.
    tokens_milli: u64,
    /// Refill credit carried between refills, in (nanoseconds × rate)
    /// units, so no fraction of a milli-token is ever lost to rounding.
    credit: u128,
    last_refill: SimTime,
}

/// The fair shedder: per-tenant buckets plus share accounting. Owned by
/// the backend's admission state, consulted through its cell.
#[derive(Debug)]
pub struct FairShedder {
    cfg: FairShedConfig,
    tenants: BTreeMap<String, TenantState>,
}

/// Why the fair shedder refused an admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairRefusal {
    /// The tenant is past its weighted share and its token bucket is
    /// empty: it is the most over-budget tenant and gets shed first.
    OverFairShare,
}

impl FairShedder {
    /// A shedder under `cfg`, with no tenants seen yet.
    pub fn new(cfg: FairShedConfig) -> FairShedder {
        // Pre-seed explicitly weighted tenants so shares are stable from
        // the first arrival onward regardless of arrival order.
        let tenants = cfg
            .weights
            .iter()
            .map(|(t, &w)| {
                (
                    t.clone(),
                    TenantState {
                        weight: w.max(1),
                        inflight: 0,
                        tokens_milli: cfg.burst_tokens * TOKEN_MILLI,
                        credit: 0,
                        last_refill: SimTime::ZERO,
                    },
                )
            })
            .collect();
        FairShedder { cfg, tenants }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FairShedConfig {
        &self.cfg
    }

    /// Total weight across known tenants.
    fn total_weight(&self) -> u64 {
        self.tenants.values().map(|t| t.weight).sum::<u64>().max(1)
    }

    /// `tenant`'s guaranteed slot share of `max_inflight` (floor, min 1).
    pub fn share_of(&self, tenant: &str, max_inflight: usize) -> usize {
        let w = self
            .tenants
            .get(tenant)
            .map(|t| t.weight)
            .unwrap_or_else(|| self.cfg.weight_of(tenant));
        let total = self.total_weight().max(w);
        (((max_inflight as u128) * w as u128 / total as u128) as usize).max(1)
    }

    /// In-flight admissions currently charged to `tenant`.
    pub fn inflight_of(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map(|t| t.inflight).unwrap_or(0)
    }

    fn ensure(&mut self, tenant: &str, now: SimTime) {
        if !self.tenants.contains_key(tenant) {
            let weight = self.cfg.weight_of(tenant);
            self.tenants.insert(
                tenant.to_string(),
                TenantState {
                    weight,
                    inflight: 0,
                    tokens_milli: self.cfg.burst_tokens * TOKEN_MILLI,
                    credit: 0,
                    last_refill: now,
                },
            );
        }
    }

    /// Refill `tenant`'s bucket up to `now` (integer, remainder-carrying).
    fn refill(&mut self, tenant: &str, now: SimTime) {
        let rate = self.cfg.refill_milli_per_sec_per_weight;
        let cap = self.cfg.burst_tokens * TOKEN_MILLI;
        let Some(t) = self.tenants.get_mut(tenant) else {
            return;
        };
        let elapsed = now.since(t.last_refill).as_nanos() as u128;
        t.last_refill = now;
        t.credit += elapsed * (rate as u128) * (t.weight as u128);
        // 1 second of credit units per milli-token.
        let gained = (t.credit / 1_000_000_000) as u64;
        t.credit %= 1_000_000_000;
        t.tokens_milli = (t.tokens_milli + gained).min(cap);
        if t.tokens_milli == cap {
            t.credit = 0; // a full bucket accrues nothing
        }
    }

    /// Decide admission for `tenant` at `now`, given the global budget.
    /// The caller has already verified `inflight_total < max_inflight`
    /// (the hard cap is tenant-blind — slots cannot be preempted). On
    /// `Ok(())` the tenant's in-flight count has been charged; release it
    /// with [`release`](Self::release).
    pub fn try_admit(
        &mut self,
        tenant: &str,
        now: SimTime,
        max_inflight: usize,
    ) -> Result<(), FairRefusal> {
        self.ensure(tenant, now);
        self.refill(tenant, now);
        let share = self.share_of(tenant, max_inflight);
        let t = self.tenants.get_mut(tenant).expect("ensured");
        if t.inflight < share {
            // Within the guaranteed share: always admitted.
            t.inflight += 1;
            return Ok(());
        }
        // Beyond the share: borrowing is metered by the token bucket, so
        // the most over-budget tenant runs dry first and is shed first.
        if t.tokens_milli >= TOKEN_MILLI {
            t.tokens_milli -= TOKEN_MILLI;
            t.inflight += 1;
            return Ok(());
        }
        Err(FairRefusal::OverFairShare)
    }

    /// Release one in-flight admission charged to `tenant`.
    pub fn release(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
    }
}

/// Wrap a workload with a tenant label (and an optional distinct name), so
/// multi-tenant schedules can reuse one workload body.
pub struct Tenanted<W> {
    inner: W,
    tenant: String,
    name: String,
}

impl<W: crate::Workload> Tenanted<W> {
    /// `inner` deployed by `tenant`; the function keeps its own name.
    pub fn new(tenant: &str, inner: W) -> Tenanted<W> {
        let name = inner.name().to_string();
        Tenanted {
            inner,
            tenant: tenant.to_string(),
            name,
        }
    }

    /// `inner` deployed by `tenant` under an explicit function name.
    pub fn named(tenant: &str, name: &str, inner: W) -> Tenanted<W> {
        Tenanted {
            inner,
            tenant: tenant.to_string(),
            name: name.to_string(),
        }
    }
}

impl<W: crate::Workload> crate::Workload for Tenanted<W> {
    fn name(&self) -> &str {
        &self.name
    }
    fn tenant(&self) -> &str {
        &self.tenant
    }
    fn registry(&self) -> std::sync::Arc<dgsf_cuda::ModuleRegistry> {
        self.inner.registry()
    }
    fn required_gpu_mem(&self) -> u64 {
        self.inner.required_gpu_mem()
    }
    fn download_bytes(&self) -> u64 {
        self.inner.download_bytes()
    }
    fn run(
        &self,
        p: &dgsf_sim::ProcCtx,
        api: &mut dyn dgsf_cuda::CudaApi,
        rec: &mut crate::PhaseRecorder,
    ) -> dgsf_cuda::CudaResult<()> {
        self.inner.run(p, api, rec)
    }
    fn cpu_secs(&self) -> f64 {
        self.inner.cpu_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::Dur;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn under_share_is_always_admitted() {
        let mut f = FairShedder::new(
            FairShedConfig::new()
                .with_weight("a", 1)
                .with_weight("b", 1),
        );
        // max_inflight 8, two tenants: share 4 each.
        for _ in 0..4 {
            assert!(f.try_admit("a", at(0), 8).is_ok());
        }
        assert_eq!(f.inflight_of("a"), 4);
        assert_eq!(f.share_of("a", 8), 4);
    }

    #[test]
    fn borrowing_is_metered_by_the_bucket() {
        let cfg = FairShedConfig::new()
            .with_weight("hot", 1)
            .with_weight("cold", 1)
            .with_burst(2)
            .with_refill(0); // no refill: the burst is all there is
        let mut f = FairShedder::new(cfg);
        // share of 8 = 4 guaranteed + 2 burst tokens.
        for _ in 0..6 {
            assert!(f.try_admit("hot", at(0), 8).is_ok());
        }
        assert_eq!(
            f.try_admit("hot", at(0), 8),
            Err(FairRefusal::OverFairShare)
        );
        // cold is untouched: still admitted.
        assert!(f.try_admit("cold", at(0), 8).is_ok());
    }

    #[test]
    fn bucket_refills_in_proportion_to_weight() {
        let cfg = FairShedConfig::new()
            .with_weight("w2", 2)
            .with_weight("w1", 1)
            .with_burst(1)
            .with_refill(1000); // 1 token/sec per weight unit
        let mut f = FairShedder::new(cfg);
        // Drain both buckets (weight-2 share of 3 slots = 2; weight-1 = 1).
        for _ in 0..3 {
            let _ = f.try_admit("w2", at(0), 3);
        }
        for _ in 0..2 {
            let _ = f.try_admit("w1", at(0), 3);
        }
        assert_eq!(f.try_admit("w2", at(0), 3), Err(FairRefusal::OverFairShare));
        assert_eq!(f.try_admit("w1", at(0), 3), Err(FairRefusal::OverFairShare));
        // After 500 ms the weight-2 tenant has a full token; weight-1 only
        // half of one.
        assert!(f.try_admit("w2", at(500), 3).is_ok());
        assert_eq!(
            f.try_admit("w1", at(500), 3),
            Err(FairRefusal::OverFairShare)
        );
        assert!(f.try_admit("w1", at(1000), 3).is_ok());
    }

    #[test]
    fn release_frees_share_capacity() {
        let mut f = FairShedder::new(
            FairShedConfig::new()
                .with_weight("a", 1)
                .with_weight("b", 1)
                .with_burst(0),
        );
        assert!(f.try_admit("a", at(0), 2).is_ok());
        assert_eq!(f.try_admit("a", at(0), 2), Err(FairRefusal::OverFairShare));
        f.release("a");
        assert!(f.try_admit("a", at(1), 2).is_ok());
    }

    #[test]
    fn refill_carries_sub_millitoken_remainders() {
        let cfg = FairShedConfig::new()
            .with_weight("t", 1)
            .with_burst(1)
            .with_refill(1000);
        let mut f = FairShedder::new(cfg);
        let _ = f.try_admit("t", at(0), 1); // share (1) used
        let _ = f.try_admit("t", at(0), 1); // burst token used
        assert_eq!(f.try_admit("t", at(0), 1), Err(FairRefusal::OverFairShare));
        // 1000 refill calls 1 ms apart must accumulate exactly one token,
        // not lose every sub-milli remainder to rounding. Each probe that
        // fails consumes nothing.
        for ms in 1..1000 {
            assert_eq!(
                f.try_admit("t", at(ms), 1),
                Err(FairRefusal::OverFairShare),
                "token arrived early at {ms} ms"
            );
        }
        assert!(f.try_admit("t", at(1000), 1).is_ok());
    }
}
