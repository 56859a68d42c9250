//! Per-tenant fair shedding.
//!
//! Admission control (PR 3) bounds the platform-wide in-flight budget, but
//! shedding was FIFO-blind across tenants: one hot customer could occupy
//! every slot and everyone else's arrivals got shed. This module adds the
//! fairness layer: each tenant owns an equal share of the in-flight
//! budget, guaranteed for as long as it is under that share, plus a token
//! bucket that meters how fast it may borrow slots *beyond* its share.
//! Under sustained overload the most over-budget tenant drains its bucket
//! first and becomes the one that is shed, while under-share tenants keep
//! being admitted.
//!
//! Everything is integer arithmetic over virtual time (milli-tokens,
//! nanosecond credit), so admission decisions are byte-deterministic per
//! seed.

use std::collections::BTreeMap;

use dgsf_sim::SimTime;

/// Milli-tokens consumed per borrowed admission.
const TOKEN_MILLI: u64 = 1000;

/// Token-bucket capacity, in milli-tokens: a tenant may borrow two
/// admissions beyond its fair share before the refill rate binds.
const BURST_MILLI: u64 = 2 * TOKEN_MILLI;

/// Bucket refill, in milli-tokens per second: one borrowed admission per
/// second sustained.
const REFILL_MILLI_PER_SEC: u128 = 1000;

/// Live state of one tenant's bucket and occupancy.
#[derive(Debug)]
struct TenantState {
    inflight: usize,
    /// Bucket level in milli-tokens.
    tokens_milli: u64,
    /// Refill credit carried between refills, in (nanoseconds × rate)
    /// units, so no fraction of a milli-token is ever lost to rounding.
    credit: u128,
    last_refill: SimTime,
}

impl TenantState {
    /// A tenant first seen at `now`: nothing in flight, a full bucket.
    fn new(now: SimTime) -> TenantState {
        TenantState {
            inflight: 0,
            tokens_milli: BURST_MILLI,
            credit: 0,
            last_refill: now,
        }
    }

    /// Refill the bucket up to `now` (integer, remainder-carrying).
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_refill).as_nanos() as u128;
        self.last_refill = now;
        self.credit += elapsed * REFILL_MILLI_PER_SEC;
        // 1 second of credit units per milli-token.
        let gained = (self.credit / 1_000_000_000) as u64;
        self.credit %= 1_000_000_000;
        self.tokens_milli = (self.tokens_milli + gained).min(BURST_MILLI);
        if self.tokens_milli == BURST_MILLI {
            self.credit = 0; // a full bucket accrues nothing
        }
    }
}

/// The fair shedder: per-tenant buckets plus share accounting. Owned by
/// the backend's admission state, consulted through its cell.
#[derive(Debug)]
pub struct FairShedder {
    tenants: BTreeMap<String, TenantState>,
}

impl FairShedder {
    /// A shedder that knows `tenants` from t = 0, so the shares are the
    /// same from the first arrival on whatever order the tenants arrive
    /// in. A tenant not named here joins at its first arrival.
    pub fn new<'t>(tenants: impl IntoIterator<Item = &'t str>) -> FairShedder {
        let tenants = tenants
            .into_iter()
            .map(|t| (t.to_string(), TenantState::new(SimTime::ZERO)))
            .collect();
        FairShedder { tenants }
    }

    /// Each known tenant's guaranteed slot share of `max_inflight`: an
    /// equal split (floor, min 1).
    pub fn share(&self, max_inflight: usize) -> usize {
        (max_inflight / self.tenants.len().max(1)).max(1)
    }

    /// In-flight admissions currently charged to `tenant`.
    pub fn inflight_of(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map(|t| t.inflight).unwrap_or(0)
    }

    /// Decide admission for `tenant` at `now`, given the global budget.
    /// The caller has already verified `inflight_total < max_inflight`
    /// (the hard cap is tenant-blind — slots cannot be preempted). On
    /// `true` the tenant's in-flight count has been charged; release it
    /// with [`release`](Self::release). `false` means the tenant is past
    /// its share with an empty bucket: it is the most over-budget tenant
    /// and gets shed first.
    pub fn try_admit(&mut self, tenant: &str, now: SimTime, max_inflight: usize) -> bool {
        if !self.tenants.contains_key(tenant) {
            self.tenants
                .insert(tenant.to_string(), TenantState::new(now));
        }
        let share = self.share(max_inflight);
        let t = self.tenants.get_mut(tenant).expect("inserted above");
        t.refill(now);
        if t.inflight < share {
            // Within the guaranteed share: always admitted.
            t.inflight += 1;
            return true;
        }
        // Beyond the share: borrowing is metered by the token bucket, so
        // the most over-budget tenant runs dry first and is shed first.
        if t.tokens_milli >= TOKEN_MILLI {
            t.tokens_milli -= TOKEN_MILLI;
            t.inflight += 1;
            return true;
        }
        false
    }

    /// Release one in-flight admission charged to `tenant`.
    pub fn release(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
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
        let mut f = FairShedder::new(["a", "b"]);
        // max_inflight 8, two tenants: share 4 each.
        for _ in 0..4 {
            assert!(f.try_admit("a", at(0), 8));
        }
        assert_eq!(f.inflight_of("a"), 4);
        assert_eq!(f.share(8), 4);
    }

    #[test]
    fn borrowing_is_metered_by_the_bucket() {
        let mut f = FairShedder::new(["hot", "cold"]);
        // share of 8 = 4 guaranteed + 2 burst tokens, all at one instant,
        // so nothing refills.
        for _ in 0..6 {
            assert!(f.try_admit("hot", at(0), 8));
        }
        assert!(!f.try_admit("hot", at(0), 8));
        // cold is untouched: still admitted.
        assert!(f.try_admit("cold", at(0), 8));
    }

    #[test]
    fn bucket_refills_one_token_per_second_up_to_the_burst() {
        let mut f = FairShedder::new(["a", "b"]);
        // Share 1 of 2 slots, then the 2-token burst.
        for _ in 0..3 {
            assert!(f.try_admit("a", at(0), 2));
        }
        assert!(!f.try_admit("a", at(0), 2));
        // One token back after a second, none more before the next.
        assert!(f.try_admit("a", at(1000), 2));
        assert!(!f.try_admit("a", at(1999), 2));
        // A long idle spell refills the bucket to its 2 tokens, no more.
        assert!(f.try_admit("a", at(60_000), 2));
        assert!(f.try_admit("a", at(60_000), 2));
        assert!(!f.try_admit("a", at(60_000), 2));
    }

    #[test]
    fn release_frees_share_capacity() {
        let mut f = FairShedder::new(["a", "b"]);
        // Share 1 of 2 slots plus the 2-token burst, then refused.
        for _ in 0..3 {
            assert!(f.try_admit("a", at(0), 2));
        }
        assert!(!f.try_admit("a", at(0), 2));
        for _ in 0..3 {
            f.release("a");
        }
        // Back under its share: admitted with the bucket still empty.
        assert!(f.try_admit("a", at(1), 2));
    }

    #[test]
    fn refill_carries_sub_millitoken_remainders() {
        let mut f = FairShedder::new(["t"]);
        // Share (1) used, then both burst tokens.
        for _ in 0..3 {
            assert!(f.try_admit("t", at(0), 1));
        }
        assert!(!f.try_admit("t", at(0), 1));
        // 1000 refill calls 1 ms apart must accumulate exactly one token,
        // not lose every sub-milli remainder to rounding. Each probe that
        // fails consumes nothing.
        for ms in 1..1000 {
            assert!(
                !f.try_admit("t", at(ms), 1),
                "token arrived early at {ms} ms"
            );
        }
        assert!(f.try_admit("t", at(1000), 1));
    }
}
