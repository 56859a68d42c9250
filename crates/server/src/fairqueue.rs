//! Per-tenant virtual-time fair queueing (MQFQ) for the monitor's queue.
//!
//! Implements the in-queue half of the MQFQ-Sticky design: instead of one
//! flat FCFS queue, the monitor keeps one FIFO flow per tenant and
//! dispatches the flow with the lowest *virtual time* — an integer-ns
//! counter of normalized service each tenant has received. A tenant's
//! virtual time advances by `service_ns / weight` per completed function
//! (computed with an exact remainder carry, so no rounding error
//! accumulates), which converges long-run GPU time to the configured
//! weight ratio regardless of how bursty each tenant's arrivals are.
//!
//! Two refinements matter in a serverless fleet:
//!
//! * **Work conservation.** Dispatch scans flows in virtual-time order and
//!   takes the first whose head *fits* (the caller supplies the placement
//!   check). If the lowest-vtime tenant's head function cannot be placed —
//!   say it needs more GPU memory than any idle server offers — the next
//!   backlogged tenant is tried, so the GPU never idles while any queue
//!   holds placeable work.
//! * **No banked credit.** When a flow re-activates after an idle period,
//!   its virtual time is clamped up to the minimum over currently active
//!   flows (start-time fair queueing). An idle tenant therefore cannot
//!   accumulate an unbounded "debt" claim and lock out everyone else on
//!   return.
//!
//! In-flight functions are provisionally charged `ASSUMED_SERVICE_NS`
//! (100 ms) against their flow's dispatch key; the exact charge replaces the
//! assumption when the function completes. Without this, a tenant with
//! many idle servers available could dispatch its whole queue back-to-back
//! before the first completion ever advanced its virtual time.
//!
//! The structure is pure (no simulator types), deterministic (BTreeMap
//! iteration, integer arithmetic only), and generic over the queued item.

use std::collections::{BTreeMap, VecDeque};

/// Fixed-point scale of the virtual clock: one weight unit of service for
/// one nanosecond advances the clock by `SCALE / weight`.
pub const VTIME_SCALE: u128 = 1000;

/// Weight of a tenant without an explicit entry in [`MqfqConfig::weights`].
const DEFAULT_WEIGHT: u64 = 1;

/// Provisional per-dispatch charge (ns) held against a flow while its
/// functions are in flight, replaced by the exact service time on
/// completion: 100 ms, a typical short function.
const ASSUMED_SERVICE_NS: u64 = 100_000_000;

/// Configuration of the per-tenant fair queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MqfqConfig {
    /// Per-tenant weights; tenants absent here weigh 1.
    pub weights: BTreeMap<String, u64>,
}

impl MqfqConfig {
    /// Equal-weight configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a tenant's weight (clamped to at least 1).
    pub fn with_weight(mut self, tenant: &str, weight: u64) -> Self {
        self.weights.insert(tenant.to_string(), weight.max(1));
        self
    }

    /// Effective weight of `tenant` (never zero).
    pub fn weight_of(&self, tenant: &str) -> u64 {
        self.weights
            .get(tenant)
            .copied()
            .unwrap_or(DEFAULT_WEIGHT)
            .max(1)
    }
}

/// One tenant's flow: FIFO backlog plus fair-queueing accounting.
#[derive(Debug)]
struct Flow<T> {
    weight: u64,
    queue: VecDeque<T>,
    /// Virtual time in `VTIME_SCALE`-scaled units of normalized service.
    vtime: u128,
    /// Remainder carry of the vtime division, so repeated charges lose no
    /// precision: `vtime` advances by `(service·SCALE + rem) / weight`.
    rem: u128,
    /// Dispatched functions whose exact service charge has not arrived yet.
    inflight: u64,
    /// Total dispatches (monotonic; for tests and telemetry).
    dispatched: u64,
    /// Total exact service charged (ns; monotonic).
    service_ns: u64,
}

/// Multi-queue fair queueing over items of type `T`, keyed by tenant name.
///
/// See the module docs for the model. Flows persist after their backlog
/// drains (their virtual time is the tenant's history); [`MqfqQueues::retain`]
/// and the iterators only see queued items.
#[derive(Debug)]
pub struct MqfqQueues<T> {
    cfg: MqfqConfig,
    flows: BTreeMap<String, Flow<T>>,
    /// High-water mark of dispatch-time virtual times; re-activating flows
    /// are clamped here when no other flow is active.
    floor: u128,
    len: usize,
}

impl<T> MqfqQueues<T> {
    /// Empty queue set under `cfg`.
    pub fn new(cfg: MqfqConfig) -> Self {
        Self {
            cfg,
            flows: BTreeMap::new(),
            floor: 0,
            len: 0,
        }
    }

    /// Total queued items across all flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are queued (in-flight functions do not count).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `item` to `tenant`'s flow, creating the flow on first sight.
    ///
    /// A flow re-activating from idle (no backlog, nothing in flight) has
    /// its virtual time clamped up to the minimum over active flows — or
    /// the dispatch floor when it is alone — so idle time never banks
    /// credit.
    pub fn push(&mut self, tenant: &str, item: T) {
        let weight = self.cfg.weight_of(tenant);
        let was_idle = self
            .flows
            .get(tenant)
            .map(|f| f.queue.is_empty() && f.inflight == 0)
            .unwrap_or(true);
        if was_idle {
            let active_min = self
                .flows
                .iter()
                .filter(|(name, f)| {
                    name.as_str() != tenant && (!f.queue.is_empty() || f.inflight > 0)
                })
                .map(|(_, f)| f.vtime)
                .min();
            let clamp = active_min.unwrap_or(self.floor);
            let flow = self.flows.entry(tenant.to_string()).or_insert(Flow {
                weight,
                queue: VecDeque::new(),
                vtime: 0,
                rem: 0,
                inflight: 0,
                dispatched: 0,
                service_ns: 0,
            });
            if flow.vtime < clamp {
                flow.vtime = clamp;
                flow.rem = 0;
            }
            flow.weight = weight;
            flow.queue.push_back(item);
        } else {
            let flow = self.flows.get_mut(tenant).expect("non-idle flow exists");
            flow.queue.push_back(item);
        }
        self.len += 1;
    }

    /// Pop the next item to dispatch, work-conservingly.
    ///
    /// Backlogged flows are visited in order of their *effective* virtual
    /// time — actual vtime plus the provisional charge for functions still
    /// in flight — with the tenant name as the deterministic tie-break.
    /// For each flow, only the head is offered (FIFO within a tenant). The
    /// first head for which `fits` returns `Some(c)` is dispatched: the
    /// item is removed, the flow's in-flight count incremented, and
    /// `(item, c)` returned. Returns `None` when no queued head fits.
    pub fn pop_next<C>(&mut self, mut fits: impl FnMut(&T) -> Option<C>) -> Option<(T, C)> {
        let mut order: Vec<(u128, &String)> = self
            .flows
            .iter()
            .filter(|(_, f)| !f.queue.is_empty())
            .map(|(name, f)| (effective_key(f), name))
            .collect();
        order.sort();
        let mut chosen: Option<(String, C)> = None;
        for (_, name) in order {
            let f = &self.flows[name];
            let head = f.queue.front().expect("backlogged flow has a head");
            if let Some(c) = fits(head) {
                chosen = Some((name.clone(), c));
                break;
            }
        }
        let (name, c) = chosen?;
        let flow = self.flows.get_mut(&name).expect("chosen flow exists");
        let item = flow.queue.pop_front().expect("chosen flow has a head");
        flow.inflight += 1;
        flow.dispatched += 1;
        if flow.vtime > self.floor {
            self.floor = flow.vtime;
        }
        self.len -= 1;
        Some((item, c))
    }

    /// Charge `tenant` for `service_ns` nanoseconds of completed service,
    /// advancing its virtual time by `service_ns / weight` (exact, with
    /// remainder carry) and releasing one provisional in-flight hold.
    pub fn charge(&mut self, tenant: &str, service_ns: u64) {
        let Some(flow) = self.flows.get_mut(tenant) else {
            return;
        };
        flow.inflight = flow.inflight.saturating_sub(1);
        let c = service_ns.max(1);
        flow.service_ns = flow.service_ns.saturating_add(c);
        let w = flow.weight.max(1) as u128;
        let num = c as u128 * VTIME_SCALE + flow.rem;
        flow.vtime += num / w;
        flow.rem = num % w;
    }

    /// Keep only queued items for which `keep` returns true. Flow
    /// accounting (virtual time, in-flight holds) is untouched.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut len = 0;
        for f in self.flows.values_mut() {
            f.queue.retain(&mut keep);
            len += f.queue.len();
        }
        self.len = len;
    }

    /// Iterate over all queued items, tenants in name order, FIFO within a
    /// tenant. (Deterministic, but *not* dispatch order.)
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.flows.values().flat_map(|f| f.queue.iter())
    }

    /// Tenants with at least one queued or in-flight function, name order.
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.flows
            .iter()
            .filter(|(_, f)| !f.queue.is_empty() || f.inflight > 0)
            .map(|(name, _)| name.as_str())
    }

    /// `tenant`'s current virtual time in scaled units (None before its
    /// first push).
    pub fn vtime_of(&self, tenant: &str) -> Option<u128> {
        self.flows.get(tenant).map(|f| f.vtime)
    }

    /// Total exact service (ns) charged to `tenant` so far.
    pub fn service_of(&self, tenant: &str) -> u64 {
        self.flows.get(tenant).map(|f| f.service_ns).unwrap_or(0)
    }

    /// Total dispatches from `tenant`'s flow so far.
    pub fn dispatches_of(&self, tenant: &str) -> u64 {
        self.flows.get(tenant).map(|f| f.dispatched).unwrap_or(0)
    }

    /// Queued backlog of `tenant` (in-flight functions not counted).
    pub fn backlog_of(&self, tenant: &str) -> usize {
        self.flows.get(tenant).map(|f| f.queue.len()).unwrap_or(0)
    }

    /// The configuration this queue set was built with.
    pub fn config(&self) -> &MqfqConfig {
        &self.cfg
    }
}

/// Dispatch key of a flow: its virtual time plus a provisional charge for
/// every function in flight, so back-to-back dispatches before the first
/// completion still rotate across tenants.
fn effective_key<T>(f: &Flow<T>) -> u128 {
    let w = f.weight.max(1) as u128;
    f.vtime + f.inflight as u128 * (ASSUMED_SERVICE_NS as u128 * VTIME_SCALE) / w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fq(cfg: MqfqConfig) -> MqfqQueues<u64> {
        MqfqQueues::new(cfg)
    }

    #[test]
    fn weighted_service_converges_to_the_weight_ratio() {
        // heavy:light = 2:1; both always backlogged, unit service cost.
        let mut q = fq(MqfqConfig::new()
            .with_weight("heavy", 2)
            .with_weight("light", 1));
        for i in 0..30 {
            q.push("heavy", i);
            q.push("light", 100 + i);
        }
        let mut counts = (0u64, 0u64);
        for _ in 0..30 {
            let (item, ()) = q.pop_next(|_| Some(())).expect("backlogged");
            if item < 100 {
                counts.0 += 1;
                q.charge("heavy", 1_000_000);
            } else {
                counts.1 += 1;
                q.charge("light", 1_000_000);
            }
        }
        // 30 unit-cost dispatches at weights 2:1 → 20:10.
        assert_eq!(counts, (20, 10));
    }

    #[test]
    fn dispatch_falls_back_when_the_lowest_vtime_head_does_not_fit() {
        let mut q = fq(MqfqConfig::new());
        q.push("a", 16); // head needs 16 "GB"
        q.push("b", 1);
        // "a" has the lower name (tie at vtime 0) but its head doesn't fit
        // a 4 GB budget; work conservation serves "b".
        let (item, ()) = q
            .pop_next(|&mem| if mem <= 4 { Some(()) } else { None })
            .expect("b's head fits");
        assert_eq!(item, 1);
        // Nothing fits → None, with "a" still backlogged.
        assert!(q
            .pop_next(|&mem| if mem <= 4 { Some(()) } else { None })
            .is_none());
        assert_eq!(q.backlog_of("a"), 1);
    }

    #[test]
    fn idle_time_banks_no_credit() {
        // Items <100 belong to "busy", ≥100 to "idle".
        let mut q = fq(MqfqConfig::new());
        // "busy" works alone for a while.
        for i in 0..10 {
            q.push("busy", i);
            let _ = q.pop_next(|_| Some(())).unwrap();
            q.charge("busy", 1_000_000_000);
        }
        let busy_v = q.vtime_of("busy").unwrap();
        // "idle" arrives late; its vtime is clamped up to the active
        // minimum (= busy's vtime), not left at zero.
        q.push("busy", 50);
        q.push("idle", 100);
        assert_eq!(q.vtime_of("idle").unwrap(), busy_v);
        // So service alternates instead of idle draining its whole backlog
        // first: the two dispatches hit different tenants.
        for i in 101..105 {
            q.push("idle", i);
        }
        let (first, ()) = q.pop_next(|_| Some(())).unwrap();
        q.charge(if first < 100 { "busy" } else { "idle" }, 1_000_000_000);
        let (second, ()) = q.pop_next(|_| Some(())).unwrap();
        assert_ne!(first < 100, second < 100);
    }

    #[test]
    fn inflight_holds_rotate_dispatch_before_any_completion() {
        let mut q = fq(MqfqConfig::new());
        for i in 0..4 {
            q.push("a", i);
            q.push("b", 10 + i);
        }
        // Four dispatches with no completions: the provisional charge must
        // alternate tenants 2:2, not drain one flow 4:0.
        let mut a = 0;
        for _ in 0..4 {
            let (item, ()) = q.pop_next(|_| Some(())).unwrap();
            if item < 10 {
                a += 1;
            }
        }
        assert_eq!(a, 2);
    }

    #[test]
    fn retain_purges_without_touching_accounting() {
        let mut q = fq(MqfqConfig::new());
        q.push("t", 1);
        q.push("t", 2);
        q.push("u", 3);
        let _ = q.pop_next(|_| Some(())).unwrap();
        q.retain(|&x| x != 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dispatches_of("t") + q.dispatches_of("u"), 1);
    }

    #[test]
    fn remainder_carry_loses_no_service() {
        // weight 3: each 10 ns charge is 10·1000/3 = 3333.33… scaled units;
        // after 3 charges the vtime must be exactly 10000, not 9999.
        let mut q = fq(MqfqConfig::new().with_weight("t", 3));
        q.push("t", 0);
        let _ = q.pop_next(|_| Some(())).unwrap();
        q.charge("t", 10);
        q.charge("t", 10);
        q.charge("t", 10);
        assert_eq!(q.vtime_of("t").unwrap(), 10 * VTIME_SCALE);
    }
}
