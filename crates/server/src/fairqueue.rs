//! Per-tenant virtual-time fair queueing (MQFQ): the monitor's queue.
//!
//! Implements the in-queue half of the MQFQ-Sticky design: the monitor
//! keeps one FIFO flow per tenant and dispatches the flow with the lowest
//! *virtual time* — an integer-ns counter of normalized service each
//! tenant has received. A tenant's virtual time advances by its service
//! time per completed function, which converges long-run GPU time to an
//! equal split between backlogged tenants regardless of how bursty each
//! tenant's arrivals are.
//!
//! It is the monitor's only queue. Under FCFS and smallest-first every
//! request joins one flow, so dispatch offers that flow's candidate (its
//! head, or its first request of smallest memory) and waits while it does
//! not place: the paper's head-of-line blocking.
//!
//! Two refinements matter in a serverless fleet:
//!
//! * **Work conservation.** [`MqfqQueues::decide`] offers each backlogged
//!   flow's candidate to the caller's placement check and chooses, among
//!   the candidates that place, the flow of least virtual time. If the
//!   lowest-vtime tenant's candidate cannot be placed — say it needs more
//!   GPU memory than any idle server offers — another backlogged tenant is
//!   served, so the GPU never idles while any queue holds placeable work.
//! * **No banked credit.** When a flow re-activates after an idle period,
//!   its virtual time is clamped up to the minimum over currently active
//!   flows (start-time fair queueing). An idle tenant therefore cannot
//!   accumulate an unbounded "debt" claim and lock out everyone else on
//!   return.
//!
//! In-flight functions are provisionally charged [`ASSUMED_SERVICE_NS`]
//! against their flow's dispatch key; the exact charge replaces the
//! assumption when the function completes. Without this, a tenant with
//! many idle servers available could dispatch its whole queue back-to-back
//! before the first completion ever advanced its virtual time.
//!
//! The structure is pure (no simulator types), deterministic (integer
//! arithmetic only, ties broken by tenant name), and generic over the
//! queued item. Dispatch is a decision over `&self` ([`MqfqQueues::decide`])
//! and its application ([`MqfqQueues::take`]).

use std::collections::VecDeque;

/// Fixed-point scale of the virtual clock: one nanosecond of service
/// advances the clock by `SCALE`.
pub const VTIME_SCALE: u128 = 1000;

/// Provisional per-dispatch charge (ns) held against a flow while its
/// functions are in flight, replaced by the exact service time on
/// completion: 100 ms, a typical short function.
pub const ASSUMED_SERVICE_NS: u64 = 100_000_000;

/// One tenant's flow: FIFO backlog plus fair-queueing accounting.
#[derive(Debug)]
struct Flow<T> {
    /// The tenant, named when the flow is first seen.
    name: String,
    queue: VecDeque<T>,
    /// Virtual time in `VTIME_SCALE`-scaled units of service.
    vtime: u128,
    /// Dispatched functions whose exact service charge has not arrived yet.
    inflight: u64,
    /// Total dispatches (monotonic; for tests and telemetry).
    dispatched: u64,
    /// Total exact service charged (ns; monotonic).
    service_ns: u64,
}

impl<T> Flow<T> {
    /// No backlog and nothing in flight.
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.inflight == 0
    }

    /// Dispatch key: the virtual time plus a provisional charge for every
    /// function in flight, so back-to-back dispatches before the first
    /// completion still rotate across tenants, then the tenant name.
    fn key(&self) -> (u128, &str) {
        let hold = self.inflight as u128 * (ASSUMED_SERVICE_NS as u128 * VTIME_SCALE);
        (self.vtime + hold, &self.name)
    }
}

/// Position of the first item of least `rank` in a non-empty `queue`. A
/// rank of 0 ends the scan, since nothing ranks lower.
fn candidate<T>(queue: &VecDeque<T>, rank: impl Fn(&T) -> u64) -> usize {
    let mut best = (u64::MAX, 0);
    for (i, item) in queue.iter().enumerate() {
        let r = rank(item);
        if r < best.0 {
            best = (r, i);
        }
        if r == 0 {
            break;
        }
    }
    best.1
}

/// A queued item chosen by [`MqfqQueues::decide`]: valid for
/// [`MqfqQueues::take`] until the queue next changes.
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    flow: usize,
    pos: usize,
}

/// Multi-queue fair queueing over items of type `T`, keyed by tenant name.
///
/// See the module docs for the model. Flows persist after their backlog
/// drains (their virtual time is the tenant's history); [`MqfqQueues::retain`]
/// and the iterators only see queued items.
#[derive(Debug)]
pub struct MqfqQueues<T> {
    /// Every flow seen so far, in first-sight order.
    flows: Vec<Flow<T>>,
    /// High-water mark of dispatch-time virtual times; re-activating flows
    /// are clamped here when no other flow is active.
    floor: u128,
    len: usize,
}

impl<T> Default for MqfqQueues<T> {
    /// Empty queue set.
    fn default() -> Self {
        Self {
            flows: Vec::new(),
            floor: 0,
            len: 0,
        }
    }
}

impl<T> MqfqQueues<T> {
    /// Total queued items across all flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are queued (in-flight functions do not count).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn flow(&self, tenant: &str) -> Option<&Flow<T>> {
        self.flows.iter().find(|f| f.name == tenant)
    }

    /// Append `item` to `tenant`'s flow, creating (and naming) the flow on
    /// first sight.
    ///
    /// A flow re-activating from idle (no backlog, nothing in flight) has
    /// its virtual time clamped up to the minimum over active flows — or
    /// the dispatch floor when it is alone — so idle time never banks
    /// credit.
    pub fn push(&mut self, tenant: &str, item: T) {
        let i = match self.flows.iter().position(|f| f.name == tenant) {
            Some(i) => i,
            None => {
                self.flows.push(Flow {
                    name: tenant.to_string(),
                    queue: VecDeque::new(),
                    vtime: 0,
                    inflight: 0,
                    dispatched: 0,
                    service_ns: 0,
                });
                self.flows.len() - 1
            }
        };
        if self.flows[i].idle() {
            let active = self.flows.iter().filter(|f| !f.idle());
            let clamp = active.map(|f| f.vtime).min().unwrap_or(self.floor);
            let flow = &mut self.flows[i];
            flow.vtime = flow.vtime.max(clamp);
        }
        self.flows[i].queue.push_back(item);
        self.len += 1;
    }

    /// Dispatch decision, work-conserving: which queued item to dispatch,
    /// with what `place` returned for it.
    ///
    /// Each backlogged flow offers one candidate, its first item of least
    /// `rank` (rank every item alike to offer the head). Among the
    /// candidates for which `place` returns `Some`, the flow with the least
    /// *effective* virtual time wins — actual vtime plus the provisional
    /// charge for functions still in flight — with the tenant name as the
    /// deterministic tie-break. `None` when no candidate places. A flow
    /// that cannot beat the best placed one so far is not offered, and a
    /// lone backlogged flow's key is never worked out.
    pub fn decide<C>(
        &self,
        rank: impl Fn(&T) -> u64,
        mut place: impl FnMut(&T) -> Option<C>,
    ) -> Option<(Pick, C)> {
        let mut best: Option<(Pick, C)> = None;
        for (flow, f) in self.flows.iter().enumerate() {
            let beaten = |(b, _): &(Pick, C)| self.flows[b.flow].key() < f.key();
            if f.queue.is_empty() || best.as_ref().is_some_and(beaten) {
                continue;
            }
            let pos = candidate(&f.queue, &rank);
            if let Some(c) = place(&f.queue[pos]) {
                best = Some((Pick { flow, pos }, c));
            }
        }
        best
    }

    /// Dispatch `pick`: remove its item, hold one in-flight charge against
    /// its flow and raise the dispatch floor to the flow's virtual time.
    pub fn take(&mut self, pick: Pick) -> T {
        let flow = &mut self.flows[pick.flow];
        let item = flow
            .queue
            .remove(pick.pos)
            .expect("a pick names a queued item");
        flow.inflight += 1;
        flow.dispatched += 1;
        self.floor = self.floor.max(flow.vtime);
        self.len -= 1;
        item
    }

    /// Charge `tenant` for `service_ns` nanoseconds of completed service,
    /// advancing its virtual time by that service and releasing one
    /// provisional in-flight hold.
    pub fn charge(&mut self, tenant: &str, service_ns: u64) {
        let Some(flow) = self.flows.iter_mut().find(|f| f.name == tenant) else {
            return;
        };
        flow.inflight = flow.inflight.saturating_sub(1);
        let c = service_ns.max(1);
        flow.service_ns = flow.service_ns.saturating_add(c);
        flow.vtime += c as u128 * VTIME_SCALE;
    }

    /// Keep only queued items for which `keep` returns true. Flow
    /// accounting (virtual time, in-flight holds) is untouched.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut len = 0;
        for f in &mut self.flows {
            f.queue.retain(&mut keep);
            len += f.queue.len();
        }
        self.len = len;
    }

    /// Iterate over all queued items, flows in first-sight order, FIFO
    /// within a flow. (Deterministic, but *not* dispatch order.)
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.flows.iter().flat_map(|f| f.queue.iter())
    }

    /// `tenant`'s current virtual time in scaled units (None before its
    /// first push).
    pub fn vtime_of(&self, tenant: &str) -> Option<u128> {
        self.flow(tenant).map(|f| f.vtime)
    }

    /// Total exact service (ns) charged to `tenant` so far.
    pub fn service_of(&self, tenant: &str) -> u64 {
        self.flow(tenant).map_or(0, |f| f.service_ns)
    }

    /// Total dispatches from `tenant`'s flow so far.
    pub fn dispatches_of(&self, tenant: &str) -> u64 {
        self.flow(tenant).map_or(0, |f| f.dispatched)
    }

    /// Queued backlog of `tenant` (in-flight functions not counted).
    pub fn backlog_of(&self, tenant: &str) -> usize {
        self.flow(tenant).map_or(0, |f| f.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fq() -> MqfqQueues<u64> {
        MqfqQueues::default()
    }

    /// Decide on the heads for which `fits` holds, and take the choice.
    fn pop(q: &mut MqfqQueues<u64>, fits: impl Fn(u64) -> bool) -> Option<u64> {
        let (pick, ()) = q.decide(|_| 0, |&x| fits(x).then_some(()))?;
        Some(q.take(pick))
    }

    #[test]
    fn service_time_not_dispatch_count_is_split_evenly() {
        // heavy's functions cost twice light's; both always backlogged.
        let mut q = fq();
        for i in 0..30 {
            q.push("heavy", i);
            q.push("light", 100 + i);
        }
        let mut counts = (0u64, 0u64);
        for _ in 0..30 {
            let item = pop(&mut q, |_| true).expect("backlogged");
            if item < 100 {
                counts.0 += 1;
                q.charge("heavy", 2_000_000);
            } else {
                counts.1 += 1;
                q.charge("light", 1_000_000);
            }
        }
        // 30 dispatches at costs 2:1 → 10:20, equal service each.
        assert_eq!(counts, (10, 20));
        assert_eq!(q.service_of("heavy"), q.service_of("light"));
    }

    #[test]
    fn dispatch_falls_back_when_the_lowest_vtime_head_does_not_fit() {
        let mut q = fq();
        q.push("a", 16); // head needs 16 "GB"
        q.push("b", 1);
        // "a" has the lower name (tie at vtime 0) but its head doesn't fit
        // a 4 GB budget; work conservation serves "b".
        let item = pop(&mut q, |mem| mem <= 4).expect("b's head fits");
        assert_eq!(item, 1);
        // Nothing fits → None, with "a" still backlogged.
        assert!(pop(&mut q, |mem| mem <= 4).is_none());
        assert_eq!(q.backlog_of("a"), 1);
    }

    #[test]
    fn idle_time_banks_no_credit() {
        // Items <100 belong to "busy", ≥100 to "idle".
        let mut q = fq();
        // "busy" works alone for a while.
        for i in 0..10 {
            q.push("busy", i);
            let _ = pop(&mut q, |_| true).unwrap();
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
        let first = pop(&mut q, |_| true).unwrap();
        q.charge(if first < 100 { "busy" } else { "idle" }, 1_000_000_000);
        let second = pop(&mut q, |_| true).unwrap();
        assert_ne!(first < 100, second < 100);
    }

    #[test]
    fn inflight_holds_rotate_dispatch_before_any_completion() {
        let mut q = fq();
        for i in 0..4 {
            q.push("a", i);
            q.push("b", 10 + i);
        }
        // Four dispatches with no completions: the provisional charge must
        // alternate tenants 2:2, not drain one flow 4:0.
        let mut a = 0;
        for _ in 0..4 {
            let item = pop(&mut q, |_| true).unwrap();
            if item < 10 {
                a += 1;
            }
        }
        assert_eq!(a, 2);
    }

    #[test]
    fn retain_purges_without_touching_accounting() {
        let mut q = fq();
        q.push("t", 1);
        q.push("t", 2);
        q.push("u", 3);
        let _ = pop(&mut q, |_| true).unwrap();
        q.retain(|&x| x != 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dispatches_of("t") + q.dispatches_of("u"), 1);
    }
}
