//! The platform's policy surface, in one place.
//!
//! Every scheduling decision the platform makes is named here, under one
//! naming scheme (`*Policy` enums with plain variant names):
//!
//! * [`PlacementPolicy`] — which GPU the monitor homes a function on;
//! * [`QueuePolicy`] — the monitor's queue discipline;
//! * [`FleetPolicy`] — which GPU *server* the cluster balancer routes an
//!   invocation to (the paper's §IV open policy space).
//!
//! What admission control sheds under overload is not an enum: the
//! serverless backend's `AdmissionConfig::fair` either turns on per-tenant
//! fair shedding or is off, and off sheds tenant-blind, whoever arrives
//! while the platform is full.

/// How the monitor picks a GPU for an incoming function (§VIII-D/E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Pack: the GPU with the *least* free (uncommitted) memory that still
    /// fits the request.
    BestFit,
    /// Spread: the GPU with the *most* free memory.
    WorstFit,
}

/// Queue discipline at the GPU server. The paper evaluates strict FCFS and
/// "leaves exploration of policies like shortest-function-first, which
/// could improve throughput at some loss of fairness, for future work"
/// (§VIII-D) — implemented here as [`QueuePolicy::SmallestFirst`].
///
/// Every discipline runs on the monitor's one queue,
/// [`MqfqQueues`](crate::MqfqQueues): FCFS and smallest-first put every
/// request in one flow, MQFQ each tenant's requests in the tenant's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Strict first-come-first-serve with head-of-line blocking (the
    /// paper's evaluated policy).
    Fcfs,
    /// Serve the queued function with the smallest declared GPU memory
    /// first, ties to the earliest arrival, and wait while it does not
    /// place (a practical proxy for shortest-function-first: small
    /// footprints correlate with short runs in the paper's suite). Improves
    /// throughput; large functions can be bypassed repeatedly.
    SmallestFirst,
    /// Multi-queue fair queueing (MQFQ-Sticky): one FIFO flow per tenant,
    /// dispatch by lowest integer-ns virtual time, work-conserving: the
    /// lowest-vtime tenant whose head places is served, so an unplaceable
    /// head blocks only its own tenant. Every tenant weighs the same.
    Mqfq,
}

/// How the serverless backend picks a GPU server from the fleet for a
/// function (§IV: "different policies can be used in a commercial
/// deployment, such as choosing the least loaded GPU server to optimize
/// latency or the opposite to increase utilization").
///
/// Whatever the variant, the cluster balancer never routes to a server
/// whose lease has expired (every API server declared dead by its
/// monitor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Rotate through live servers (the fixed policy of the prototype).
    RoundRobin,
    /// Cluster-level scoring over the monitor's exported gauges: queue
    /// depth, active functions, live capacity and memory pressure combine
    /// into one load score; the lowest-scored live server wins.
    LoadAware,
}

impl FleetPolicy {
    /// Stable lowercase label, used in benchmark exports.
    pub fn label(self) -> &'static str {
        match self {
            FleetPolicy::RoundRobin => "round_robin",
            FleetPolicy::LoadAware => "load_aware",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(FleetPolicy::RoundRobin.label(), "round_robin");
        assert_eq!(FleetPolicy::LoadAware.label(), "load_aware");
    }
}
