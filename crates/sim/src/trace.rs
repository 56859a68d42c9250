//! Request-scoped trace assembly and critical-path tail-latency attribution.
//!
//! The instrumented stack threads a [`TraceCtx`](crate::telemetry::TraceCtx)
//! from the serverless front door down to the GPU server, so every span an
//! invocation produces carries an `inv` (and usually `attempt`) argument.
//! This module joins those flat spans back into one [`TraceTree`] per
//! request and computes an **exact integer decomposition** of its
//! end-to-end latency:
//!
//! * the request window `[start, end)` is cut at every covering span
//!   boundary into elementary slices,
//! * each slice gets exactly one label by priority — GPU-server execution
//!   (`exec`: a same-trace `server` span overlapped by a same-trace client
//!   `rpc` span), remoting wire + wait (`transport`: `rpc` cover without
//!   server cover), the client-side phase covering it (`download`, `queue`,
//!   `init`, ...), residual in-attempt time (`attempt`), retry backoff gaps
//!   between attempts (`backoff`), or pre-attempt platform time (`other`),
//! * slice widths are summed per label.
//!
//! Because the slices partition the window, the per-label segments **sum
//! exactly (integer ns) to the recorded end-to-end latency** — for
//! completed, shed and failed requests alike (a shed-on-arrival request has
//! a zero-width window and an empty decomposition). Server activity past a
//! client timeout deliberately does *not* count as `exec`: the client
//! stopped waiting, so that time belongs to whatever the client was doing
//! (backoff, the next attempt, ...).
//!
//! On top of the decompositions sit [`attribute`] (per-tenant/workload
//! p50/p95/p99 contribution tables plus slowest-k exemplars) and
//! [`slo_burn`] (per-tenant SLO violation + error-budget accounting).

use std::collections::BTreeMap;

use crate::stats::percentile_permille;
use crate::telemetry::{Lit, SpanRecord, Telemetry};
use crate::time::{Dur, SimTime};

/// Terminal state of one request: the one three-state outcome that the
/// backend's results, its `req:` spans, the exactly-once oracle and the
/// trace assembler all share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceOutcome {
    /// The request returned a successful result to its caller.
    Completed,
    /// Admission control (or queue-age overload) shed the request.
    Shed,
    /// The request terminally failed (exhausted retries, permanent error).
    Failed,
}

impl TraceOutcome {
    /// Parse the `outcome` span argument written by the instrumentation.
    pub fn parse(s: &str) -> TraceOutcome {
        match s {
            "completed" => TraceOutcome::Completed,
            "shed" => TraceOutcome::Shed,
            _ => TraceOutcome::Failed,
        }
    }

    /// The wire/JSON form of this outcome.
    pub fn as_str(&self) -> &'static str {
        self.lit().name()
    }

    /// [`as_str`](Self::as_str) as a telemetry literal.
    pub fn lit(&self) -> &'static Lit {
        match self {
            TraceOutcome::Completed => crate::lit!("completed"),
            TraceOutcome::Shed => crate::lit!("shed"),
            TraceOutcome::Failed => crate::lit!("failed"),
        }
    }
}

/// One labeled segment of a request's exact latency decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Segment label (`exec`, `transport`, a phase name, `backoff`, ...).
    pub label: String,
    /// Total virtual time attributed to this label.
    pub dur: Dur,
}

/// One request's assembled trace: identity, terminal state and the exact
/// integer decomposition of its end-to-end latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Platform-unique trace id (the `inv` span argument).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Workload name (from the `req:{workload}` span name).
    pub workload: String,
    /// Terminal state.
    pub outcome: TraceOutcome,
    /// Request window start (launch).
    pub start: SimTime,
    /// Request window end (finish/shed/failure).
    pub end: SimTime,
    /// Attempts the request made (0 for shed-on-arrival).
    pub attempts: u32,
    /// Per-label segments, sorted by label; zero-width labels omitted.
    /// Invariant: durations sum exactly to [`TraceTree::e2e`].
    pub segments: Vec<Segment>,
}

impl TraceTree {
    /// Recorded end-to-end latency of the request.
    pub fn e2e(&self) -> Dur {
        self.end.since(self.start)
    }

    /// Sum of all segment durations (equals [`TraceTree::e2e`] exactly).
    pub fn segment_total(&self) -> Dur {
        Dur(self.segments.iter().map(|s| s.dur.as_nanos()).sum())
    }

    /// Duration attributed to `label` (zero if absent).
    pub fn segment(&self, label: &str) -> Dur {
        self.segments
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.dur)
            .unwrap_or(Dur::ZERO)
    }
}

fn arg<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
    s.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn arg_u64(s: &SpanRecord, key: &str) -> Option<u64> {
    arg(s, key).and_then(|v| v.parse().ok())
}

/// Assemble one [`TraceTree`] per `request`-category span recorded in
/// `tel`, sorted by trace id. See the [module docs](self) for the
/// decomposition rules.
pub fn assemble(tel: &Telemetry) -> Vec<TraceTree> {
    assemble_spans(&tel.spans())
}

/// [`assemble`] over an explicit span list (useful for tests and replays).
pub fn assemble_spans(spans: &[SpanRecord]) -> Vec<TraceTree> {
    let mut by_inv: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.cat != "request") {
        if let Some(id) = arg_u64(s, "inv") {
            by_inv.entry(id).or_default().push(s);
        }
    }
    let mut trees: Vec<TraceTree> = spans
        .iter()
        .filter(|s| s.cat == "request")
        .filter_map(|req| {
            let id = arg_u64(req, "inv")?;
            let related = by_inv.get(&id).map(Vec::as_slice).unwrap_or(&[]);
            Some(decompose(id, req, related))
        })
        .collect();
    trees.sort_by_key(|t| t.id);
    trees
}

fn decompose(id: u64, req: &SpanRecord, related: &[&SpanRecord]) -> TraceTree {
    let (s, e) = (req.start.as_nanos(), req.end.as_nanos());
    // Elementary slice boundaries: every covering-span endpoint, clamped
    // to the request window.
    let mut cuts: Vec<u64> = Vec::with_capacity(2 + related.len() * 2);
    cuts.push(s);
    cuts.push(e);
    for sp in related {
        cuts.push(sp.start.as_nanos().clamp(s, e));
        cuts.push(sp.end.as_nanos().clamp(s, e));
    }
    cuts.sort_unstable();
    cuts.dedup();

    let covers = |sp: &SpanRecord, a: u64, b: u64| -> bool {
        sp.start.as_nanos() <= a && b <= sp.end.as_nanos()
    };
    let mut acc: BTreeMap<&str, u64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let width = b - a;
        let any = |cat: &str| related.iter().any(|sp| sp.cat == cat && covers(sp, a, b));
        // Server-side execution counts only where the client was actually
        // waiting on it: an rpc span and a server span of the *same
        // attempt* both cover the slice. (A stale server span running past
        // a client timeout must not pair with the next attempt's rpc.)
        let exec = related.iter().any(|r| {
            r.cat == "rpc"
                && covers(r, a, b)
                && related.iter().any(|v| {
                    v.cat == "server" && covers(v, a, b) && arg(v, "attempt") == arg(r, "attempt")
                })
        });
        let label: &str = if exec {
            "exec"
        } else if any("rpc") {
            "transport"
        } else if let Some(ph) = related
            .iter()
            .find(|sp| sp.cat == "phase" && covers(sp, a, b))
        {
            ph.name.as_str()
        } else if any("invocation") {
            "attempt"
        } else if related
            .iter()
            .any(|sp| sp.cat == "invocation" && sp.end.as_nanos() <= a)
        {
            // Uncovered time after a finished attempt: retry backoff.
            "backoff"
        } else {
            // Pre-attempt platform time (admission, routing).
            "other"
        };
        *acc.entry(label).or_insert(0) += width;
    }
    let attempts = arg_u64(req, "attempts")
        .map(|n| n as u32)
        .unwrap_or_else(|| related.iter().filter(|sp| sp.cat == "invocation").count() as u32);
    TraceTree {
        id,
        tenant: arg(req, "tenant").unwrap_or("default").to_string(),
        workload: req
            .name
            .strip_prefix("req:")
            .unwrap_or(&req.name)
            .to_string(),
        outcome: TraceOutcome::parse(arg(req, "outcome").unwrap_or("failed")),
        start: req.start,
        end: req.end,
        attempts,
        segments: acc
            .into_iter()
            .filter(|&(_, ns)| ns > 0)
            .map(|(label, ns)| Segment {
                label: label.to_string(),
                dur: Dur(ns),
            })
            .collect(),
    }
}

/// Distribution of one segment label's contribution across a group (zeros
/// included for requests the label never touched, so percentiles are over
/// *all* requests in the group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment label.
    pub label: String,
    /// Median contribution (ns, nearest-rank).
    pub p50_ns: u64,
    /// 95th-percentile contribution (ns).
    pub p95_ns: u64,
    /// 99th-percentile contribution (ns).
    pub p99_ns: u64,
    /// Largest single contribution (ns).
    pub max_ns: u64,
    /// Mean contribution (ns, truncating).
    pub mean_ns: u64,
    /// Total contribution across the group (ns).
    pub total_ns: u64,
}

/// Per-(tenant, workload) tail-latency attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAttribution {
    /// Tenant the group belongs to.
    pub tenant: String,
    /// Workload class within the tenant.
    pub workload: String,
    /// Requests in the group.
    pub count: u64,
    /// ... of which completed.
    pub completed: u64,
    /// ... of which shed.
    pub shed: u64,
    /// ... of which terminally failed.
    pub failed: u64,
    /// Median end-to-end latency (ns).
    pub p50_e2e_ns: u64,
    /// 99th-percentile end-to-end latency (ns).
    pub p99_e2e_ns: u64,
    /// Per-label contribution stats, sorted by label.
    pub segments: Vec<SegmentStats>,
    /// Trace ids of the slowest-k requests (e2e desc, id asc).
    pub slowest: Vec<u64>,
}

/// Aggregate decomposed traces into per-(tenant, workload) contribution
/// tables with slowest-`k` exemplars. Deterministic: groups sorted by
/// (tenant, workload), labels sorted, ties on exemplars broken by id.
pub fn attribute(trees: &[TraceTree], k: usize) -> Vec<GroupAttribution> {
    let mut groups: BTreeMap<(String, String), Vec<&TraceTree>> = BTreeMap::new();
    for t in trees {
        groups
            .entry((t.tenant.clone(), t.workload.clone()))
            .or_default()
            .push(t);
    }
    groups
        .into_iter()
        .map(|((tenant, workload), members)| {
            let count = members.len() as u64;
            let mut e2e: Vec<u64> = members.iter().map(|t| t.e2e().as_nanos()).collect();
            e2e.sort_unstable();
            let mut labels: Vec<&str> = members
                .iter()
                .flat_map(|t| t.segments.iter().map(|s| s.label.as_str()))
                .collect();
            labels.sort_unstable();
            labels.dedup();
            let segments = labels
                .into_iter()
                .map(|label| {
                    let mut vals: Vec<u64> = members
                        .iter()
                        .map(|t| t.segment(label).as_nanos())
                        .collect();
                    vals.sort_unstable();
                    let total: u64 = vals.iter().sum();
                    SegmentStats {
                        label: label.to_string(),
                        p50_ns: percentile_permille(&vals, 500),
                        p95_ns: percentile_permille(&vals, 950),
                        p99_ns: percentile_permille(&vals, 990),
                        max_ns: vals.last().copied().unwrap_or(0),
                        mean_ns: total / count.max(1),
                        total_ns: total,
                    }
                })
                .collect();
            let mut by_slowness = members.clone();
            by_slowness.sort_by_key(|t| (std::cmp::Reverse(t.e2e().as_nanos()), t.id));
            let ended = |o| members.iter().filter(|t| t.outcome == o).count() as u64;
            GroupAttribution {
                tenant,
                workload,
                count,
                completed: ended(TraceOutcome::Completed),
                shed: ended(TraceOutcome::Shed),
                failed: ended(TraceOutcome::Failed),
                p50_e2e_ns: percentile_permille(&e2e, 500),
                p99_e2e_ns: percentile_permille(&e2e, 990),
                segments,
                slowest: by_slowness.iter().take(k).map(|t| t.id).collect(),
            }
        })
        .collect()
}

/// Per-tenant SLO: a latency target plus an error budget (the permille of
/// requests allowed to miss it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// End-to-end latency target; a completed request above it violates.
    pub target_e2e: Dur,
    /// Permille of requests allowed to violate (latency miss, shed or
    /// failure) before the budget is fully burned.
    pub error_budget_permille: u64,
}

/// One tenant's SLO burn accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBurn {
    /// Tenant name.
    pub tenant: String,
    /// Requests observed.
    pub total: u64,
    /// Requests violating the SLO (late, shed or failed).
    pub violations: u64,
    /// Violations per thousand requests.
    pub violation_permille: u64,
    /// Fraction of the error budget consumed, in permille (1000 = budget
    /// exactly exhausted; saturates instead of overflowing).
    pub budget_burn_permille: u64,
}

/// Compute per-tenant SLO burn over decomposed traces: a request violates
/// when it shed, failed, or completed above `policy.target_e2e`. Sorted by
/// tenant.
pub fn slo_burn(trees: &[TraceTree], policy: &SloPolicy) -> Vec<SloBurn> {
    let mut per_tenant: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for t in trees {
        let e = per_tenant.entry(t.tenant.as_str()).or_insert((0, 0));
        e.0 += 1;
        if t.outcome != TraceOutcome::Completed || t.e2e() > policy.target_e2e {
            e.1 += 1;
        }
    }
    per_tenant
        .into_iter()
        .map(|(tenant, (total, violations))| {
            let violation_permille = (violations * 1000).checked_div(total).unwrap_or(0);
            let budget = policy.error_budget_permille.max(1);
            let budget_burn_permille = (violation_permille.saturating_mul(1000)) / budget;
            SloBurn {
                tenant: tenant.to_string(),
                total,
                violations,
                violation_permille,
                budget_burn_permille,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    #[expect(
        clippy::too_many_arguments,
        reason = "a test request spells out every field the assembler reads"
    )]
    fn req(
        tel: &Telemetry,
        id: u64,
        tenant: &str,
        workload: &str,
        outcome: &str,
        attempts: u32,
        start: u64,
        end: u64,
    ) {
        tel.span_args(
            "client",
            &format!("req:{workload}"),
            "request",
            SimTime(start),
            SimTime(end),
            &[
                ("inv", id.into()),
                ("tenant", tenant.into()),
                ("outcome", outcome.into()),
                ("attempts", attempts.into()),
            ],
        );
    }

    fn traced(tel: &Telemetry, id: u64, cat: &'static str, name: &str, start: u64, end: u64) {
        traced_attempt(tel, id, 1, cat, name, start, end);
    }

    fn traced_attempt(
        tel: &Telemetry,
        id: u64,
        attempt: u32,
        cat: &'static str,
        name: &str,
        start: u64,
        end: u64,
    ) {
        tel.span_args(
            "client",
            name,
            cat,
            SimTime(start),
            SimTime(end),
            &[("inv", id.into()), ("attempt", attempt.into())],
        );
    }

    #[test]
    fn decomposition_partitions_the_window_exactly() {
        let tel = Telemetry::new();
        tel.enable();
        // Request [0, 100): one attempt [0, 60), with queue [0, 20),
        // an rpc [20, 50) whose server-side exec is [25, 45), then a
        // backoff gap [60, 100).
        req(&tel, 1, "hot", "spin", "completed", 2, 0, 100);
        traced(&tel, 1, "invocation", "invoke:spin:a1", 0, 60);
        traced(&tel, 1, "phase", "queue", 0, 20);
        traced(&tel, 1, "rpc", "launch_kernel", 20, 50);
        traced(&tel, 1, "server", "launch_kernel", 25, 45);
        let trees = assemble(&tel);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!((t.id, t.attempts), (1, 2));
        assert_eq!(t.outcome, TraceOutcome::Completed);
        assert_eq!(t.segment_total(), t.e2e(), "segments must sum exactly");
        assert_eq!(t.segment("queue"), Dur(20));
        assert_eq!(t.segment("transport"), Dur(10), "rpc minus server cover");
        assert_eq!(t.segment("exec"), Dur(20));
        assert_eq!(t.segment("attempt"), Dur(10), "in-attempt residual");
        assert_eq!(t.segment("backoff"), Dur(40));
    }

    #[test]
    fn server_work_past_the_client_timeout_is_not_exec() {
        let tel = Telemetry::new();
        tel.enable();
        // Attempt 1 times out at 40 (rpc span [10, 40)); the server keeps
        // running [15, 70) — past the client's window. Attempt 2 succeeds
        // [50, 90) with an rpc [55, 85) and server [60, 80).
        req(&tel, 9, "hot", "spin", "completed", 2, 0, 90);
        traced_attempt(&tel, 9, 1, "invocation", "invoke:spin:a1", 0, 40);
        traced_attempt(&tel, 9, 1, "rpc", "launch_kernel", 10, 40);
        traced_attempt(&tel, 9, 1, "server", "launch_kernel", 15, 70);
        traced_attempt(&tel, 9, 2, "invocation", "invoke:spin:a2", 50, 90);
        traced_attempt(&tel, 9, 2, "rpc", "launch_kernel", 55, 85);
        traced_attempt(&tel, 9, 2, "server", "launch_kernel", 60, 80);
        let t = &assemble(&tel)[0];
        assert_eq!(t.segment_total(), t.e2e());
        // exec = [15,40) of attempt 1 + [60,80) of attempt 2; the server's
        // [40,70) tail has no rpc cover and must not count.
        assert_eq!(t.segment("exec"), Dur(25 + 20));
        // The inter-attempt gap [40,50) is backoff.
        assert_eq!(t.segment("backoff"), Dur(10));
    }

    #[test]
    fn shed_on_arrival_is_a_zero_width_tree() {
        let tel = Telemetry::new();
        tel.enable();
        req(&tel, 3, "cold", "spin", "shed", 0, 500, 500);
        let t = &assemble(&tel)[0];
        assert_eq!(t.outcome, TraceOutcome::Shed);
        assert_eq!(t.e2e(), Dur::ZERO);
        assert!(t.segments.is_empty());
        assert_eq!(t.segment_total(), Dur::ZERO);
    }

    #[test]
    fn attribution_groups_by_tenant_and_workload() {
        let tel = Telemetry::new();
        tel.enable();
        for (id, e2e) in [(1u64, 100u64), (2, 200), (3, 300)] {
            req(&tel, id, "hot", "spin", "completed", 1, 0, e2e);
            traced(&tel, id, "invocation", "invoke:spin:a1", 0, e2e);
        }
        req(&tel, 4, "cold", "spin", "shed", 0, 0, 0);
        let trees = assemble(&tel);
        let groups = attribute(&trees, 2);
        assert_eq!(groups.len(), 2);
        assert_eq!((groups[0].tenant.as_str(), groups[0].count), ("cold", 1));
        let hot = &groups[1];
        assert_eq!(
            (hot.tenant.as_str(), hot.workload.as_str()),
            ("hot", "spin")
        );
        assert_eq!((hot.completed, hot.shed, hot.failed), (3, 0, 0));
        assert_eq!(hot.p50_e2e_ns, 200);
        assert_eq!(hot.p99_e2e_ns, 300);
        assert_eq!(hot.slowest, vec![3, 2], "e2e desc, capped at k");
        let attempt = hot.segments.iter().find(|s| s.label == "attempt").unwrap();
        assert_eq!(attempt.total_ns, 600);
        assert_eq!(attempt.mean_ns, 200);
        assert_eq!(attempt.max_ns, 300);
    }

    #[test]
    fn slo_burn_counts_late_shed_and_failed_as_violations() {
        let tel = Telemetry::new();
        tel.enable();
        req(&tel, 1, "hot", "spin", "completed", 1, 0, 50); // within target
        req(&tel, 2, "hot", "spin", "completed", 1, 0, 500); // late
        req(&tel, 3, "hot", "spin", "shed", 0, 0, 0); // shed
        req(&tel, 4, "cold", "spin", "failed", 3, 0, 80); // failed
        let trees = assemble(&tel);
        let policy = SloPolicy {
            target_e2e: Dur(100),
            error_budget_permille: 100,
        };
        let burn = slo_burn(&trees, &policy);
        assert_eq!(burn.len(), 2);
        let cold = &burn[0];
        assert_eq!(
            (cold.total, cold.violations, cold.violation_permille),
            (1, 1, 1000)
        );
        assert_eq!(cold.budget_burn_permille, 10_000, "10× over budget");
        let hot = &burn[1];
        assert_eq!((hot.total, hot.violations), (3, 2));
        assert_eq!(hot.violation_permille, 666);
        assert_eq!(hot.budget_burn_permille, 6_660);
    }

    #[test]
    fn assembly_is_deterministic_and_sorted_by_id() {
        let tel = Telemetry::new();
        tel.enable();
        req(&tel, 7, "a", "w", "completed", 1, 0, 10);
        req(&tel, 2, "a", "w", "completed", 1, 0, 10);
        let a = assemble(&tel);
        let b = assemble(&tel);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2, 7]);
    }
}
