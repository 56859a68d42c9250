//! Exactly-once invariant oracle over a finished run's facts.
//!
//! The platform promises that every admitted invocation is **executed
//! exactly once or failed/shed exactly once — never lost, never
//! double-run** — and that the migration state machine never goes
//! backwards, even while the fault injector races kills and message drops
//! against live migration. This module is the always-on (in tests) checker
//! for those promises: callers convert their domain records into the
//! neutral fact types below and [`check`] returns every violation it can
//! find, instead of panicking on the first.
//!
//! The facts are deliberately plain data (ids and timestamps only) so the
//! oracle has no dependency on the server/serverless crates and can be
//! exercised directly in unit tests with hand-built histories.

use crate::telemetry::EventRecord;
use crate::time::SimTime;
use crate::trace::TraceOutcome;

/// Lifecycle facts of one GPU invocation, as the server recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationFacts {
    /// Platform-assigned invocation id.
    pub invocation: u64,
    /// When the GPU request reached the monitor.
    pub requested_at: SimTime,
    /// When an API server was assigned, if ever.
    pub assigned_at: Option<SimTime>,
    /// When the function completed, if it did.
    pub done_at: Option<SimTime>,
    /// When the invocation was declared failed, if it was.
    pub failed_at: Option<SimTime>,
    /// Trace id of the serverless request this invocation served.
    pub trace: Option<u64>,
}

/// Facts of one serverless request, keyed by trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFacts {
    /// Platform-unique trace id.
    pub trace: u64,
    /// What the caller was told.
    pub outcome: TraceOutcome,
}

/// Facts of one committed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationFacts {
    /// API server that moved.
    pub server: u32,
    /// Source GPU id.
    pub from: u32,
    /// Destination GPU id.
    pub to: u32,
    /// When the state transfer started.
    pub begun_at: SimTime,
    /// When the migration committed.
    pub completed_at: SimTime,
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule broke (stable, grep-able name).
    pub rule: &'static str,
    /// Human-readable specifics (ids, timestamps).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Everything the oracle found, plus how much it looked at.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Every violation, in discovery order.
    pub violations: Vec<Violation>,
    /// Invocations inspected.
    pub checked_invocations: usize,
    /// Requests inspected.
    pub checked_requests: usize,
    /// Migrations inspected.
    pub checked_migrations: usize,
}

impl InvariantReport {
    /// True when no invariant broke.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation listed (test harness entry point).
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "{} invariant violation(s) over {} invocations / {} requests / {} migrations:\n{}",
            self.violations.len(),
            self.checked_invocations,
            self.checked_requests,
            self.checked_migrations,
            self.violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: InvariantReport) {
        self.violations.extend(other.violations);
        self.checked_invocations += other.checked_invocations;
        self.checked_requests += other.checked_requests;
        self.checked_migrations += other.checked_migrations;
    }

    fn violate(&mut self, rule: &'static str, detail: String) {
        self.violations.push(Violation { rule, detail });
    }
}

/// Check the exactly-once and state-machine invariants over a finished
/// run. `requests` may be empty when the caller drove the server directly
/// (no serverless layer); per-trace rules then only use the invocations'
/// own trace ids.
pub fn check(
    invocations: &[InvocationFacts],
    requests: &[RequestFacts],
    migrations: &[MigrationFacts],
) -> InvariantReport {
    let mut r = InvariantReport {
        checked_invocations: invocations.len(),
        checked_requests: requests.len(),
        checked_migrations: migrations.len(),
        ..InvariantReport::default()
    };

    for inv in invocations {
        let id = inv.invocation;
        match (inv.done_at, inv.failed_at) {
            (Some(d), Some(f)) => r.violate(
                "terminal-exclusive",
                format!("invocation {id} both done (at {d:?}) and failed (at {f:?})"),
            ),
            (None, None) => r.violate(
                "never-lost",
                format!("invocation {id} has no terminal state: admitted but lost"),
            ),
            _ => {}
        }
        if let Some(a) = inv.assigned_at {
            if a < inv.requested_at {
                r.violate(
                    "time-ordered",
                    format!(
                        "invocation {id} assigned at {a:?} before requested at {:?}",
                        inv.requested_at
                    ),
                );
            }
        }
        if let Some(d) = inv.done_at {
            match inv.assigned_at {
                None => r.violate(
                    "done-needs-assignment",
                    format!("invocation {id} done without ever being assigned"),
                ),
                Some(a) if d < a => r.violate(
                    "time-ordered",
                    format!("invocation {id} done at {d:?} before assigned at {a:?}"),
                ),
                _ => {}
            }
        }
        if let Some(f) = inv.failed_at {
            if f < inv.requested_at {
                r.violate(
                    "time-ordered",
                    format!(
                        "invocation {id} failed at {f:?} before requested at {:?}",
                        inv.requested_at
                    ),
                );
            }
        }
    }

    // Per-request (trace) rules: a trace must complete at most once across
    // every attempt the retry layer made for it.
    let mut by_trace: std::collections::HashMap<u64, Vec<&InvocationFacts>> =
        std::collections::HashMap::new();
    for inv in invocations {
        if let Some(t) = inv.trace {
            by_trace.entry(t).or_default().push(inv);
        }
    }
    for (trace, invs) in &by_trace {
        let dones: Vec<u64> = invs
            .iter()
            .filter(|i| i.done_at.is_some())
            .map(|i| i.invocation)
            .collect();
        if dones.len() > 1 {
            r.violate(
                "never-double-run",
                format!(
                    "trace {trace} completed {} times (invocations {dones:?})",
                    dones.len()
                ),
            );
        }
    }
    for req in requests {
        let dones = by_trace
            .get(&req.trace)
            .map(|invs| invs.iter().filter(|i| i.done_at.is_some()).count())
            .unwrap_or(0);
        let attempts = by_trace.get(&req.trace).map(|v| v.len()).unwrap_or(0);
        match req.outcome {
            TraceOutcome::Completed => {
                if attempts > 0 && dones != 1 {
                    r.violate(
                        "completed-exactly-once",
                        format!(
                            "trace {} reported completed but {dones} of its {attempts} \
                             invocations are done",
                            req.trace
                        ),
                    );
                }
            }
            TraceOutcome::Failed | TraceOutcome::Shed => {
                if dones != 0 {
                    r.violate(
                        "failed-means-no-run",
                        format!(
                            "trace {} reported {:?} but {dones} invocation(s) completed — \
                             the caller saw a failure for work that ran",
                            req.trace, req.outcome
                        ),
                    );
                }
            }
        }
    }

    // Migration state machine: time moves forward and one server is never
    // in two migrations at once.
    let mut by_server: std::collections::HashMap<u32, Vec<&MigrationFacts>> =
        std::collections::HashMap::new();
    for m in migrations {
        if m.from == m.to {
            r.violate(
                "migration-moves",
                format!(
                    "server {} migrated {} -> {} (no-op committed)",
                    m.server, m.from, m.to
                ),
            );
        }
        if m.completed_at < m.begun_at {
            r.violate(
                "migration-forward",
                format!(
                    "server {} migration completed at {:?} before it began at {:?}",
                    m.server, m.completed_at, m.begun_at
                ),
            );
        }
        by_server.entry(m.server).or_default().push(m);
    }
    for (server, mut ms) in by_server {
        ms.sort_by_key(|m| (m.begun_at, m.completed_at));
        for w in ms.windows(2) {
            if w[1].begun_at < w[0].completed_at {
                r.violate(
                    "migration-serialized",
                    format!(
                        "server {server} began a migration at {:?} while one was still \
                         in flight (until {:?})",
                        w[1].begun_at, w[0].completed_at
                    ),
                );
            }
            // Chained moves: the next migration leaves from where the last
            // one arrived, unless the server went home between functions.
            if w[1].from != w[0].to && w[1].from != w[0].from {
                // Reverting to the home GPU between functions is legal and
                // unlogged; only flag a source that matches *neither* the
                // previous destination nor the previous source (home).
                r.violate(
                    "migration-continuous",
                    format!(
                        "server {server} migration from GPU {} follows one that ended on \
                         GPU {} (and did not start from its previous source {})",
                        w[1].from, w[0].to, w[0].from
                    ),
                );
            }
        }
    }

    r
}

/// Cross-check the migration log against the telemetry stream: every
/// committed migration must have exactly one `migration-begin` instant at
/// its begin time and exactly one `migration` (completion) instant at its
/// commit time, with matching server/from/to args; and every begin must be
/// accounted for by a completion, an abort, or a server death.
///
/// `allow_unfinished` is the number of begins allowed to have no matching
/// completion or abort (servers killed mid-migration emit nothing further).
pub fn check_migration_telemetry(
    migrations: &[MigrationFacts],
    events: &[EventRecord],
    allow_unfinished: usize,
) -> InvariantReport {
    let mut r = InvariantReport {
        checked_migrations: migrations.len(),
        ..InvariantReport::default()
    };
    let arg = |e: &EventRecord, k: &str| -> Option<String> {
        e.args.iter().find(|(a, _)| a == k).map(|(_, v)| v.clone())
    };
    let matches = |e: &EventRecord, m: &MigrationFacts| {
        arg(e, "server").as_deref() == Some(m.server.to_string().as_str())
            && arg(e, "from").as_deref() == Some(m.from.to_string().as_str())
            && arg(e, "to").as_deref() == Some(m.to.to_string().as_str())
    };
    let begins: Vec<&EventRecord> = events
        .iter()
        .filter(|e| e.name == "migration-begin")
        .collect();
    let completes: Vec<&EventRecord> = events.iter().filter(|e| e.name == "migration").collect();
    let aborts: Vec<&EventRecord> = events
        .iter()
        .filter(|e| e.name == "migration-aborted")
        .collect();

    for m in migrations {
        let b = begins
            .iter()
            .filter(|e| e.at == m.begun_at && matches(e, m))
            .count();
        if b != 1 {
            r.violate(
                "telemetry-begin-matches-log",
                format!(
                    "migration of server {} ({} -> {}) begun at {:?} has {b} matching \
                     begin instants (want exactly 1)",
                    m.server, m.from, m.to, m.begun_at
                ),
            );
        }
        let c = completes
            .iter()
            .filter(|e| e.at == m.completed_at && matches(e, m))
            .count();
        if c != 1 {
            r.violate(
                "telemetry-complete-matches-log",
                format!(
                    "migration of server {} ({} -> {}) completed at {:?} has {c} matching \
                     completion instants (want exactly 1)",
                    m.server, m.from, m.to, m.completed_at
                ),
            );
        }
    }
    if completes.len() != migrations.len() {
        r.violate(
            "telemetry-no-phantom-migrations",
            format!(
                "{} migration completion instants but {} log records",
                completes.len(),
                migrations.len()
            ),
        );
    }
    // begins = completes + aborts + (servers that died mid-migration).
    let accounted = completes.len() + aborts.len();
    if begins.len() < accounted || begins.len() > accounted + allow_unfinished {
        r.violate(
            "telemetry-begins-accounted",
            format!(
                "{} begins vs {} completions + {} aborts (allow {} unfinished)",
                begins.len(),
                completes.len(),
                aborts.len(),
                allow_unfinished
            ),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_millis(ms)
    }

    fn inv(id: u64, trace: u64) -> InvocationFacts {
        InvocationFacts {
            invocation: id,
            requested_at: t(0),
            assigned_at: Some(t(10)),
            done_at: Some(t(100)),
            failed_at: None,
            trace: Some(trace),
        }
    }

    #[test]
    fn clean_history_passes() {
        let invs = [inv(1, 7), {
            let mut i = inv(2, 8);
            i.done_at = None;
            i.failed_at = Some(t(50));
            i
        }];
        let reqs = [
            RequestFacts {
                trace: 7,
                outcome: TraceOutcome::Completed,
            },
            RequestFacts {
                trace: 8,
                outcome: TraceOutcome::Failed,
            },
        ];
        let migs = [MigrationFacts {
            server: 0,
            from: 0,
            to: 1,
            begun_at: t(20),
            completed_at: t(30),
        }];
        check(&invs, &reqs, &migs).assert_ok();
    }

    #[test]
    fn lost_invocation_is_flagged() {
        let mut i = inv(1, 7);
        i.done_at = None;
        i.failed_at = None;
        let r = check(&[i], &[], &[]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "never-lost");
    }

    #[test]
    fn double_run_is_flagged() {
        // Two invocations of the same trace both completed: the retry layer
        // re-ran work whose first run succeeded.
        let r = check(&[inv(1, 7), inv(2, 7)], &[], &[]);
        assert!(r.violations.iter().any(|v| v.rule == "never-double-run"));
    }

    #[test]
    fn double_terminal_and_bad_ordering_are_flagged() {
        let mut both = inv(1, 7);
        both.failed_at = Some(t(101));
        let mut backwards = inv(2, 8);
        backwards.assigned_at = Some(t(10));
        backwards.done_at = Some(t(5));
        let r = check(&[both, backwards], &[], &[]);
        assert!(r.violations.iter().any(|v| v.rule == "terminal-exclusive"));
        assert!(r.violations.iter().any(|v| v.rule == "time-ordered"));
    }

    #[test]
    fn failed_request_with_completed_work_is_flagged() {
        let r = check(
            &[inv(1, 7)],
            &[RequestFacts {
                trace: 7,
                outcome: TraceOutcome::Failed,
            }],
            &[],
        );
        assert!(r.violations.iter().any(|v| v.rule == "failed-means-no-run"));
    }

    #[test]
    fn overlapping_migrations_are_flagged() {
        let migs = [
            MigrationFacts {
                server: 3,
                from: 0,
                to: 1,
                begun_at: t(10),
                completed_at: t(30),
            },
            MigrationFacts {
                server: 3,
                from: 1,
                to: 0,
                begun_at: t(20),
                completed_at: t(40),
            },
        ];
        let r = check(&[], &[], &migs);
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == "migration-serialized"));
    }

    #[test]
    fn backwards_and_noop_migrations_are_flagged() {
        let migs = [MigrationFacts {
            server: 0,
            from: 1,
            to: 1,
            begun_at: t(10),
            completed_at: t(5),
        }];
        let r = check(&[], &[], &migs);
        assert!(r.violations.iter().any(|v| v.rule == "migration-moves"));
        assert!(r.violations.iter().any(|v| v.rule == "migration-forward"));
    }

    #[test]
    fn telemetry_cross_check_matches_instants() {
        let m = MigrationFacts {
            server: 2,
            from: 0,
            to: 1,
            begun_at: t(10),
            completed_at: t(25),
        };
        let ev = |name: &str, at: SimTime| EventRecord {
            track: "api-server-2".into(),
            name: name.into(),
            at,
            args: vec![
                ("server".into(), "2".into()),
                ("from".into(), "0".into()),
                ("to".into(), "1".into()),
            ],
        };
        let good = [ev("migration-begin", t(10)), ev("migration", t(25))];
        check_migration_telemetry(&[m], &good, 0).assert_ok();

        // A completion instant at the wrong time breaks the cross-check.
        let skewed = [ev("migration-begin", t(10)), ev("migration", t(26))];
        let r = check_migration_telemetry(&[m], &skewed, 0);
        assert!(!r.ok());

        // A begin with no completion is only legal when deaths allow it.
        let unfinished = [
            ev("migration-begin", t(10)),
            ev("migration", t(25)),
            ev("migration-begin", t(40)),
        ];
        assert!(!check_migration_telemetry(&[m], &unfinished, 0).ok());
        check_migration_telemetry(&[m], &unfinished, 1).assert_ok();
    }
}
