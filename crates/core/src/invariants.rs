//! The correctness oracles, over a finished run's own records.
//!
//! The platform promises that every admitted invocation is **executed
//! exactly once or failed/shed exactly once — never lost, never
//! double-run** — and that the migration state machine never goes
//! backwards, even while the fault injector races kills and message drops
//! against live migration. Each oracle here reads what a run produced —
//! [`InvocationRecord`]s, [`FunctionResult`]s, [`MigrationRecord`]s, the
//! telemetry's instants, a live [`GpuServer`] — and returns every
//! violation it finds in an [`InvariantReport`] instead of panicking on
//! the first. The chaos-soak harness calls [`check_backend_run`] after
//! every seed, and the cross-plane oracles besides it.

use std::collections::BTreeMap;

use dgsf_server::{GpuServer, InvocationRecord, MigrationRecord};
use dgsf_serverless::FunctionResult;
use dgsf_sim::{EventRecord, ObsConfig, Telemetry, TraceOutcome};

use crate::testbed::BackendRunOutput;

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

/// Everything an oracle found, plus how much it looked at.
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

/// Run the full exactly-once oracle over one backend run: every admitted
/// invocation reached exactly one terminal state, no caller-visible
/// success is double-run and no caller-visible failure hides completed
/// work, and every fleet member's migration log is a valid state-machine
/// history.
pub fn check_backend_run(out: &BackendRunOutput) -> InvariantReport {
    let mut report = check(&out.records, &out.results, &[]);
    // Migration histories are per-server-fleet-member: server ids repeat
    // across members, so each member's log is checked on its own.
    for migs in &out.migrations {
        report.merge(check(&[], &[], migs));
    }
    report
}

/// Check the exactly-once and state-machine invariants over a finished
/// run: `records` holds one `Vec` per fleet member, and only `results`
/// that carry a trace id are requests (the native and CPU baselines make
/// no cross-layer promise). `migrations` is one member's log, since
/// server ids repeat across members.
fn check(
    records: &[Vec<InvocationRecord>],
    results: &[FunctionResult],
    migrations: &[MigrationRecord],
) -> InvariantReport {
    let requests = || {
        results
            .iter()
            .filter_map(|res| Some((res.trace?, res.outcome())))
    };
    let mut r = InvariantReport {
        checked_invocations: records.iter().map(Vec::len).sum(),
        checked_requests: requests().count(),
        checked_migrations: migrations.len(),
        ..InvariantReport::default()
    };

    for inv in records.iter().flatten() {
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
    // every attempt the retry layer made for it. Groups are ordered maps,
    // so a report lists its violations in the same order in every process.
    let mut by_trace: BTreeMap<u64, Vec<&InvocationRecord>> = BTreeMap::new();
    for inv in records.iter().flatten() {
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
    for (trace, outcome) in requests() {
        let dones = by_trace
            .get(&trace)
            .map(|invs| invs.iter().filter(|i| i.done_at.is_some()).count())
            .unwrap_or(0);
        let attempts = by_trace.get(&trace).map(|v| v.len()).unwrap_or(0);
        match outcome {
            TraceOutcome::Completed => {
                if attempts > 0 && dones != 1 {
                    r.violate(
                        "completed-exactly-once",
                        format!(
                            "trace {trace} reported completed but {dones} of its {attempts} \
                             invocations are done"
                        ),
                    );
                }
            }
            TraceOutcome::Failed | TraceOutcome::Shed => {
                if dones != 0 {
                    r.violate(
                        "failed-means-no-run",
                        format!(
                            "trace {trace} reported {outcome:?} but {dones} invocation(s) \
                             completed — the caller saw a failure for work that ran"
                        ),
                    );
                }
            }
        }
    }

    // Migration state machine: time moves forward and one server is never
    // in two migrations at once.
    let mut by_server: BTreeMap<u32, Vec<&MigrationRecord>> = BTreeMap::new();
    for m in migrations {
        if m.from == m.to {
            r.violate(
                "migration-moves",
                format!(
                    "server {} migrated {} -> {} (no-op committed)",
                    m.server, m.from.0, m.to.0
                ),
            );
        }
        if m.at < m.begun_at {
            r.violate(
                "migration-forward",
                format!(
                    "server {} migration completed at {:?} before it began at {:?}",
                    m.server, m.at, m.begun_at
                ),
            );
        }
        by_server.entry(m.server).or_default().push(m);
    }
    for (server, mut ms) in by_server {
        ms.sort_by_key(|m| (m.begun_at, m.at));
        for w in ms.windows(2) {
            if w[1].begun_at < w[0].at {
                r.violate(
                    "migration-serialized",
                    format!(
                        "server {server} began a migration at {:?} while one was still \
                         in flight (until {:?})",
                        w[1].begun_at, w[0].at
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
                        w[1].from.0, w[0].to.0, w[0].from.0
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
    migrations: &[MigrationRecord],
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
    let matches = |e: &EventRecord, m: &MigrationRecord| {
        arg(e, "server").as_deref() == Some(m.server.to_string().as_str())
            && arg(e, "from").as_deref() == Some(m.from.0.to_string().as_str())
            && arg(e, "to").as_deref() == Some(m.to.0.to_string().as_str())
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
                    m.server, m.from.0, m.to.0, m.begun_at
                ),
            );
        }
        let c = completes
            .iter()
            .filter(|e| e.at == m.at && matches(e, m))
            .count();
        if c != 1 {
            r.violate(
                "telemetry-complete-matches-log",
                format!(
                    "migration of server {} ({} -> {}) completed at {:?} has {c} matching \
                     completion instants (want exactly 1)",
                    m.server, m.from.0, m.to.0, m.at
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

/// Check a traced run's backend counters against what its results and
/// instants show, exactly: invocations, sheds, failures and attempts
/// against the results; retries and recovered replies against their
/// `retry` and `reply-recovered` instants.
pub fn check_backend_counters(out: &BackendRunOutput, tel: &Telemetry) -> InvariantReport {
    let instants = tel.instants();
    let events = |name| instants.iter().filter(|e| e.name == name).count() as u64;
    let attempts = out.results.iter().map(|r| u64::from(r.attempts)).sum();
    let mut report = InvariantReport::default();
    for (counter, want) in [
        ("backend.invocations", out.results.len() as u64),
        ("backend.shed", out.shed() as u64),
        ("backend.failures", out.failed() as u64),
        ("backend.attempts", attempts),
        ("backend.retries", events("retry")),
        ("backend.recovered_replies", events("reply-recovered")),
    ] {
        let got = tel.counter(counter);
        if got != want {
            report.violate(
                "backend-counter-matches-run",
                format!("{counter} is {got} but the run shows {want}"),
            );
        }
    }
    report
}

/// Check a run's obs report against its results: the windows count every
/// request once as an arrival and once as finished, and per tenant the
/// burn rows sum to its results and to those that violated the SLO under
/// [`dgsf_sim::ObsPlane::record_completion`]'s rule (not completed, or
/// slower than `cfg.slo_target`). Panics when the run had no obs plane.
pub fn check_obs_reconciles(out: &BackendRunOutput, cfg: &ObsConfig) -> InvariantReport {
    let obs = out.obs.as_ref().expect("the run had an obs plane");
    let n = out.results.len() as u64;
    let arrivals: u64 = obs.windows.iter().map(|w| w.arrivals).sum();
    let finished: u64 = obs.windows.iter().map(|w| w.finished).sum();
    // (requests, SLO violations) per tenant, from the results and the rows.
    let mut results: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in &out.results {
        let t = results.entry(&*r.tenant).or_default();
        t.0 += 1;
        t.1 += u64::from(!r.succeeded() || r.e2e() > cfg.slo_target);
    }
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for row in &obs.tenants {
        let t = rows.entry(&row.tenant).or_default();
        t.0 += row.total;
        t.1 += row.violations;
    }
    let mut report = InvariantReport::default();
    for (rule, holds, detail) in [
        (
            "obs-windows-count-every-request",
            arrivals == n && finished == n,
            format!("{arrivals} arrivals and {finished} finished for {n} results"),
        ),
        (
            "obs-tenant-rows-match-results",
            results == rows,
            format!("(requests, violations) per tenant: results {results:?}, rows {rows:?}"),
        ),
    ] {
        if !holds {
            report.violate(rule, detail);
        }
    }
    report
}

/// Run the handoff exactly-once oracle over a fleet's resident-store
/// audit log: every published buffer was published under a fresh key and
/// reached exactly one terminal state (adopted by a successor stage or
/// reclaimed on abort/teardown), and nothing is still parked. Call at
/// quiescence — a buffer legitimately in flight between two stages counts
/// as "still parked" until its DAG finishes.
pub fn check_resident_handoff(server: &GpuServer) -> InvariantReport {
    use dgsf_cuda::ResidentEvent;
    use std::collections::HashMap;
    let mut report = InvariantReport::default();
    // key -> (published, adopted, reclaimed) counts
    let mut by_key: HashMap<u64, (u32, u32, u32)> = HashMap::new();
    for ev in server.resident_events() {
        match ev {
            ResidentEvent::Published { key, .. } => by_key.entry(key).or_default().0 += 1,
            ResidentEvent::Adopted { key, .. } => by_key.entry(key).or_default().1 += 1,
            ResidentEvent::Reclaimed { key, .. } => by_key.entry(key).or_default().2 += 1,
        }
    }
    let mut keys: Vec<u64> = by_key.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (published, adopted, reclaimed) = by_key[&key];
        if published != 1 || adopted + reclaimed != 1 {
            report.violate(
                "resident-handoff-exactly-once",
                format!(
                    "key {key:#x}: published {published}, adopted {adopted}, \
                     reclaimed {reclaimed} (want exactly 1 publish and 1 terminal)"
                ),
            );
        }
    }
    let parked = server.resident_in_store();
    if parked != 0 {
        report.violate(
            "resident-store-drains",
            format!("{parked} buffer(s) still parked at quiescence"),
        );
    }
    report
}

/// Check that GPU memory accounting balances on a quiescent server: what
/// each GPU holds equals the idle footprint implied by the live registry
/// (home workers plus migrated-in contexts).
///
/// `strict` demands exact equality and is only sound for fault-free runs:
/// a server killed or a function aborted mid-flight leaks its session
/// memory by design (the guest never reaches `EndFunction`, and the model
/// has no async reclamation), so chaos runs pass `strict = false`, which
/// still catches under-accounting (`used < expected` — memory lost track
/// of) while tolerating leaked session state.
pub fn check_memory_balance(server: &GpuServer, strict: bool) -> InvariantReport {
    let mut report = InvariantReport::default();
    for gpu in &server.gpus {
        let used = gpu.used_mem();
        let expected = server.expected_idle_mem(gpu.id);
        let broken = if strict {
            used != expected
        } else {
            used < expected
        };
        if broken {
            report.violate(
                "memory-balances",
                format!(
                    "GPU {} holds {used} bytes but the registry implies {expected} \
                     (strict = {strict})",
                    gpu.id.0
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dgsf_cuda::{ApiStats, MigrationReport};
    use dgsf_gpu::GpuId;
    use dgsf_serverless::{PhaseRecorder, Schedule, Spin, Workload};
    use dgsf_sim::{Dur, SimTime};

    use crate::{PlatformConfig, Testbed};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_millis(ms)
    }

    /// Invocation `id` of trace `trace`, requested at 0, assigned at 10 ms
    /// and done at 100 ms.
    fn inv(id: u64, trace: u64) -> InvocationRecord {
        InvocationRecord {
            invocation: id,
            name: "f".into(),
            mem: 0,
            requested_at: t(0),
            assigned_at: Some(t(10)),
            done_at: Some(t(100)),
            failed_at: None,
            attempts: 1,
            server: None,
            gpu: None,
            trace: Some(trace),
            tenant: "".into(),
        }
    }

    /// The caller's view of request `trace`, ended as `outcome` says.
    fn req(trace: u64, outcome: TraceOutcome) -> FunctionResult {
        FunctionResult {
            name: "f".into(),
            tenant: "".into(),
            launched_at: t(0),
            finished_at: t(100),
            phases: PhaseRecorder::new(),
            api_stats: ApiStats::default(),
            invocation: None,
            attempts: 1,
            failure: (outcome != TraceOutcome::Completed).then(|| "failed".into()),
            shed: outcome == TraceOutcome::Shed,
            trace: Some(trace),
            server: None,
        }
    }

    /// Server `server`'s migration from GPU `from` to GPU `to`, begun at
    /// `begun_at` and committed at `at` (milliseconds).
    fn mig(server: u32, from: u32, to: u32, begun_at: u64, at: u64) -> MigrationRecord {
        MigrationRecord {
            server,
            from: GpuId(from),
            to: GpuId(to),
            report: MigrationReport {
                bytes_moved: 0,
                allocs_moved: 0,
                quiesce: Dur::ZERO,
                copy: Dur::ZERO,
                data_copy: Dur::ZERO,
                lib_recreate: Dur::ZERO,
                total: Dur::ZERO,
            },
            begun_at: t(begun_at),
            at: t(at),
        }
    }

    fn rules(r: &InvariantReport) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_history_passes() {
        let invs = vec![inv(1, 7), {
            let mut i = inv(2, 8);
            i.done_at = None;
            i.failed_at = Some(t(50));
            i
        }];
        let reqs = [
            req(7, TraceOutcome::Completed),
            req(8, TraceOutcome::Failed),
        ];
        check(&[invs], &reqs, &[mig(0, 0, 1, 20, 30)]).assert_ok();
    }

    #[test]
    fn lost_invocation_is_flagged() {
        let mut i = inv(1, 7);
        i.done_at = None;
        i.failed_at = None;
        let r = check(&[vec![i]], &[], &[]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "never-lost");
    }

    #[test]
    fn double_run_is_flagged() {
        // Two invocations of the same trace both completed: the retry layer
        // re-ran work whose first run succeeded.
        let r = check(&[vec![inv(1, 7), inv(2, 7)]], &[], &[]);
        assert!(rules(&r).contains(&"never-double-run"));
    }

    #[test]
    fn double_runs_are_reported_in_trace_order() {
        // 16 traces, each completed twice, listed out of trace order.
        let invs: Vec<InvocationRecord> = (0..32).map(|i| inv(i, (i * 7) % 16)).collect();
        let r = check(&[invs], &[], &[]);
        let traces: Vec<u64> = r
            .violations
            .iter()
            .filter(|v| v.rule == "never-double-run")
            .map(|v| v.detail.split(' ').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(traces, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn double_terminal_and_bad_ordering_are_flagged() {
        let mut both = inv(1, 7);
        both.failed_at = Some(t(101));
        let mut backwards = inv(2, 8);
        backwards.assigned_at = Some(t(10));
        backwards.done_at = Some(t(5));
        let r = check(&[vec![both, backwards]], &[], &[]);
        assert!(rules(&r).contains(&"terminal-exclusive"));
        assert!(rules(&r).contains(&"time-ordered"));
    }

    #[test]
    fn failed_request_with_completed_work_is_flagged() {
        let r = check(&[vec![inv(1, 7)]], &[req(7, TraceOutcome::Failed)], &[]);
        assert!(rules(&r).contains(&"failed-means-no-run"));
    }

    #[test]
    fn overlapping_migrations_are_flagged() {
        let r = check(&[], &[], &[mig(3, 0, 1, 10, 30), mig(3, 1, 0, 20, 40)]);
        assert!(rules(&r).contains(&"migration-serialized"));
    }

    #[test]
    fn backwards_and_noop_migrations_are_flagged() {
        let r = check(&[], &[], &[mig(0, 1, 1, 10, 5)]);
        assert!(rules(&r).contains(&"migration-moves"));
        assert!(rules(&r).contains(&"migration-forward"));
    }

    #[test]
    fn telemetry_cross_check_matches_instants() {
        let m = mig(2, 0, 1, 10, 25);
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

    #[test]
    fn a_corrupted_platform_run_breaks_each_rule() {
        let spin = Spin {
            gpu_secs: 0.05,
            ..Spin::default()
        };
        let suite: [Arc<dyn Workload>; 1] = [Arc::new(spin)];
        let schedule = Schedule {
            entries: vec![(t(0), 0), (t(10), 0), (t(20), 0)],
        };
        let run =
            || Testbed::run_platform_schedule(&PlatformConfig::paper_default(), &suite, &schedule);
        let out = run();
        check_backend_run(&out).assert_ok();
        assert_eq!(out.records[0].len(), 3, "one invocation per request");

        // A completed invocation that also failed.
        let mut both = run();
        both.records[0][0].failed_at = both.records[0][0].done_at;
        assert_eq!(rules(&check_backend_run(&both)), ["terminal-exclusive"]);

        // A second invocation of the first request's trace, also done.
        let mut twice = run();
        let mut copy = twice.records[0][0].clone();
        copy.invocation = 99;
        twice.records[0].push(copy);
        assert_eq!(
            rules(&check_backend_run(&twice)),
            ["never-double-run", "completed-exactly-once"]
        );

        // A request the caller saw fail, though its invocation completed.
        let mut hidden = run();
        hidden.results[1].failure = Some("lost reply".into());
        assert_eq!(rules(&check_backend_run(&hidden)), ["failed-means-no-run"]);

        // An invocation with no terminal state.
        let mut lost = run();
        lost.records[0][2].done_at = None;
        assert_eq!(
            rules(&check_backend_run(&lost)),
            ["never-lost", "completed-exactly-once"]
        );
    }
}
