//! Platform-level bindings for the [`dgsf_sim::invariants`] oracle.
//!
//! The sim crate's checker works over neutral fact types; this module
//! converts what an actual run produces — [`InvocationRecord`]s,
//! [`FunctionResult`]s, [`MigrationRecord`]s and a live [`GpuServer`] —
//! into those facts and runs the exactly-once / migration-state-machine /
//! memory-balance rules over them. The chaos-soak harness calls
//! [`check_backend_run`] after every seed, and the two cross-plane oracles
//! besides it.

use std::collections::BTreeMap;

use dgsf_server::{GpuServer, InvocationRecord, MigrationRecord};
use dgsf_serverless::FunctionResult;
use dgsf_sim::invariants::{
    check, InvariantReport, InvocationFacts, MigrationFacts, RequestFacts, Violation,
};
use dgsf_sim::{ObsConfig, Telemetry};

use crate::testbed::BackendRunOutput;

/// Convert server-side invocation records into oracle facts.
pub fn invocation_facts(records: &[InvocationRecord]) -> Vec<InvocationFacts> {
    records
        .iter()
        .map(|r| InvocationFacts {
            invocation: r.invocation,
            requested_at: r.requested_at,
            assigned_at: r.assigned_at,
            done_at: r.done_at,
            failed_at: r.failed_at,
            trace: r.trace,
        })
        .collect()
}

/// Convert caller-visible function results into oracle facts. Results
/// without a trace id (native/CPU baselines) carry no cross-layer promise
/// and are skipped.
pub fn request_facts(results: &[FunctionResult]) -> Vec<RequestFacts> {
    results
        .iter()
        .filter_map(|r| {
            r.trace.map(|trace| RequestFacts {
                trace,
                outcome: r.outcome(),
            })
        })
        .collect()
}

/// Convert a migration log into oracle facts.
pub fn migration_facts(migrations: &[MigrationRecord]) -> Vec<MigrationFacts> {
    migrations
        .iter()
        .map(|m| MigrationFacts {
            server: m.server,
            from: m.from.0,
            to: m.to.0,
            begun_at: m.begun_at,
            completed_at: m.at,
        })
        .collect()
}

/// Run the full exactly-once oracle over one backend run: every admitted
/// invocation reached exactly one terminal state, no caller-visible
/// success is double-run and no caller-visible failure hides completed
/// work, and every fleet member's migration log is a valid state-machine
/// history.
pub fn check_backend_run(out: &BackendRunOutput) -> InvariantReport {
    let invs: Vec<InvocationFacts> = out
        .records
        .iter()
        .flat_map(|r| invocation_facts(r))
        .collect();
    let reqs = request_facts(&out.results);
    let mut report = check(&invs, &reqs, &[]);
    // Migration histories are per-server-fleet-member: server ids repeat
    // across members, so each member's log is checked on its own.
    for migs in &out.migrations {
        report.merge(check(&[], &[], &migration_facts(migs)));
    }
    report
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
            report.violations.push(Violation {
                rule: "backend-counter-matches-run",
                detail: format!("{counter} is {got} but the run shows {want}"),
            });
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
        let t = results.entry(&r.tenant).or_default();
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
            report.violations.push(Violation { rule, detail });
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
            report.violations.push(Violation {
                rule: "resident-handoff-exactly-once",
                detail: format!(
                    "key {key:#x}: published {published}, adopted {adopted}, \
                     reclaimed {reclaimed} (want exactly 1 publish and 1 terminal)"
                ),
            });
        }
    }
    let parked = server.resident_in_store();
    if parked != 0 {
        report.violations.push(Violation {
            rule: "resident-store-drains",
            detail: format!("{parked} buffer(s) still parked at quiescence"),
        });
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
            report.violations.push(Violation {
                rule: "memory-balances",
                detail: format!(
                    "GPU {} holds {used} bytes but the registry implies {expected} \
                     (strict = {strict})",
                    gpu.id.0
                ),
            });
        }
    }
    report
}
