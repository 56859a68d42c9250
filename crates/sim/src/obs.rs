//! Online observability plane: streaming windowed aggregation, SLO
//! burn-rate alerting and per-server health scoring — all deterministic,
//! integer-only, and usable *while the simulation runs*.
//!
//! PR 2's telemetry and PR 5's critical-path attribution are post-hoc:
//! metrics and traces are exported after a run, so nothing in the platform
//! can act on them while the fleet is serving. [`ObsPlane`] closes that
//! loop. The hot paths (the serverless backend's front door, the monitor's
//! sampling tick) feed it live events, and it maintains:
//!
//! * a **fixed-window arrival counter** plus an **integer EWMA arrival-rate
//!   estimator** (per-window counts, smoothed in units of arrivals ×1000 so
//!   no float ever enters the state) whose rate-ramp signal the predictive
//!   autoscaler pre-warms on;
//! * a bounded-error **log₂ quantile sketch** ([`QuantileSketch`]) over
//!   end-to-end and queue latencies — the streamed equivalent of the
//!   offline histograms, with a proptest-certified rank-error bound;
//! * a **multi-window SLO burn-rate evaluator**: per tenant, violation
//!   rates over a fast and a slow window pair are compared against the
//!   error budget, and an alert fires only when *both* burn and the
//!   *queue-attributed share* of tail latency cross their thresholds (so
//!   exec-caused slowness never raises a scaling/queueing alert). The
//!   alert log is a first-class deterministic output;
//! * **per-server health timelines** derived from the monitor's gauges.
//!
//! ## Windows
//!
//! Virtual time is cut into fixed windows of [`ObsConfig::window`] ns;
//! an event at time `t` belongs to window `t / window`. A window is
//! *finalized* the first time any event or query observes a later window
//! (empty gap windows are finalized as zeros), which makes every derived
//! quantity a pure function of the event stream — independent of when
//! queries happen between events.
//!
//! ## Sketch error bound
//!
//! [`QuantileSketch`] buckets a value `v` by its bit length, so bucket
//! `b ≥ 1` covers `[2^(b-1), 2^b - 1]`. A quantile query finds the bucket
//! containing the exact nearest-rank element and returns that bucket's
//! upper bound. The estimate `est` therefore brackets the exact value
//! `x` as `x ≤ est ≤ 2x − 1` (and `est = 0` exactly when `x = 0`):
//! never an underestimate, never more than one power of two high. The
//! proptest battery in this module certifies the bound against exact
//! sorted quantiles for constant, bimodal and heavy-tailed inputs.
//!
//! ## Burn-rate math
//!
//! For a window set with `total` requests and `violations` SLO misses
//! (late, shed or failed — the same rule as [`crate::trace::slo_burn`]),
//! the burn is `(violations·1000/total) · 1000 / error_budget_permille`
//! per mille: 1000 means the budget is being consumed exactly at its
//! sustainable rate. An alert fires for a tenant when both the fast
//! window set (the last [`ObsConfig::fast_windows`] windows) and the slow
//! set (the last [`ObsConfig::slow_windows`]) burn at or above
//! [`BURN_THRESHOLD_PERMILLE`] *and* the tenant's violating requests
//! spent at least [`QUEUE_SHARE_THRESHOLD_PERMILLE`] of their end-to-end
//! time queueing. Alerts are edge-triggered: one
//! `fired` event when the condition becomes true, one `cleared` when it
//! stops.
//!
//! ## Determinism
//!
//! Exactly one simulated process runs at a time, so feed and query calls
//! arrive in a deterministic order per seed; every aggregate is integer
//! arithmetic over that stream; iteration for export is over `BTreeMap`s
//! and append-ordered `Vec`s. [`ObsReport::dashboard_json`] is therefore
//! byte-identical across same-seed reruns.

use std::collections::{BTreeMap, VecDeque};

use crate::cell::SimCell;
use crate::json::JsonWriter;
use crate::json::Layout::{Compact, Inline, Lines};
use crate::kernel::SimHandle;
use crate::time::{Dur, SimTime};

/// Streaming log₂-bucket quantile sketch over `u64` samples.
///
/// O(1) insert, 65 buckets of fixed state, and a certified error bound:
/// for an exact nearest-rank quantile `x`, the estimate `est` satisfies
/// `x ≤ est ≤ 2x − 1` (with `est = 0` iff `x = 0`). See the
/// [module docs](self) for the argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// `buckets[b]` counts samples of bit length `b` (bucket 0 is the
    /// value 0; bucket 64 covers `≥ 2^63`).
    buckets: Vec<u64>,
    count: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: vec![0; 65],
            count: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of the bucket holding the exact nearest-rank quantile
    /// (`q` in permille). 0 on an empty sketch.
    pub fn quantile(&self, q_permille: u64) -> u64 {
        log2_quantile(&self.buckets, self.count, q_permille)
            .expect("cumulative bucket count reaches self.count")
    }
}

/// The log₂ bucket of `v`: its bit length (bucket 0 is the value 0, bucket
/// `b ≥ 1` covers `2^(b-1) ..= 2^b - 1`, bucket 64 everything `≥ 2^63`).
pub(crate) fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound of the [`log2_bucket`] holding the nearest-rank quantile
/// (`q` in permille) of `count` samples bucketed as `buckets`: 0 when there
/// are none, `u64::MAX` for bucket 64. The rank is computed in u128, so no
/// count overflows it. `None` if the buckets hold fewer than that rank.
pub(crate) fn log2_quantile(buckets: &[u64], count: u64, q_permille: u64) -> Option<u64> {
    if count == 0 {
        return Some(0);
    }
    let rank = ((u128::from(count) * u128::from(q_permille)).div_ceil(1000) as u64).clamp(1, count);
    let mut cum = 0u64;
    let b = buckets.iter().position(|&c| {
        cum += c;
        cum >= rank
    })?;
    Some(match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    })
}

/// Burn rate (permille of the budget's sustainable rate) both window sets
/// must reach before an alert fires. 1000 = burning the budget exactly as
/// fast as it refills.
pub const BURN_THRESHOLD_PERMILLE: u64 = 1000;

/// Queue-attributed share of the violating requests' end-to-end time
/// (permille) required before an alert fires, and before burn-rate
/// shedding refuses a tenant — the online analogue of the critical-path
/// attribution gate.
pub const QUEUE_SHARE_THRESHOLD_PERMILLE: u64 = 300;

/// Configuration of the observability plane. All thresholds are integer
/// permille; all windows are virtual-time durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Fixed aggregation window length.
    pub window: Dur,
    /// End-to-end latency SLO target; a completed request above it
    /// violates (shed and failed requests always violate).
    pub slo_target: Dur,
    /// Error budget: permille of requests allowed to violate.
    pub error_budget_permille: u64,
    /// Fast alert window, in aggregation windows.
    pub fast_windows: usize,
    /// Slow alert window, in aggregation windows (≥ `fast_windows`).
    pub slow_windows: usize,
    /// When set, the backend sheds new requests from a tenant whose
    /// fast-window burn rate is at or above this threshold (and whose
    /// burn alert gate holds). `None` — the default — never sheds on
    /// burn rate.
    pub shed_burn_threshold_permille: Option<u64>,
}

impl ObsConfig {
    /// Moderate defaults: 500 ms windows, a 2 s SLO with a 10% budget, a
    /// 2-window fast / 8-window slow burn pair, no burn-rate shedding. The
    /// EWMA, ramp and alert thresholds are fixed: see
    /// [`BURN_THRESHOLD_PERMILLE`] and [`QUEUE_SHARE_THRESHOLD_PERMILLE`].
    pub fn paper_default() -> ObsConfig {
        ObsConfig {
            window: Dur::from_millis(500),
            slo_target: Dur::from_secs(2),
            error_budget_permille: 100,
            fast_windows: 2,
            slow_windows: 8,
            shed_burn_threshold_permille: None,
        }
    }

    /// Builder-style: set the aggregation window.
    pub fn with_window(mut self, d: Dur) -> Self {
        self.window = d;
        self
    }

    /// Builder-style: set the SLO target and error budget.
    pub fn with_slo(mut self, target: Dur, budget_permille: u64) -> Self {
        self.slo_target = target;
        self.error_budget_permille = budget_permille;
        self
    }

    /// Builder-style: set the fast/slow burn window pair.
    pub fn with_burn_windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_windows = fast;
        self.slow_windows = slow;
        self
    }

    /// Builder-style: shed new work from tenants burning at or above
    /// `permille` of the sustainable budget rate.
    pub fn with_shed_burn_threshold(mut self, permille: u64) -> Self {
        self.shed_burn_threshold_permille = Some(permille);
        self
    }

    /// Check the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == Dur::ZERO {
            return Err("obs window must be non-zero".into());
        }
        if self.fast_windows == 0 {
            return Err("obs fast window must cover at least one window".into());
        }
        if self.slow_windows < self.fast_windows {
            return Err("obs slow window must be at least the fast window".into());
        }
        if self.error_budget_permille == 0 {
            return Err("obs error budget must be non-zero".into());
        }
        Ok(())
    }
}

/// One finalized aggregation window of the global stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Window start (ns).
    pub start_ns: u64,
    /// Requests that arrived at the backend's front door in this window.
    pub arrivals: u64,
    /// Requests that reached a terminal state in this window.
    pub finished: u64,
    /// ... of which violated the SLO (late, shed or failed).
    pub violations: u64,
    /// EWMA of per-window arrivals ×1000, after folding in this window.
    pub ewma_rate_milli: u64,
}

/// One tenant's burn accounting for one finalized window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBurnRow {
    /// Tenant name.
    pub tenant: String,
    /// Window start (ns).
    pub window_start_ns: u64,
    /// The tenant's terminal requests in this window.
    pub total: u64,
    /// ... of which violated the SLO.
    pub violations: u64,
    /// Burn rate over the fast window set ending here (0 when the set
    /// held no requests).
    pub fast_burn_permille: u64,
    /// Burn rate over the slow window set ending here.
    pub slow_burn_permille: u64,
    /// Queue-attributed share of the fast set's violating end-to-end
    /// time (0 when no violating time was observed).
    pub queue_share_permille: u64,
}

/// Whether an alert event opened or closed an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The burn + attribution condition became true.
    Fired,
    /// The condition stopped holding.
    Cleared,
}

impl AlertKind {
    /// The wire/JSON form.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertKind::Fired => "fired",
            AlertKind::Cleared => "cleared",
        }
    }
}

/// One edge-triggered burn-rate alert transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// When the transition was evaluated (the end of the finalized
    /// window that caused it).
    pub at: SimTime,
    /// Start (ns) of the window whose finalization triggered the
    /// evaluation.
    pub window_start_ns: u64,
    /// Tenant the alert belongs to.
    pub tenant: String,
    /// Fired or cleared.
    pub kind: AlertKind,
    /// Fast-set burn at evaluation time.
    pub fast_burn_permille: u64,
    /// Slow-set burn at evaluation time.
    pub slow_burn_permille: u64,
    /// Fast-set queue-attributed share at evaluation time.
    pub queue_share_permille: u64,
}

/// Global per-window accumulator.
#[derive(Debug, Clone, Default)]
struct WinAgg {
    arrivals: u64,
    finished: u64,
    violations: u64,
    tail_queue_ns: u64,
    tail_e2e_ns: u64,
}

/// Per-tenant per-window accumulator.
#[derive(Debug, Clone, Default)]
struct TenantWin {
    total: u64,
    violations: u64,
    tail_queue_ns: u64,
    tail_e2e_ns: u64,
}

fn sum_set<'a, I: Iterator<Item = &'a TenantWin>>(it: I) -> TenantWin {
    let mut acc = TenantWin::default();
    for w in it {
        acc.total += w.total;
        acc.violations += w.violations;
        acc.tail_queue_ns += w.tail_queue_ns;
        acc.tail_e2e_ns += w.tail_e2e_ns;
    }
    acc
}

/// Burn rate of a window set in permille of the sustainable budget rate;
/// `None` when the set held no requests.
fn burn_permille(total: u64, violations: u64, budget_permille: u64) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let vp = violations.saturating_mul(1000) / total;
    Some(vp.saturating_mul(1000) / budget_permille.max(1))
}

fn share_permille(part: u64, whole: u64) -> Option<u64> {
    if whole == 0 {
        return None;
    }
    Some(((part as u128 * 1000) / whole as u128) as u64)
}

/// EWMA smoothing factor of the arrival-rate estimator, in permille: each
/// finalized window contributes 30%.
const EWMA_ALPHA_PERMILLE: u64 = 300;

#[derive(Debug, Clone)]
struct Inner {
    /// Window currently accumulating. Meaningless until `started`.
    cur_idx: u64,
    started: bool,
    cur: WinAgg,
    cur_tenants: BTreeMap<String, TenantWin>,
    ewma_rate_milli: u64,
    ewma_seeded: bool,
    /// Finalized per-tenant windows, most recent at the back, bounded to
    /// `slow_windows`. Every known tenant gets a (possibly zero) entry
    /// per finalized window, so sets stay time-aligned.
    tenant_hist: BTreeMap<String, VecDeque<TenantWin>>,
    /// Global (tail_queue, tail_e2e) of recent finalized windows, bounded
    /// to `fast_windows` (drives the autoscaler's attribution gate).
    share_hist: VecDeque<(u64, u64)>,
    windows: Vec<WindowRow>,
    tenant_rows: Vec<TenantBurnRow>,
    alert_active: BTreeMap<String, bool>,
    alerts: Vec<AlertEvent>,
    e2e_sketch: QuantileSketch,
    queue_sketch: QuantileSketch,
    /// Per-server-label health timelines (ns, score in permille),
    /// recorded on change.
    health: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            cur_idx: 0,
            started: false,
            cur: WinAgg::default(),
            cur_tenants: BTreeMap::new(),
            ewma_rate_milli: 0,
            ewma_seeded: false,
            tenant_hist: BTreeMap::new(),
            share_hist: VecDeque::new(),
            windows: Vec::new(),
            tenant_rows: Vec::new(),
            alert_active: BTreeMap::new(),
            alerts: Vec::new(),
            e2e_sketch: QuantileSketch::new(),
            queue_sketch: QuantileSketch::new(),
            health: BTreeMap::new(),
        }
    }

    /// Advance to `idx`, finalizing every window before it (gap windows
    /// finalize as zeros).
    fn roll(&mut self, cfg: &ObsConfig, idx: u64) {
        if !self.started {
            self.started = true;
            self.cur_idx = idx;
            return;
        }
        while self.cur_idx < idx {
            self.finalize_window(cfg);
            self.cur_idx += 1;
        }
    }

    fn finalize_window(&mut self, cfg: &ObsConfig) {
        let start_ns = self.cur_idx * cfg.window.as_nanos();
        // EWMA of per-window arrivals, in arrivals ×1000.
        let sample = self.cur.arrivals * 1000;
        self.ewma_rate_milli = if self.ewma_seeded {
            let a = EWMA_ALPHA_PERMILLE;
            (a * sample + (1000 - a) * self.ewma_rate_milli) / 1000
        } else {
            self.ewma_seeded = true;
            sample
        };
        self.windows.push(WindowRow {
            start_ns,
            arrivals: self.cur.arrivals,
            finished: self.cur.finished,
            violations: self.cur.violations,
            ewma_rate_milli: self.ewma_rate_milli,
        });
        self.share_hist
            .push_back((self.cur.tail_queue_ns, self.cur.tail_e2e_ns));
        while self.share_hist.len() > cfg.fast_windows {
            self.share_hist.pop_front();
        }
        // Per-tenant: every known tenant gets an entry (zeros when idle
        // this window) so fast/slow sets stay aligned in time.
        let mut tenants: Vec<String> = self.tenant_hist.keys().cloned().collect();
        for t in self.cur_tenants.keys() {
            if !self.tenant_hist.contains_key(t) {
                tenants.push(t.clone());
            }
        }
        tenants.sort();
        tenants.dedup();
        let cur_tenants = std::mem::take(&mut self.cur_tenants);
        for tenant in tenants {
            let tw = cur_tenants.get(&tenant).cloned().unwrap_or_default();
            let hist = self.tenant_hist.entry(tenant.clone()).or_default();
            hist.push_back(tw);
            while hist.len() > cfg.slow_windows {
                hist.pop_front();
            }
            let fast_n = cfg.fast_windows.min(hist.len());
            let fast = sum_set(hist.iter().skip(hist.len() - fast_n));
            let slow = sum_set(hist.iter());
            let fast_burn = burn_permille(fast.total, fast.violations, cfg.error_budget_permille);
            let slow_burn = burn_permille(slow.total, slow.violations, cfg.error_budget_permille);
            let share = share_permille(fast.tail_queue_ns, fast.tail_e2e_ns);
            self.tenant_rows.push(TenantBurnRow {
                tenant: tenant.clone(),
                window_start_ns: start_ns,
                total: hist.back().map(|w| w.total).unwrap_or(0),
                violations: hist.back().map(|w| w.violations).unwrap_or(0),
                fast_burn_permille: fast_burn.unwrap_or(0),
                slow_burn_permille: slow_burn.unwrap_or(0),
                queue_share_permille: share.unwrap_or(0),
            });
            let firing = fast_burn.is_some_and(|b| b >= BURN_THRESHOLD_PERMILLE)
                && slow_burn.is_some_and(|b| b >= BURN_THRESHOLD_PERMILLE)
                && share.is_some_and(|s| s >= QUEUE_SHARE_THRESHOLD_PERMILLE);
            let active = self.alert_active.entry(tenant.clone()).or_insert(false);
            if firing != *active {
                *active = firing;
                self.alerts.push(AlertEvent {
                    at: SimTime(start_ns + cfg.window.as_nanos()),
                    window_start_ns: start_ns,
                    tenant,
                    kind: if firing {
                        AlertKind::Fired
                    } else {
                        AlertKind::Cleared
                    },
                    fast_burn_permille: fast_burn.unwrap_or(0),
                    slow_burn_permille: slow_burn.unwrap_or(0),
                    queue_share_permille: share.unwrap_or(0),
                });
            }
        }
        self.cur = WinAgg::default();
    }

    /// Fast-set + current-partial-window burn for one tenant (the *live*
    /// signal, ahead of finalization).
    fn live_fast_burn(&self, cfg: &ObsConfig, tenant: &str) -> Option<u64> {
        let mut acc = self
            .tenant_hist
            .get(tenant)
            .map(|hist| {
                let n = cfg.fast_windows.min(hist.len());
                sum_set(hist.iter().skip(hist.len() - n))
            })
            .unwrap_or_default();
        if let Some(cur) = self.cur_tenants.get(tenant) {
            acc.total += cur.total;
            acc.violations += cur.violations;
            acc.tail_queue_ns += cur.tail_queue_ns;
            acc.tail_e2e_ns += cur.tail_e2e_ns;
        }
        burn_permille(acc.total, acc.violations, cfg.error_budget_permille)
    }

    /// Fast-set + current-partial queue share of one tenant's violating
    /// latency (the live analogue of the alert's attribution gate).
    fn live_queue_share(&self, cfg: &ObsConfig, tenant: &str) -> Option<u64> {
        let mut acc = self
            .tenant_hist
            .get(tenant)
            .map(|hist| {
                let n = cfg.fast_windows.min(hist.len());
                sum_set(hist.iter().skip(hist.len() - n))
            })
            .unwrap_or_default();
        if let Some(cur) = self.cur_tenants.get(tenant) {
            acc.tail_queue_ns += cur.tail_queue_ns;
            acc.tail_e2e_ns += cur.tail_e2e_ns;
        }
        share_permille(acc.tail_queue_ns, acc.tail_e2e_ns)
    }
}

/// Rate-ramp trigger: a ramp is signalled while the current window's
/// arrivals reach `RAMP_NUM/RAMP_DEN` × the smoothed per-window rate.
const RAMP_NUM: u64 = 3;
const RAMP_DEN: u64 = 2;

/// Arrivals the current window needs before a ramp can be signalled
/// (suppresses cold-start noise).
const MIN_RAMP_ARRIVALS: u64 = 4;

/// The online observability plane. Shared (`Rc`) between the serverless
/// backend (arrival/completion feed), the monitors (health feed, scaling
/// signals) and the harness (report export). Interior mutability only —
/// every method takes `&self`.
pub struct ObsPlane {
    cfg: ObsConfig,
    inner: SimCell<Inner>,
}

impl ObsPlane {
    /// A fresh plane under `cfg`, its state in a cell of the simulation `h`
    /// belongs to.
    pub fn new(h: &SimHandle, cfg: ObsConfig) -> ObsPlane {
        ObsPlane {
            cfg,
            inner: SimCell::new(h, Inner::new()),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    fn idx(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.cfg.window.as_nanos()
    }

    /// Record one request arriving at the platform's front door.
    pub fn record_arrival(&self, now: SimTime) {
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        inner.cur.arrivals += 1;
    }

    /// Record one request reaching a terminal state: `e2e` is its
    /// client-observed latency, `queue_wait` the total time it spent in
    /// GPU-server queues across every attempt, `completed` whether it
    /// succeeded. Violation follows the same rule as the offline
    /// [`crate::trace::slo_burn`]: shed/failed always violate; completed
    /// requests violate above the SLO target.
    pub fn record_completion(
        &self,
        now: SimTime,
        tenant: &str,
        e2e: Dur,
        queue_wait: Dur,
        completed: bool,
    ) {
        let violated = !completed || e2e > self.cfg.slo_target;
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        inner.e2e_sketch.record(e2e.as_nanos());
        inner.queue_sketch.record(queue_wait.as_nanos());
        inner.cur.finished += 1;
        let tw = inner.cur_tenants.entry(tenant.to_string()).or_default();
        tw.total += 1;
        if violated {
            inner.cur.violations += 1;
            let tw = inner
                .cur_tenants
                .get_mut(tenant)
                .expect("entry inserted above");
            tw.violations += 1;
            if e2e > Dur::ZERO {
                tw.tail_queue_ns += queue_wait.as_nanos();
                tw.tail_e2e_ns += e2e.as_nanos();
                inner.cur.tail_queue_ns += queue_wait.as_nanos();
                inner.cur.tail_e2e_ns += e2e.as_nanos();
            }
        }
    }

    /// Record one server's health score (permille; 1000 = fully healthy)
    /// under a stable label. Stored on change only.
    pub fn record_health(&self, now: SimTime, label: &str, score_permille: u64) {
        let score = score_permille.min(1000);
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        let sample = (now.as_nanos(), score);
        match inner.health.get_mut(label) {
            Some(tl) if tl.last().map(|&(_, s)| s) == Some(score) => {}
            Some(tl) => tl.push(sample),
            None => {
                inner.health.insert(label.to_string(), vec![sample]);
            }
        }
    }

    /// True while the current window's arrivals already reach
    /// `RAMP_NUM/RAMP_DEN` (1.5) × the smoothed per-window rate, with at
    /// least `MIN_RAMP_ARRIVALS` (4) arrivals — the predictive
    /// autoscaler's pre-warm signal.
    pub fn rate_ramp(&self, now: SimTime) -> bool {
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        let cur = inner.cur.arrivals;
        if cur < MIN_RAMP_ARRIVALS {
            return false;
        }
        // Floor the baseline at one arrival per window so a cold start
        // cannot divide by (near) zero and call everything a ramp.
        let baseline = inner.ewma_rate_milli.max(1000);
        cur * 1000 * RAMP_DEN >= baseline * RAMP_NUM
    }

    /// Smoothed arrival rate: EWMA of per-window arrivals ×1000.
    pub fn ewma_rate_milli(&self, now: SimTime) -> u64 {
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        inner.ewma_rate_milli
    }

    /// Queue-attributed share (permille) of violating end-to-end time
    /// over the recent fast set plus the current partial window, across
    /// all tenants. `None` while no violating latency has been observed
    /// in that span — callers must treat that as "no attribution data",
    /// not as zero.
    pub fn tail_queue_share_permille(&self, now: SimTime) -> Option<u64> {
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        let mut q: u64 = inner.share_hist.iter().map(|&(a, _)| a).sum();
        let mut e: u64 = inner.share_hist.iter().map(|&(_, b)| b).sum();
        q += inner.cur.tail_queue_ns;
        e += inner.cur.tail_e2e_ns;
        share_permille(q, e)
    }

    /// True when the backend should shed new work from `tenant`:
    /// [`ObsConfig::shed_burn_threshold_permille`] is set, the tenant's
    /// live fast-window burn is at or above it, and the queue-share gate
    /// holds (burn caused by queueing overload, not by exec slowness).
    pub fn shed_due(&self, now: SimTime, tenant: &str) -> bool {
        let Some(th) = self.cfg.shed_burn_threshold_permille else {
            return false;
        };
        let mut inner = self.inner.lock();
        inner.roll(&self.cfg, self.idx(now));
        inner
            .live_fast_burn(&self.cfg, tenant)
            .is_some_and(|b| b >= th)
            && inner
                .live_queue_share(&self.cfg, tenant)
                .is_some_and(|s| s >= QUEUE_SHARE_THRESHOLD_PERMILLE)
    }

    /// Snapshot everything into an [`ObsReport`]. Non-destructive and
    /// repeatable: the live state is cloned and its partial window
    /// flushed on the copy, so feeding may continue afterwards.
    pub fn report(&self) -> ObsReport {
        let mut inner = self.inner.lock().clone();
        if inner.started
            && (inner.cur.arrivals > 0 || inner.cur.finished > 0 || !inner.cur_tenants.is_empty())
        {
            inner.finalize_window(&self.cfg);
        }
        ObsReport {
            window_ns: self.cfg.window.as_nanos(),
            windows: inner.windows,
            tenants: inner.tenant_rows,
            alerts: inner.alerts,
            health: inner.health.into_iter().collect(),
            e2e_p50_ns: inner.e2e_sketch.quantile(500),
            e2e_p95_ns: inner.e2e_sketch.quantile(950),
            e2e_p99_ns: inner.e2e_sketch.quantile(990),
            queue_p50_ns: inner.queue_sketch.quantile(500),
            queue_p95_ns: inner.queue_sketch.quantile(950),
            queue_p99_ns: inner.queue_sketch.quantile(990),
        }
    }
}

/// Deterministic snapshot of the observability plane: the dashboard's
/// ground truth. Integer-only; byte-identical per seed via
/// [`ObsReport::dashboard_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReport {
    /// Aggregation window length (ns).
    pub window_ns: u64,
    /// Finalized global windows, in time order.
    pub windows: Vec<WindowRow>,
    /// Per-tenant burn rows, in (window, tenant) order.
    pub tenants: Vec<TenantBurnRow>,
    /// The alert log, in firing order.
    pub alerts: Vec<AlertEvent>,
    /// Per-server health timelines, sorted by label.
    pub health: Vec<(String, Vec<(u64, u64)>)>,
    /// Streamed end-to-end p50 (sketch upper bound, ns).
    pub e2e_p50_ns: u64,
    /// Streamed end-to-end p95 (ns).
    pub e2e_p95_ns: u64,
    /// Streamed end-to-end p99 (ns).
    pub e2e_p99_ns: u64,
    /// Streamed queue-wait p50 (ns).
    pub queue_p50_ns: u64,
    /// Streamed queue-wait p95 (ns).
    pub queue_p95_ns: u64,
    /// Streamed queue-wait p99 (ns).
    pub queue_p99_ns: u64,
}

impl ObsReport {
    /// Alerts that fired (opened), in order.
    pub fn fired(&self) -> impl Iterator<Item = &AlertEvent> {
        self.alerts.iter().filter(|a| a.kind == AlertKind::Fired)
    }

    /// Render the dashboard JSON: integer-only, deterministic key order,
    /// byte-identical across same-seed reruns.
    pub fn dashboard_json(&self) -> String {
        let percentiles = |j: &mut JsonWriter, p50: u64, p95: u64, p99: u64| {
            j.object(Inline, |j| {
                j.key("p50_ns")
                    .u64(p50)
                    .key("p95_ns")
                    .u64(p95)
                    .key("p99_ns")
                    .u64(p99);
            });
        };
        let mut j = JsonWriter::new();
        j.object(Lines(2), |j| {
            j.key("window_ns").u64(self.window_ns);
            j.key("windows").array(Lines(4), |j| {
                for w in &self.windows {
                    j.object(Inline, |j| {
                        j.key("start_ns").u64(w.start_ns);
                        j.key("arrivals").u64(w.arrivals);
                        j.key("finished").u64(w.finished);
                        j.key("violations").u64(w.violations);
                        j.key("ewma_rate_milli").u64(w.ewma_rate_milli);
                    });
                }
            });
            j.key("tenants").array(Lines(4), |j| {
                for t in &self.tenants {
                    j.object(Inline, |j| {
                        j.key("tenant").str(&t.tenant);
                        j.key("window_start_ns").u64(t.window_start_ns);
                        j.key("total").u64(t.total);
                        j.key("violations").u64(t.violations);
                        j.key("fast_burn_permille").u64(t.fast_burn_permille);
                        j.key("slow_burn_permille").u64(t.slow_burn_permille);
                        j.key("queue_share_permille").u64(t.queue_share_permille);
                    });
                }
            });
            j.key("alerts").array(Lines(4), |j| {
                for a in &self.alerts {
                    j.object(Inline, |j| {
                        j.key("at_ns").u64(a.at.as_nanos());
                        j.key("window_start_ns").u64(a.window_start_ns);
                        j.key("tenant").str(&a.tenant);
                        j.key("kind").str(a.kind.as_str());
                        j.key("fast_burn_permille").u64(a.fast_burn_permille);
                        j.key("slow_burn_permille").u64(a.slow_burn_permille);
                        j.key("queue_share_permille").u64(a.queue_share_permille);
                    });
                }
            });
            j.key("health").object(Lines(4), |j| {
                for (label, tl) in &self.health {
                    j.key(label).array(Compact, |j| {
                        for &(t, v) in tl {
                            j.array(Compact, |j| {
                                j.u64(t).u64(v);
                            });
                        }
                    });
                }
            });
            j.key("latency").object(Lines(4), |j| {
                j.key("e2e");
                percentiles(j, self.e2e_p50_ns, self.e2e_p95_ns, self.e2e_p99_ns);
                j.key("queue");
                percentiles(j, self.queue_p50_ns, self.queue_p95_ns, self.queue_p99_ns);
            });
        });
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile_permille;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Dur::from_millis(ms)
    }

    fn plane(cfg: ObsConfig) -> ObsPlane {
        ObsPlane::new(&crate::Sim::new(0).handle(), cfg)
    }

    fn cfg() -> ObsConfig {
        ObsConfig::paper_default()
            .with_window(Dur::from_millis(500))
            .with_slo(Dur::from_millis(100), 100)
            .with_burn_windows(2, 4)
    }

    fn assert_bound(xs: &[u64], q: u64) {
        let mut sk = QuantileSketch::new();
        for &x in xs {
            sk.record(x);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_unstable();
        let exact = percentile_permille(&sorted, q);
        let est = sk.quantile(q);
        if exact == 0 {
            assert_eq!(est, 0, "q{q} over {} samples", xs.len());
        } else {
            assert!(
                exact <= est && est < 2 * exact,
                "q{q}: exact {exact}, est {est} out of [x, 2x-1]"
            );
        }
    }

    #[test]
    fn sketch_is_exact_on_powers_of_two_minus_one() {
        let mut sk = QuantileSketch::new();
        for v in [0u64, 1, 3, 7, 15] {
            sk.record(v);
        }
        assert_eq!(sk.quantile(1000), 15);
        assert_eq!(sk.quantile(1), 0);
        assert_eq!(sk.quantile(500), 3);
    }

    #[test]
    fn sketch_handles_extremes() {
        let mut sk = QuantileSketch::new();
        assert_eq!(sk.quantile(500), 0, "empty sketch");
        sk.record(u64::MAX);
        assert_eq!(sk.quantile(500), u64::MAX, "top bucket saturates");
    }

    #[test]
    fn sketch_bound_on_adversarial_distributions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Constant stream.
        assert_bound(&vec![42_000u64; 500], 500);
        assert_bound(&vec![42_000u64; 500], 990);
        // Bimodal: tight cluster + far cluster.
        let mut bimodal: Vec<u64> = vec![10; 450];
        bimodal.extend(vec![1_000_000u64; 50]);
        for q in [500, 950, 990] {
            assert_bound(&bimodal, q);
        }
        // Heavy-tailed Zipf ranks mapped to exponential-ish magnitudes.
        let mut rng = StdRng::seed_from_u64(7);
        let z = crate::rng::Zipf::new(64, 1.2);
        let zipf: Vec<u64> = (0..2000)
            .map(|_| 1u64 << (z.sample(&mut rng).min(40) as u32))
            .collect();
        for q in [500, 950, 990] {
            assert_bound(&zipf, q);
        }
        // Log-normal durations via the sim's deterministic sampler.
        let mut rng = StdRng::seed_from_u64(11);
        let lognorm: Vec<u64> = (0..2000)
            .map(|_| crate::rng::lognormal_dur(&mut rng, (0.01f64).ln(), 1.5).as_nanos())
            .collect();
        for q in [500, 950, 990] {
            assert_bound(&lognorm, q);
        }
    }

    #[test]
    fn ewma_tracks_arrivals_and_ramp_fires_on_surge() {
        let obs = plane(cfg());
        // Two calm windows of 2 arrivals each.
        for w in 0..2u64 {
            for k in 0..2u64 {
                obs.record_arrival(t(w * 500 + k * 100));
            }
        }
        assert!(!obs.rate_ramp(t(1100)), "2 arrivals is under min_ramp");
        // Surge: 10 arrivals early in window 2 → ≥1.5× the EWMA.
        for k in 0..10u64 {
            obs.record_arrival(t(1000 + k * 10));
        }
        assert!(obs.rate_ramp(t(1200)), "10 vs EWMA≈2 is a ramp");
        let rate = obs.ewma_rate_milli(t(1200));
        assert_eq!(rate, 2000, "two seeded windows of 2 → 2000 milli");
    }

    #[test]
    fn gap_windows_finalize_as_zeros() {
        let obs = plane(cfg());
        obs.record_arrival(t(100));
        obs.record_arrival(t(5100)); // 10 windows later
        let r = obs.report();
        assert_eq!(r.windows.len(), 11, "w0..w9 finalized + flushed w10");
        assert_eq!(r.windows[0].arrivals, 1);
        assert!(r.windows[1..10].iter().all(|w| w.arrivals == 0));
        assert_eq!(r.windows[10].arrivals, 1);
    }

    #[test]
    fn burn_alert_fires_on_queue_caused_violations_only() {
        // Tenant "hot": every request violates (e2e 400ms > 100ms target)
        // with queue-dominated latency → alert fires. Tenant "cpu":
        // violates just as hard but with zero queueing → never alerts.
        let obs = plane(cfg());
        for w in 0..4u64 {
            for k in 0..5u64 {
                let at = t(w * 500 + 50 + k * 20);
                obs.record_completion(
                    at,
                    "hot",
                    Dur::from_millis(400),
                    Dur::from_millis(300),
                    true,
                );
                obs.record_completion(at, "cpu", Dur::from_millis(400), Dur::ZERO, true);
            }
        }
        let r = obs.report();
        let fired: Vec<&AlertEvent> = r.fired().collect();
        assert!(!fired.is_empty(), "hot must alert");
        assert!(fired.iter().all(|a| a.tenant == "hot"));
        assert!(
            fired.iter().all(|a| a.queue_share_permille >= 300),
            "every fired alert passed the attribution gate"
        );
        assert!(
            !r.alerts.iter().any(|a| a.tenant == "cpu"),
            "exec-caused burn never alerts: {:?}",
            r.alerts
        );
    }

    #[test]
    fn alerts_are_edge_triggered_and_clear() {
        let obs = plane(cfg());
        // 4 bad windows, then 8 good ones (slow set drains).
        for w in 0..12u64 {
            for k in 0..5u64 {
                let at = t(w * 500 + 50 + k * 20);
                let (e2e, q) = if w < 4 {
                    (Dur::from_millis(400), Dur::from_millis(300))
                } else {
                    (Dur::from_millis(50), Dur::ZERO)
                };
                obs.record_completion(at, "hot", e2e, q, true);
            }
        }
        let r = obs.report();
        let kinds: Vec<AlertKind> = r.alerts.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![AlertKind::Fired, AlertKind::Cleared],
            "one rising edge, one falling edge: {:?}",
            r.alerts
        );
    }

    #[test]
    fn shed_due_requires_threshold_and_queue_gate() {
        let base = cfg();
        let without = plane(base.clone());
        let with = plane(base.with_shed_burn_threshold(1000));
        for k in 0..10u64 {
            let at = t(50 + k * 20);
            for obs in [&without, &with] {
                obs.record_completion(
                    at,
                    "hot",
                    Dur::from_millis(400),
                    Dur::from_millis(300),
                    true,
                );
                obs.record_completion(at, "cpu", Dur::from_millis(400), Dur::ZERO, true);
            }
        }
        assert!(!without.shed_due(t(300), "hot"), "no threshold configured");
        assert!(with.shed_due(t(300), "hot"), "burning and queue-caused");
        assert!(
            !with.shed_due(t(300), "cpu"),
            "exec-caused burn never sheds"
        );
        assert!(!with.shed_due(t(300), "idle"), "unknown tenant has no data");
    }

    #[test]
    fn health_timeline_dedups_on_change() {
        let obs = plane(cfg());
        obs.record_health(t(0), "srv0.gpu0", 1000);
        obs.record_health(t(200), "srv0.gpu0", 1000);
        obs.record_health(t(400), "srv0.gpu0", 700);
        obs.record_health(t(600), "srv0.gpu0", 700);
        let r = obs.report();
        assert_eq!(r.health.len(), 1);
        assert_eq!(r.health[0].1, vec![(0, 1000), (400_000_000, 700)]);
    }

    #[test]
    fn report_is_repeatable_and_dashboard_deterministic() {
        let obs = plane(cfg());
        for k in 0..7u64 {
            obs.record_arrival(t(k * 130));
            obs.record_completion(
                t(k * 130 + 60),
                "hot",
                Dur::from_millis(150),
                Dur::from_millis(90),
                true,
            );
        }
        obs.record_health(t(400), "srv0.gpu0", 900);
        let a = obs.report();
        let b = obs.report();
        assert_eq!(a, b, "report is non-destructive");
        assert_eq!(a.dashboard_json(), b.dashboard_json());
        // Shape sanity: valid-ish JSON with the documented keys.
        let j = a.dashboard_json();
        for key in [
            "window_ns",
            "windows",
            "tenants",
            "alerts",
            "health",
            "latency",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(ObsConfig::paper_default().validate().is_ok());
        assert!(ObsConfig::paper_default()
            .with_window(Dur::ZERO)
            .validate()
            .is_err());
        assert!(ObsConfig::paper_default()
            .with_burn_windows(0, 4)
            .validate()
            .is_err());
        assert!(ObsConfig::paper_default()
            .with_burn_windows(4, 2)
            .validate()
            .is_err());
        let mut c = ObsConfig::paper_default();
        c.error_budget_permille = 0;
        assert!(c.validate().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::stats::percentile_permille;
    use proptest::prelude::*;

    proptest! {
        /// The documented rank-error bound holds for arbitrary streams:
        /// the estimate never undershoots the exact nearest-rank value
        /// and never reaches twice it.
        #[test]
        fn sketch_bound_holds_for_arbitrary_streams(
            xs in proptest::collection::vec(0u64..u64::MAX, 1..512),
            q in 1u64..1001,
        ) {
            let mut sk = QuantileSketch::new();
            for &x in &xs {
                sk.record(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let exact = percentile_permille(&sorted, q);
            let est = sk.quantile(q);
            if exact == 0 {
                prop_assert_eq!(est, 0);
            } else {
                prop_assert!(exact <= est, "under: exact {} est {}", exact, est);
                // est ≤ 2·exact − 1, saturating so exact near u64::MAX
                // cannot overflow the check.
                prop_assert!(
                    est < exact.saturating_mul(2) || est == u64::MAX && exact > (1 << 63),
                    "over: exact {} est {}", exact, est
                );
            }
        }

        /// Insert order never matters (the sketch is a pure multiset).
        #[test]
        fn sketch_is_order_insensitive(
            xs in proptest::collection::vec(0u64..1_000_000, 2..128),
        ) {
            let mut a = QuantileSketch::new();
            for &x in &xs {
                a.record(x);
            }
            let mut xs = xs;
            xs.reverse();
            let mut b = QuantileSketch::new();
            for &x in &xs {
                b.record(x);
            }
            prop_assert_eq!(a, b);
        }
    }
}
