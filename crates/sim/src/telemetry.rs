//! Deterministic sim-time telemetry: spans, counters, gauges, histograms.
//!
//! Every [`Sim`](crate::Sim) owns one [`Telemetry`] registry, disabled by
//! default (recording methods early-return on a single relaxed atomic load).
//! When enabled, instrumented layers record
//!
//! * **spans** — named intervals of virtual time on a named track
//!   (invocation → phase → RPC nesting falls out of tracks being process
//!   names),
//! * **instant events** — point-in-time markers with key/value arguments
//!   (migrations, retries, lease expirations),
//! * **counters** — monotonic `u64` sums (RPC calls per API class, retries,
//!   drops, failures),
//! * **gauges** — `(SimTime, i64)` timelines (queue depth, per-GPU memory
//!   and utilization), and
//! * **histograms** — log₂-bucketed `u64` distributions (per-API-class RPC
//!   latency and bytes).
//!
//! # Determinism contract
//!
//! All timestamps are virtual ([`SimTime`]) and recording order follows the
//! kernel's deterministic schedule, so two runs with the same seed produce
//! **byte-identical** exports. To keep that property the registry never
//! consults wall clocks, never *iterates* hash maps (state lives in
//! `BTreeMap`s and append-ordered `Vec`s; a lookup-only index keeps
//! first-use tids), never draws from any RNG, and exports only integers —
//! no float formatting. Telemetry being enabled or disabled must not
//! perturb the simulation itself: recording never sleeps, never yields and
//! never touches the sim RNG.
//!
//! Recording is O(1) in the run length and allocates nothing once a key is
//! known: track and span names are interned to `u32` ids, every item's
//! arguments live in one flat `Vec`, and [`SpanRecord`]/[`EventRecord`]
//! are rebuilt only when queried.
//!
//! Exports come in two shapes: a JSON metrics snapshot
//! ([`Telemetry::metrics_json`]) and a Chrome trace-event file
//! ([`Telemetry::chrome_trace_json`]) loadable in `chrome://tracing` /
//! Perfetto.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cell::{SimCell, SimLock};
use crate::json::JsonWriter;
use crate::json::Layout::{Compact, Inline, Lines};
use crate::time::{Dur, SimTime};

/// Request-scoped causal context, threaded from the serverless front door
/// down through admission, routing, the RPC wire and the GPU server so
/// every span/instant a single invocation produces can be joined back into
/// one tree ([`crate::trace`]).
///
/// `id` is platform-unique (allocated by [`Telemetry::next_trace_id`], not
/// per-server), `attempt` is the 1-based retry attempt the context belongs
/// to (0 = whole-request scope, before any attempt starts), and `tenant` is
/// the owning tenant for per-tenant attribution and SLO accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCtx {
    /// Platform-unique trace (invocation) id.
    pub id: u64,
    /// 1-based attempt number; 0 for whole-request scope.
    pub attempt: u32,
    /// Owning tenant (cheap to clone).
    pub tenant: Arc<str>,
}

impl TraceCtx {
    /// A whole-request context (attempt 0) for trace `id` owned by `tenant`.
    pub fn new(id: u64, tenant: &str) -> TraceCtx {
        TraceCtx {
            id,
            attempt: 0,
            tenant: Arc::from(tenant),
        }
    }

    /// The same trace scoped to one retry `attempt` (1-based).
    pub fn with_attempt(&self, attempt: u32) -> TraceCtx {
        TraceCtx {
            id: self.id,
            attempt,
            tenant: Arc::clone(&self.tenant),
        }
    }

    /// The standard `inv`/`attempt` span argument pair for this context.
    pub fn span_args(&self) -> [(&'static str, String); 2] {
        [
            ("inv", self.id.to_string()),
            ("attempt", self.attempt.to_string()),
        ]
    }
}

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values with bit length `b` (i.e. `2^(b-1) ..= 2^b - 1`).
const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed distribution of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Bucket counts; index = bit length of the sample value.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = (64 - value.leading_zeros()) as usize;
        self.buckets[b] += 1;
    }

    /// Nearest-rank quantile estimate from the buckets: the upper bound of
    /// the bucket containing the q-th sample (exact for min/max, a ≤2×
    /// overestimate inside a bucket). Integer-only, so deterministic.
    pub fn quantile_upper_bound(&self, q_permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count * q_permille).div_ceil(1000)).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 {
                    0
                } else {
                    (1u64 << b).wrapping_sub(1)
                };
            }
        }
        self.max
    }
}

/// One closed span, for programmatic test oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Track (thread lane) the span lives on — by convention the recording
    /// process's name.
    pub track: String,
    /// Span name (e.g. a phase or an RPC class).
    pub name: String,
    /// Category ("invocation", "phase", "rpc", "server", ...).
    pub cat: String,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Key/value arguments, in recording order (empty for plain spans).
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's duration.
    pub fn dur(&self) -> Dur {
        self.end.since(self.start)
    }
}

/// One instant event, for programmatic test oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Track the event is attached to.
    pub track: String,
    /// Event name (e.g. "migration", "retry", "lease-expired").
    pub name: String,
    /// When it happened.
    pub at: SimTime,
    /// Key/value arguments, in recording order.
    pub args: Vec<(String, String)>,
}

/// Both export artifacts of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryExport {
    /// JSON metrics snapshot (counters, gauges, histograms).
    pub metrics_json: String,
    /// Chrome trace-event JSON (spans + instants + track names).
    pub chrome_trace_json: String,
}

/// One recorded span or instant. `track` and `name` are [`Interner`] ids
/// and `args` is a range into [`TelState::args`], so recording known names
/// allocates nothing.
struct TraceItem {
    track: u32,
    name: u32,
    args: Range<u32>,
    kind: ItemKind,
}

enum ItemKind {
    Span {
        cat: &'static str,
        start: SimTime,
        end: SimTime,
    },
    Instant {
        at: SimTime,
    },
}

/// Strings in first-use order (the index is the id) plus a lookup-only
/// hash index, so interning is O(1). The index is never iterated: ids, and
/// everything exported in id order, follow first use. Its keys are the
/// program's own names, so it hashes with fixed keys rather than carrying
/// per-map random state.
#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32, BuildHasherDefault<DefaultHasher>>,
}

impl Interner {
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

#[derive(Default)]
struct TelState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<(SimTime, i64)>>,
    histograms: BTreeMap<String, Histogram>,
    items: Vec<TraceItem>,
    /// Key/value arguments of every item, back to back.
    args: Vec<(&'static str, String)>,
    /// Track name → tid, in first-use order (deterministic).
    tracks: Interner,
    /// Span and instant names.
    names: Interner,
}

impl TelState {
    fn push(&mut self, track: &str, name: &str, args: &[(&'static str, String)], kind: ItemKind) {
        let track = self.tracks.id(track);
        let name = self.names.id(name);
        let first = self.args.len() as u32;
        self.args.extend_from_slice(args);
        self.items.push(TraceItem {
            track,
            name,
            args: first..self.args.len() as u32,
            kind,
        });
    }

    fn args(&self, it: &TraceItem) -> &[(&'static str, String)] {
        &self.args[it.args.start as usize..it.args.end as usize]
    }

    fn owned_args(&self, it: &TraceItem) -> Vec<(String, String)> {
        self.args(it)
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }
}

/// Apply `f` to `map[name]`, created with `T::default()` on first use. A
/// known key costs one lookup and no allocation.
fn upsert<T: Default>(map: &mut BTreeMap<String, T>, name: &str, f: impl FnOnce(&mut T)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// The per-simulation telemetry registry. See the [module docs](self) for
/// the recording model and determinism contract.
pub struct Telemetry {
    enabled: AtomicBool,
    /// Under the simulation's lock when [`Sim::new`](crate::Sim::new)
    /// builds the registry; under a lock of its own otherwise.
    state: SimCell<TelState>,
    next_trace: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A disabled registry (the state every [`Sim`](crate::Sim) starts in),
    /// under a lock of its own.
    pub fn new() -> Telemetry {
        Telemetry::with_lock(&SimLock::new())
    }

    /// A disabled registry under a simulation's lock.
    pub(crate) fn with_lock(lock: &Arc<SimLock>) -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(false),
            state: SimCell::with_lock(lock, TelState::default()),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Allocate the next platform-unique trace id. Unlike recording, this
    /// is *not* gated on [`Telemetry::is_enabled`]: the id sequence must be
    /// identical between traced and untraced runs of the same seed, and a
    /// relaxed fetch-add cannot perturb the simulation (exactly one process
    /// runs at a time, so allocation order is the kernel's schedule).
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Turn recording on. Everything recorded before this call was dropped.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether recording is on. Call sites that need to build strings for
    /// arguments should guard on this to keep the disabled path free.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    // ---- recording ----------------------------------------------------

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() || delta == 0 {
            return;
        }
        upsert(&mut self.state.lock().counters, name, |c| *c += delta);
    }

    /// Append a `(at, value)` sample to gauge `name`'s timeline.
    pub fn gauge_set(&self, name: &str, at: SimTime, value: i64) {
        if !self.is_enabled() {
            return;
        }
        upsert(&mut self.state.lock().gauges, name, |g| g.push((at, value)));
    }

    /// Record `value` into histogram `name`.
    pub fn histogram_record(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        upsert(&mut self.state.lock().histograms, name, |h| h.record(value));
    }

    /// Record a closed span of virtual time on `track`.
    pub fn span(&self, track: &str, name: &str, cat: &'static str, start: SimTime, end: SimTime) {
        self.span_args(track, name, cat, start, end, &[]);
    }

    /// Record a closed span with key/value `args` (e.g. the `inv`/`attempt`
    /// pair of a [`TraceCtx`], or a terminal `outcome`).
    pub fn span_args(
        &self,
        track: &str,
        name: &str,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, String)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let kind = ItemKind::Span { cat, start, end };
        self.state.lock().push(track, name, args, kind);
    }

    /// Record an instant event on `track` with key/value `args`.
    pub fn instant(&self, track: &str, name: &str, at: SimTime, args: &[(&'static str, String)]) {
        if !self.is_enabled() {
            return;
        }
        self.state
            .lock()
            .push(track, name, args, ItemKind::Instant { at });
    }

    // ---- programmatic queries (test oracles) --------------------------

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        *self.state.lock().counters.get(name).unwrap_or(&0)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.state
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Timeline of gauge `name` (empty if never touched).
    pub fn gauge(&self, name: &str) -> Vec<(SimTime, i64)> {
        self.state
            .lock()
            .gauges
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Highest value ever recorded on gauge `name` (`None` if never
    /// touched). Convenient oracle for peak pool size / queue depth.
    pub fn gauge_peak(&self, name: &str) -> Option<i64> {
        self.state
            .lock()
            .gauges
            .get(name)
            .and_then(|samples| samples.iter().map(|&(_, v)| v).max())
    }

    /// Lowest value ever recorded on gauge `name` (`None` if never
    /// touched). Counterpart of [`Telemetry::gauge_peak`].
    pub fn gauge_min(&self, name: &str) -> Option<i64> {
        self.state
            .lock()
            .gauges
            .get(name)
            .and_then(|samples| samples.iter().map(|&(_, v)| v).min())
    }

    /// Time-weighted mean of gauge `name` over `[first sample, until)`,
    /// treating the timeline as a step function (each sample holds until
    /// the next one; the last holds until `until`). Integer-only (i128
    /// accumulation, truncating division toward zero). Returns the last
    /// value when the window is empty (`until` at or before the first
    /// sample), `None` when the gauge was never touched.
    pub fn gauge_time_weighted_mean(&self, name: &str, until: SimTime) -> Option<i64> {
        let st = self.state.lock();
        let samples = st.gauges.get(name)?;
        let (&(t0, v0), rest) = samples.split_first()?;
        if until <= t0 {
            return Some(samples.last().map(|&(_, v)| v).unwrap_or(v0));
        }
        let mut weighted: i128 = 0;
        let mut cur_t = t0;
        let mut cur_v = v0;
        for &(t, v) in rest {
            let end = t.min(until);
            if end > cur_t {
                weighted += i128::from(cur_v) * i128::from(end.since(cur_t).as_nanos());
            }
            cur_t = t;
            cur_v = v;
            if cur_t >= until {
                break;
            }
        }
        if until > cur_t {
            weighted += i128::from(cur_v) * i128::from(until.since(cur_t).as_nanos());
        }
        let total = i128::from(until.since(t0).as_nanos());
        Some((weighted / total) as i64)
    }

    /// Snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.state.lock().histograms.get(name).cloned()
    }

    /// All closed spans, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let st = self.state.lock();
        st.items
            .iter()
            .filter_map(|it| match it.kind {
                ItemKind::Span { cat, start, end } => Some(SpanRecord {
                    track: st.tracks.name(it.track).to_string(),
                    name: st.names.name(it.name).to_string(),
                    cat: cat.to_string(),
                    start,
                    end,
                    args: st.owned_args(it),
                }),
                ItemKind::Instant { .. } => None,
            })
            .collect()
    }

    /// All instant events, in recording order.
    pub fn instants(&self) -> Vec<EventRecord> {
        let st = self.state.lock();
        st.items
            .iter()
            .filter_map(|it| match it.kind {
                ItemKind::Instant { at } => Some(EventRecord {
                    track: st.tracks.name(it.track).to_string(),
                    name: st.names.name(it.name).to_string(),
                    at,
                    args: st.owned_args(it),
                }),
                ItemKind::Span { .. } => None,
            })
            .collect()
    }

    // ---- exporters -----------------------------------------------------

    /// Both export artifacts in one call.
    pub fn export(&self) -> TelemetryExport {
        TelemetryExport {
            metrics_json: self.metrics_json(),
            chrome_trace_json: self.chrome_trace_json(),
        }
    }

    /// JSON metrics snapshot: counters, gauge timelines and histogram
    /// summaries, all keys sorted, all values integers. Byte-identical
    /// across same-seed runs.
    pub fn metrics_json(&self) -> String {
        let st = self.state.lock();
        let spans = st
            .items
            .iter()
            .filter(|it| matches!(it.kind, ItemKind::Span { .. }))
            .count() as u64;
        let instants = st.items.len() as u64 - spans;
        let mut j = JsonWriter::new();
        j.object(Lines(2), |j| {
            j.key("counters").object(Lines(4), |j| {
                for (k, &v) in &st.counters {
                    j.key(k).u64(v);
                }
            });
            j.key("gauges").object(Lines(4), |j| {
                for (k, samples) in &st.gauges {
                    let values = samples.iter().map(|&(_, v)| v);
                    j.key(k).object(Inline, |j| {
                        j.key("samples").array(Compact, |j| {
                            for &(at, v) in samples {
                                j.array(Compact, |j| {
                                    j.u64(at.as_nanos()).i64(v);
                                });
                            }
                        });
                        j.key("min").i64(values.clone().min().unwrap_or(0));
                        j.key("peak").i64(values.max().unwrap_or(0));
                        j.key("twa").i64(gauge_twa(samples));
                    });
                }
            });
            j.key("histograms").object(Lines(4), |j| {
                for (k, h) in &st.histograms {
                    j.key(k).object(Inline, |j| {
                        j.key("count").u64(h.count);
                        j.key("sum").u64(h.sum);
                        j.key("min").u64(if h.count == 0 { 0 } else { h.min });
                        j.key("max").u64(h.max);
                        j.key("p50").u64(h.quantile_upper_bound(500));
                        j.key("p95").u64(h.quantile_upper_bound(950));
                        j.key("p99").u64(h.quantile_upper_bound(990));
                    });
                }
            });
            j.key("spans").u64(spans);
            j.key("events").u64(instants);
        });
        j.finish()
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form):
    /// one metadata `thread_name` entry per track, then every span
    /// (`"ph":"X"`) and instant (`"ph":"i"`) in recording order. Timestamps
    /// are virtual microseconds rendered with fixed nanosecond fractions, so
    /// the output is byte-identical across same-seed runs.
    pub fn chrome_trace_json(&self) -> String {
        let st = self.state.lock();
        let args_json = |j: &mut JsonWriter, args: &[(&'static str, String)]| {
            j.key("args").object(Inline, |j| {
                for (k, v) in args {
                    j.key(k).str(v);
                }
            });
        };
        let mut j = JsonWriter::new();
        j.object(Inline, |j| {
            j.key("traceEvents").array(Lines(0), |j| {
                for (tid, name) in st.tracks.names.iter().enumerate() {
                    j.object(Inline, |j| {
                        j.key("name").str("thread_name").key("ph").str("M");
                        j.key("pid").u64(1).key("tid").u64(tid as u64);
                        j.key("args").object(Inline, |j| {
                            j.key("name").str(name);
                        });
                    });
                }
                for it in &st.items {
                    let name = st.names.name(it.name);
                    let args = st.args(it);
                    j.object(Inline, |j| match it.kind {
                        ItemKind::Span { cat, start, end } => {
                            j.key("name").str(name).key("cat").str(cat);
                            j.key("ph").str("X").key("pid").u64(1);
                            j.key("tid").u64(u64::from(it.track));
                            j.key("ts").micros(start.as_nanos());
                            j.key("dur").micros(end.since(start).as_nanos());
                            if !args.is_empty() {
                                args_json(j, args);
                            }
                        }
                        ItemKind::Instant { at } => {
                            j.key("name").str(name);
                            j.key("ph").str("i").key("s").str("t").key("pid").u64(1);
                            j.key("tid").u64(u64::from(it.track));
                            j.key("ts").micros(at.as_nanos());
                            args_json(j, args);
                        }
                    });
                }
            });
        });
        j.finish()
    }
}

/// Time-weighted mean of a gauge timeline over `[first sample, last
/// sample)` — the step-function integral [`Telemetry::gauge_time_weighted_mean`]
/// computes, with `until` fixed at the gauge's own last sample so the
/// export needs no external clock. A single sample (or all samples at one
/// instant) yields the last value; an empty timeline yields 0 (unreachable
/// from the exporter: gauges exist only once touched).
fn gauge_twa(samples: &[(SimTime, i64)]) -> i64 {
    let (Some(&(t0, _)), Some(&(until, last_v))) = (samples.first(), samples.last()) else {
        return 0;
    };
    if until <= t0 {
        return last_v;
    }
    let mut weighted: i128 = 0;
    let mut cur: Option<(SimTime, i64)> = None;
    for &(t, v) in samples {
        if let Some((ct, cv)) = cur {
            weighted += i128::from(cv) * i128::from(t.since(ct).as_nanos());
        }
        cur = Some((t, v));
    }
    (weighted / i128::from(until.since(t0).as_nanos())) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new();
        t.counter_add("c", 3);
        t.gauge_set("g", SimTime(5), 1);
        t.histogram_record("h", 9);
        t.span("trk", "s", "cat", SimTime(0), SimTime(1));
        t.instant("trk", "e", SimTime(2), &[]);
        assert_eq!(t.counter("c"), 0);
        assert!(t.gauge("g").is_empty());
        assert!(t.histogram("h").is_none());
        assert!(t.spans().is_empty());
        assert!(t.instants().is_empty());
    }

    #[test]
    fn enabled_registry_round_trips() {
        let t = Telemetry::new();
        t.enable();
        t.counter_add("rpc.calls", 2);
        t.counter_add("rpc.calls", 1);
        t.gauge_set("q", SimTime(10), 4);
        t.histogram_record("lat", 1000);
        t.histogram_record("lat", 2000);
        t.span("fn-0", "init", "phase", SimTime(0), SimTime(1_000));
        t.instant("monitor", "retry", SimTime(500), &[("attempt", "2".into())]);
        assert_eq!(t.counter("rpc.calls"), 3);
        assert_eq!(t.gauge("q"), vec![(SimTime(10), 4)]);
        t.gauge_set("q", SimTime(20), 9);
        t.gauge_set("q", SimTime(30), 2);
        assert_eq!(t.gauge_peak("q"), Some(9));
        assert_eq!(t.gauge_peak("missing"), None);
        let h = t.histogram("lat").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 1000, 2000));
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur(), Dur(1_000));
        assert_eq!(t.instants()[0].args[0].1, "2");
    }

    #[test]
    fn histogram_quantiles_are_bounded_by_min_max_buckets() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let p50 = h.quantile_upper_bound(500);
        let p99 = h.quantile_upper_bound(990);
        assert!(p50 <= p99);
        assert!(p99 >= h.max / 2, "upper bound covers the top bucket");
        assert_eq!(Histogram::default().quantile_upper_bound(500), 0);
    }

    #[test]
    fn exports_are_valid_shape_and_deterministic() {
        let build = || {
            let t = Telemetry::new();
            t.enable();
            t.counter_add("b", 1);
            t.counter_add("a", 2);
            t.gauge_set("g", SimTime(1_500), -3);
            t.histogram_record("h", 7);
            t.span("trk\"x", "s", "rpc", SimTime(0), SimTime(2_500));
            t.instant("trk\"x", "e", SimTime(2_000), &[("k", "v".into())]);
            t.export()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same recording order must export byte-identically");
        assert!(a.metrics_json.contains("\"a\": 2"));
        assert!(a.metrics_json.contains("[[1500,-3]]"));
        // Single-sample gauge: min = peak = twa = the one value.
        assert!(a
            .metrics_json
            .contains("{\"samples\": [[1500,-3]], \"min\": -3, \"peak\": -3, \"twa\": -3}"));
        assert!(a.chrome_trace_json.contains("\"ts\": 0.000"));
        assert!(a.chrome_trace_json.contains("\"dur\": 2.500"));
        assert!(a.chrome_trace_json.contains("trk\\\"x"));
    }

    #[test]
    fn chrome_trace_escapes_names_cats_and_args() {
        // Regression: span names, categories and argument values with
        // quotes/backslashes/control chars must come out as valid JSON
        // string literals, not raw bytes.
        let t = Telemetry::new();
        t.enable();
        t.span(
            "trk",
            "na\"me\\with\nctrl\u{1}",
            "ca\"t\\x",
            SimTime(0),
            SimTime(10),
        );
        t.span_args(
            "trk",
            "s",
            "request",
            SimTime(0),
            SimTime(5),
            &[("out\"come", "o\\k\n".into())],
        );
        let json = t.chrome_trace_json();
        assert!(json.contains("\"na\\\"me\\\\with\\nctrl\\u0001\""));
        assert!(json.contains("\"cat\": \"ca\\\"t\\\\x\""));
        assert!(json.contains("\"out\\\"come\": \"o\\\\k\\n\""));
        // No raw control characters or unescaped interior quotes survive.
        assert!(json.chars().all(|c| c as u32 >= 0x20 || c == '\n'));
        // A plain-cat span still renders the pinned shape.
        t.span("trk", "p", "phase", SimTime(0), SimTime(1));
        assert!(t.chrome_trace_json().contains("\"cat\": \"phase\""));
    }

    #[test]
    fn span_args_round_trip_and_argless_spans_stay_byte_identical() {
        let t = Telemetry::new();
        t.enable();
        t.span("trk", "plain", "rpc", SimTime(0), SimTime(1_000));
        let before = t.chrome_trace_json();
        assert!(
            before.contains("\"dur\": 1.000}"),
            "arg-less spans must close right after dur — no args object"
        );
        t.span_args(
            "trk",
            "req:spin",
            "request",
            SimTime(0),
            SimTime(2_000),
            &[("inv", "7".into()), ("tenant", "hot".into())],
        );
        let spans = t.spans();
        assert_eq!(spans[0].args, Vec::<(String, String)>::new());
        assert_eq!(
            spans[1].args,
            vec![
                ("inv".to_string(), "7".to_string()),
                ("tenant".to_string(), "hot".to_string())
            ]
        );
        assert!(t
            .chrome_trace_json()
            .contains("\"args\": {\"inv\": \"7\", \"tenant\": \"hot\"}"));
    }

    /// One recording call of the ordering test: track number (`t{n}`,
    /// numbered in first-use order), span or instant, name and args.
    struct Call {
        track: usize,
        span: bool,
        name: String,
        args: Vec<(&'static str, String)>,
    }

    /// 30,000 calls over 20,000 distinct tracks: two calls in three open a
    /// new track, every third reuses a scattered earlier one.
    fn interleaved_calls() -> Vec<Call> {
        let mut tracks = 0;
        (0..30_000usize)
            .map(|k| {
                let track = if k % 3 == 2 {
                    (k * 7919) % tracks
                } else {
                    tracks += 1;
                    tracks - 1
                };
                let args = match k % 5 {
                    0 => vec![],
                    _ => vec![("k", k.to_string()), ("track", track.to_string())],
                };
                Call {
                    track,
                    span: k % 2 == 0,
                    name: format!("n{}", k % 37),
                    args,
                }
            })
            .collect()
    }

    fn feed(calls: &[Call]) -> Telemetry {
        let t = Telemetry::new();
        t.enable();
        for (k, c) in calls.iter().enumerate() {
            let track = format!("t{}", c.track);
            let at = SimTime(k as u64);
            if c.span {
                t.span_args(&track, &c.name, "phase", at, at + Dur(5), &c.args);
            } else {
                t.instant(&track, &c.name, at, &c.args);
            }
        }
        t
    }

    #[test]
    fn interleaved_tracks_keep_first_use_tids_and_round_trip() {
        let calls = interleaved_calls();
        let tracks = calls.iter().map(|c| c.track).max().unwrap() + 1;
        assert!(tracks >= 10_000);
        let t = feed(&calls);

        // Chrome export: one `thread_name` per track in first-use order,
        // then every item on its first-use tid.
        let json = t.chrome_trace_json();
        let lines: Vec<&str> = json.lines().skip(1).collect();
        assert_eq!(lines.len(), tracks + calls.len() + 1);
        for (tid, line) in lines[..tracks].iter().enumerate() {
            assert_eq!(
                line.trim_end_matches(','),
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"name\": \"t{tid}\"}}}}"
                )
            );
        }
        for (c, line) in calls.iter().zip(&lines[tracks..]) {
            assert!(line.contains(&format!("\"tid\": {}, ", c.track)), "{line}");
        }

        // Queries rebuild each record's track, name and args.
        let owned = |c: &Call| -> Vec<(String, String)> {
            c.args
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect()
        };
        let spans = t.spans();
        let want: Vec<&Call> = calls.iter().filter(|c| c.span).collect();
        assert_eq!(spans.len(), want.len());
        for (s, c) in spans.iter().zip(want) {
            assert_eq!(s.track, format!("t{}", c.track));
            assert_eq!((&s.name, s.cat.as_str()), (&c.name, "phase"));
            assert_eq!(s.args, owned(c));
        }
        let instants = t.instants();
        let want: Vec<&Call> = calls.iter().filter(|c| !c.span).collect();
        assert_eq!(instants.len(), want.len());
        for (e, c) in instants.iter().zip(want) {
            assert_eq!(e.track, format!("t{}", c.track));
            assert_eq!(e.name, c.name);
            assert_eq!(e.args, owned(c));
        }

        // Same calls, same order: byte-identical exports.
        assert_eq!(t.export(), feed(&calls).export());
    }

    #[test]
    fn trace_ids_are_unique_and_allocated_even_when_disabled() {
        let t = Telemetry::new();
        assert!(!t.is_enabled());
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        t.enable();
        let c = t.next_trace_id();
        assert_eq!((a, b, c), (1, 2, 3));
        let ctx = TraceCtx::new(b, "tenant-x");
        assert_eq!(ctx.attempt, 0);
        let a2 = ctx.with_attempt(2);
        assert_eq!((a2.id, a2.attempt, &*a2.tenant), (2, 2, "tenant-x"));
        assert_eq!(
            a2.span_args(),
            [("inv", "2".to_string()), ("attempt", "2".to_string())]
        );
    }

    #[test]
    fn gauge_min_mirrors_gauge_peak() {
        let t = Telemetry::new();
        t.enable();
        t.gauge_set("q", SimTime(0), 5);
        t.gauge_set("q", SimTime(10), -2);
        t.gauge_set("q", SimTime(20), 9);
        assert_eq!(t.gauge_min("q"), Some(-2));
        assert_eq!(t.gauge_peak("q"), Some(9));
        assert_eq!(t.gauge_min("missing"), None);
    }

    #[test]
    fn gauge_time_weighted_mean_is_a_step_function_integral() {
        let t = Telemetry::new();
        t.enable();
        // 4 for 10 ns, 8 for 10 ns, 0 for 20 ns → (40 + 80 + 0) / 40 = 3.
        t.gauge_set("q", SimTime(0), 4);
        t.gauge_set("q", SimTime(10), 8);
        t.gauge_set("q", SimTime(20), 0);
        assert_eq!(t.gauge_time_weighted_mean("q", SimTime(40)), Some(3));
        // Window ending mid-timeline ignores later samples: 4 for 10 ns,
        // 8 for 5 ns → 80/15 = 5 (truncating).
        assert_eq!(t.gauge_time_weighted_mean("q", SimTime(15)), Some(5));
        // Degenerate window falls back to the last recorded value.
        assert_eq!(t.gauge_time_weighted_mean("q", SimTime(0)), Some(0));
        // Single sample holds for the whole window.
        t.gauge_set("one", SimTime(5), 7);
        assert_eq!(t.gauge_time_weighted_mean("one", SimTime(105)), Some(7));
        assert_eq!(t.gauge_time_weighted_mean("missing", SimTime(10)), None);
    }

    #[test]
    fn histogram_quantile_bounds_at_q0_and_q1000() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 7, 1000] {
            h.record(v);
        }
        // q=0 clamps to rank 1: the bucket holding the minimum (zero lives
        // in bucket 0, whose upper bound is exactly 0).
        assert_eq!(h.quantile_upper_bound(0), 0);
        // q=1000 is the max's bucket upper bound, and always covers max.
        let p1000 = h.quantile_upper_bound(1000);
        assert!(p1000 >= h.max);
        assert_eq!(p1000, 1023, "1000 has bit length 10 → bound 2^10 - 1");
        // Without a zero sample, q=0 returns the min's bucket bound ≥ min.
        let mut h2 = Histogram::default();
        for v in [5u64, 9, 1000] {
            h2.record(v);
        }
        assert!(h2.quantile_upper_bound(0) >= h2.min);
        // 5 has bit length 3, so rank 1 lands in bucket 3: bound 2^3 - 1.
        assert_eq!(h2.quantile_upper_bound(0), 7);
    }
}
