//! Deterministic sim-time telemetry: spans, counters, gauges, histograms.
//!
//! Every [`Sim`](crate::Sim) owns one [`Telemetry`] registry, disabled by
//! default (recording methods early-return on a single flag read).
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
//! consults wall clocks, never iterates a hash table (every name gets a
//! dense id in first-use order, and exports walk ids: tracks in first-use
//! order, which makes them the Chrome tids, and metrics sorted by name),
//! never draws from any RNG, and exports only integers — no float
//! formatting. The lookup tables hash with fixed keys, and the memo in
//! front of them is keyed by string addresses, but both only find an id;
//! neither decides one. Telemetry being enabled or disabled must not
//! perturb the simulation itself: recording never sleeps, never yields and
//! never touches the sim RNG.
//!
//! # Recording cost
//!
//! A record on a known key makes no allocation of its own (only storage
//! growth allocates: a gauge timeline, a new chunk) and builds no string:
//!
//! * every name (track, span or instant name, category, argument key, text
//!   argument, metric name) is interned per kind: its bytes are appended to
//!   one string, and an open-addressing table of ids, hashed with an
//!   Fx-style hash, finds it again. A memo keyed by the caller's string
//!   address answers repeated lookups from the same literal or process name
//!   without hashing;
//! * counters, gauges and histograms are dense `Vec`s indexed by name id;
//! * a span or instant appends one 32-byte item (track, name and category
//!   ids, an argument range, its times), and each argument one 16-byte
//!   record (a key id and an integer or a text id). Both live in fixed-size
//!   chunks, so growth never moves earlier records.
//!
//! Arguments are typed ([`ArgValue`]): integers are stored as integers and
//! rendered in decimal only by the queries and exporters.
//! [`SpanRecord`]/[`EventRecord`] are rebuilt only when queried.
//!
//! Exports come in two shapes: a JSON metrics snapshot
//! ([`Telemetry::metrics_json`]) and a Chrome trace-event file
//! ([`Telemetry::chrome_trace_json`]) loadable in `chrome://tracing` /
//! Perfetto.

use std::cell::Cell;
use std::sync::Arc;

use crate::cell::{next_sim_id, SimCell};
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

    /// The standard `inv`/`attempt` span argument pair for this context, as
    /// integers: building it allocates nothing.
    pub fn span_args(&self) -> [(&'static str, ArgValue<'static>); 2] {
        [("inv", self.id.into()), ("attempt", self.attempt.into())]
    }
}

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values with bit length `b` (i.e. `2^(b-1) ..= 2^b - 1`).
const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed distribution of `u64` samples: 65 counters of fixed
/// state, O(1) insert, and a certified quantile error bound (see
/// [`quantile_upper_bound`](Self::quantile_upper_bound)). The telemetry
/// registry's histograms and the observability plane's streamed latency
/// percentiles are both this type.
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
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Nearest-rank quantile estimate (`q` in permille) from the buckets:
    /// the upper bound of the bucket containing the q-th sample. For an
    /// exact nearest-rank quantile `x` the estimate `est` satisfies
    /// `x ≤ est ≤ 2x − 1` (with `est = 0` iff `x = 0`); bucket 64 (samples
    /// `≥ 2^63`) reads `u64::MAX`. 0 on an empty histogram. The rank is
    /// taken in u128, so no count overflows it. Integer-only, so
    /// deterministic.
    pub fn quantile_upper_bound(&self, q_permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((u128::from(self.count) * u128::from(q_permille)).div_ceil(1000) as u64)
            .clamp(1, self.count);
        let mut cum = 0u64;
        let Some(b) = self.buckets.iter().position(|&c| {
            cum += c;
            cum >= rank
        }) else {
            return self.max; // buckets hold fewer samples than `count`
        };
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
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

/// One recorded span or instant, 32 bytes. `track`, `name` and `cat` are
/// [`Interner`] ids and `args` indexes [`TelState::args`], so recording on
/// known names allocates nothing.
struct Item {
    /// Span start, or the instant's time.
    start: SimTime,
    /// Span end; equal to `start` for an instant.
    end: SimTime,
    track: u32,
    name: u32,
    /// Index of the first argument.
    args: u32,
    nargs: u16,
    /// Category id, or [`INSTANT`].
    cat: u16,
}

/// The `cat` of an instant: instants have no category.
const INSTANT: u16 = u16::MAX;

impl Item {
    fn is_span(&self) -> bool {
        self.cat != INSTANT
    }
}

/// One stored argument, 16 bytes: a key id and either an integer or a
/// text id.
struct Arg {
    key: u32,
    text: bool,
    value: u64,
}

/// An argument value: integers are stored as integers and rendered in
/// decimal only on export; text is interned like names, so a repeated value
/// costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgValue<'a> {
    /// An id, count, size or other unsigned integer.
    U64(u64),
    /// A text value (tenant, outcome, workload, reason, ...).
    Str(&'a str),
}

impl From<u64> for ArgValue<'_> {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue<'_> {
    fn from(v: u32) -> Self {
        ArgValue::U64(v.into())
    }
}

impl From<usize> for ArgValue<'_> {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl<'a> From<&'a str> for ArgValue<'a> {
    fn from(v: &'a str) -> Self {
        ArgValue::Str(v)
    }
}

impl std::fmt::Display for ArgValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => f.write_str(s),
        }
    }
}

/// Fx-style hash (rotate, xor, multiply per 8-byte word, the last one
/// zero-padded): a few cycles for the short names recorded here, with fixed
/// keys so the table is the same on every run.
fn fx_hash(s: &str) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = s.as_bytes().chunks(8).fold(0u64, |h, w| {
        let mut word = [0; 8];
        word[..w.len()].copy_from_slice(w);
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K)
    });
    // The high half is the well-mixed one.
    (h >> 32) as u32
}

/// A slot of [`Interner`]'s table: a name's hash and its id.
#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const EMPTY: u32 = u32::MAX;

/// Names in first-use order (the id is the index), stored back to back in
/// one string, plus a lookup-only open-addressing table of ids. A new name
/// costs no allocation of its own; a known one costs one [`fx_hash`] and
/// usually one compare. The table is never iterated: ids, and everything
/// exported in id order, follow first use.
#[derive(Default)]
struct Interner {
    bytes: String,
    /// `ends[id]` is where name `id` ends in `bytes`.
    ends: Vec<u32>,
    /// Power-of-two sized, at most half full.
    slots: Vec<Slot>,
    /// Recent lookups: a caller's string address and length, and the id
    /// found for it (see [`Interner::id`]).
    memo: Vec<(usize, u32, u32)>,
}

/// Entries of [`Interner`]'s address memo, a power of two. A busy platform
/// records on the tracks of many live processes at once: on `fleet_surge`,
/// 256 entries made traced runs about 5 % faster than 64 did.
const MEMO: usize = 256;

impl Interner {
    fn len(&self) -> u32 {
        self.ends.len() as u32
    }

    fn name(&self, id: u32) -> &str {
        &self.bytes[self.span(id)]
    }

    fn span(&self, id: u32) -> std::ops::Range<usize> {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        start as usize..self.ends[id] as usize
    }

    /// The slot holding `name`, or the empty slot where it would go.
    fn probe(&self, name: &str, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY
                || (s.hash == hash && &self.bytes.as_bytes()[self.span(s.id)] == name.as_bytes())
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(name, fx_hash(name))].id;
        (id != EMPTY).then_some(id)
    }

    /// `name`'s id, interned on first use.
    ///
    /// Callers mostly pass the same string from the same place: a literal,
    /// or a process's name. So a small memo maps a string's address to the
    /// id last found for it, and a hit costs one compare of the bytes and
    /// no hash. The compare makes a stale entry harmless.
    fn id(&mut self, name: &str) -> u32 {
        match self.memo_hit(name) {
            Some(id) if self.bytes.as_bytes()[self.span(id)] == *name.as_bytes() => id,
            _ => self.intern(name),
        }
    }

    /// [`Interner::id`] for a string that lives as long as the program: the
    /// same address and length hold the same bytes, so a memo hit compares
    /// none.
    fn static_id(&mut self, name: &'static str) -> u32 {
        match self.memo_hit(name) {
            Some(id) => id,
            None => self.intern(name),
        }
    }

    fn memo_slot(name: &str) -> usize {
        let h = (name.as_ptr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - MEMO.trailing_zeros())) as usize
    }

    /// The id the memo holds for `name`'s address and length, if any.
    fn memo_hit(&self, name: &str) -> Option<u32> {
        let &(addr, len, id) = self.memo.get(Self::memo_slot(name))?;
        (addr == name.as_ptr() as usize && len as usize == name.len()).then_some(id)
    }

    fn intern(&mut self, name: &str) -> u32 {
        let id = self.lookup_or_insert(name);
        if self.memo.is_empty() {
            self.memo = vec![(0, 0, 0); MEMO];
        }
        self.memo[Self::memo_slot(name)] = (name.as_ptr() as usize, name.len() as u32, id);
        id
    }

    fn lookup_or_insert(&mut self, name: &str) -> u32 {
        let hash = fx_hash(name);
        if !self.slots.is_empty() {
            let id = self.slots[self.probe(name, hash)].id;
            if id != EMPTY {
                return id;
            }
        }
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.probe(name, hash);
        let id = self.len();
        assert!(id != EMPTY, "fewer than 2^32 - 1 names of one kind");
        self.bytes.push_str(name);
        let end = u32::try_from(self.bytes.len()).expect("names of one kind fit in 4 GiB");
        self.ends.push(end);
        self.slots[i] = Slot { hash, id };
        id
    }

    fn grow(&mut self) {
        let empty = Slot { hash: 0, id: EMPTY };
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![empty; len]);
        let mask = self.slots.len() - 1;
        for s in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = s.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Ids sorted by name: byte order, which is `String`'s order.
    fn sorted(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.len()).collect();
        ids.sort_unstable_by(|&a, &b| self.name(a).cmp(self.name(b)));
        ids
    }
}

/// Named counters, gauges or histograms: interned names over one dense
/// `Vec` of values.
#[derive(Default)]
struct Metrics<T> {
    names: Interner,
    values: Vec<T>,
}

impl<T: Default> Metrics<T> {
    /// `name`'s value, created with `T::default()` on first use.
    fn entry(&mut self, name: &str) -> &mut T {
        let id = self.names.id(name) as usize;
        if id == self.values.len() {
            self.values.push(T::default());
        }
        &mut self.values[id]
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.names.get(name).map(|id| &self.values[id as usize])
    }

    /// Every value with its name, sorted by name.
    fn sorted(&self) -> impl Iterator<Item = (&str, &T)> {
        let ids = self.names.sorted();
        ids.into_iter()
            .map(|id| (self.names.name(id), &self.values[id as usize]))
    }
}

/// An append-only sequence in fixed-size chunks: growth allocates a new
/// chunk and never moves earlier records.
struct Chunks<T, const N: usize> {
    chunks: Vec<Vec<T>>,
}

impl<T, const N: usize> Default for Chunks<T, N> {
    fn default() -> Self {
        Chunks { chunks: Vec::new() }
    }
}

impl<T, const N: usize> Chunks<T, N> {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * N + c.len())
    }

    fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < N => c.push(v),
            _ => {
                let mut c = Vec::with_capacity(N);
                c.push(v);
                self.chunks.push(c);
            }
        }
    }

    fn get(&self, i: usize) -> &T {
        &self.chunks[i / N][i % N]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

/// 64 KiB chunks of items and of arguments.
const ITEM_CHUNK: usize = 2048;
const ARG_CHUNK: usize = 4096;

#[derive(Default)]
struct TelState {
    counters: Metrics<u64>,
    gauges: Metrics<Vec<(SimTime, i64)>>,
    histograms: Metrics<Histogram>,
    items: Chunks<Item, ITEM_CHUNK>,
    /// Arguments of every item, back to back.
    args: Chunks<Arg, ARG_CHUNK>,
    /// Track name → tid, in first-use order (deterministic).
    tracks: Interner,
    /// Span and instant names.
    names: Interner,
    cats: Interner,
    /// Argument keys.
    keys: Interner,
    /// Text argument values.
    texts: Interner,
}

impl TelState {
    fn push(
        &mut self,
        track: &str,
        name: &str,
        cat: u16,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        let first = u32::try_from(self.args.len()).expect("fewer than 2^32 arguments");
        let nargs = u16::try_from(args.len()).expect("at most 65,535 arguments per record");
        for &(key, v) in args {
            let key = self.keys.static_id(key);
            let (text, value) = match v {
                ArgValue::U64(v) => (false, v),
                ArgValue::Str(s) => (true, u64::from(self.texts.id(s))),
            };
            self.args.push(Arg { key, text, value });
        }
        let item = Item {
            start,
            end,
            track: self.tracks.id(track),
            name: self.names.id(name),
            args: first,
            nargs,
            cat,
        };
        self.items.push(item);
    }

    fn cat(&mut self, cat: &'static str) -> u16 {
        let id = self.cats.static_id(cat);
        u16::try_from(id)
            .ok()
            .filter(|&c| c != INSTANT)
            .expect("fewer than 65,535 categories")
    }

    /// `it`'s arguments, keys and values resolved.
    fn args<'s>(&'s self, it: &Item) -> impl Iterator<Item = (&'s str, ArgValue<'s>)> {
        let first = it.args as usize;
        (first..first + usize::from(it.nargs)).map(move |i| {
            let a = self.args.get(i);
            let v = if a.text {
                ArgValue::Str(self.texts.name(a.value as u32))
            } else {
                ArgValue::U64(a.value)
            };
            (self.keys.name(a.key), v)
        })
    }

    fn owned_args(&self, it: &Item) -> Vec<(String, String)> {
        self.args(it)
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

/// The per-simulation telemetry registry. See the [module docs](self) for
/// the recording model and determinism contract.
pub struct Telemetry {
    enabled: Cell<bool>,
    /// A cell of the simulation when [`Sim::new`](crate::Sim::new) builds
    /// the registry; of a simulation id of its own otherwise.
    state: SimCell<TelState>,
    next_trace: Cell<u64>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A disabled registry (the state every [`Sim`](crate::Sim) starts in),
    /// with a simulation id of its own.
    pub fn new() -> Telemetry {
        Telemetry::with_sim(next_sim_id())
    }

    /// A disabled registry of the simulation `sim`.
    pub(crate) fn with_sim(sim: u64) -> Telemetry {
        Telemetry {
            enabled: Cell::new(false),
            state: SimCell::with_id(sim, TelState::default()),
            next_trace: Cell::new(1),
        }
    }

    /// Allocate the next platform-unique trace id. Unlike recording, this
    /// is *not* gated on [`Telemetry::is_enabled`]: the id sequence must be
    /// identical between traced and untraced runs of the same seed, and a
    /// counter cannot perturb the simulation (exactly one process runs at a
    /// time, so allocation order is the kernel's schedule).
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.replace(self.next_trace.get() + 1)
    }

    /// Turn recording on. Everything recorded before this call was dropped.
    pub fn enable(&self) {
        self.enabled.set(true);
    }

    /// Whether recording is on. Call sites that build a name with `format!`
    /// should guard on this to keep the disabled path free.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    // ---- recording ----------------------------------------------------

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() || delta == 0 {
            return;
        }
        *self.state.lock().counters.entry(name) += delta;
    }

    /// Append a `(at, value)` sample to gauge `name`'s timeline.
    pub fn gauge_set(&self, name: &str, at: SimTime, value: i64) {
        if !self.is_enabled() {
            return;
        }
        self.state.lock().gauges.entry(name).push((at, value));
    }

    /// Record `value` into histogram `name`.
    pub fn histogram_record(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.state.lock().histograms.entry(name).record(value);
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
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state.lock();
        let cat = st.cat(cat);
        st.push(track, name, cat, start, end, args);
    }

    /// Record an instant event on `track` with key/value `args`.
    pub fn instant(
        &self,
        track: &str,
        name: &str,
        at: SimTime,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.state.lock().push(track, name, INSTANT, at, at, args);
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
            .sorted()
            .map(|(k, &v)| (k.to_string(), v))
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
            .filter(|it| it.is_span())
            .map(|it| SpanRecord {
                track: st.tracks.name(it.track).to_string(),
                name: st.names.name(it.name).to_string(),
                cat: st.cats.name(u32::from(it.cat)).to_string(),
                start: it.start,
                end: it.end,
                args: st.owned_args(it),
            })
            .collect()
    }

    /// All instant events, in recording order.
    pub fn instants(&self) -> Vec<EventRecord> {
        let st = self.state.lock();
        st.items
            .iter()
            .filter(|it| !it.is_span())
            .map(|it| EventRecord {
                track: st.tracks.name(it.track).to_string(),
                name: st.names.name(it.name).to_string(),
                at: it.start,
                args: st.owned_args(it),
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
        let spans = st.items.iter().filter(|it| it.is_span()).count() as u64;
        let instants = st.items.len() as u64 - spans;
        let mut j = JsonWriter::new();
        j.object(Lines(2), |j| {
            j.key("counters").object(Lines(4), |j| {
                for (k, &v) in st.counters.sorted() {
                    j.key(k).u64(v);
                }
            });
            j.key("gauges").object(Lines(4), |j| {
                for (k, samples) in st.gauges.sorted() {
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
                for (k, h) in st.histograms.sorted() {
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
        let args_json = |j: &mut JsonWriter, it: &Item| {
            j.key("args").object(Inline, |j| {
                for (k, v) in st.args(it) {
                    match v {
                        ArgValue::U64(_) => j.key(k).str(&v.to_string()),
                        ArgValue::Str(s) => j.key(k).str(s),
                    };
                }
            });
        };
        let mut j = JsonWriter::new();
        j.object(Inline, |j| {
            j.key("traceEvents").array(Lines(0), |j| {
                for tid in 0..st.tracks.len() {
                    let name = st.tracks.name(tid);
                    j.object(Inline, |j| {
                        j.key("name").str("thread_name").key("ph").str("M");
                        j.key("pid").u64(1).key("tid").u64(u64::from(tid));
                        j.key("args").object(Inline, |j| {
                            j.key("name").str(name);
                        });
                    });
                }
                for it in st.items.iter() {
                    let name = st.names.name(it.name);
                    j.object(Inline, |j| {
                        if it.is_span() {
                            let cat = st.cats.name(u32::from(it.cat));
                            j.key("name").str(name).key("cat").str(cat);
                            j.key("ph").str("X").key("pid").u64(1);
                            j.key("tid").u64(u64::from(it.track));
                            j.key("ts").micros(it.start.as_nanos());
                            j.key("dur").micros(it.end.since(it.start).as_nanos());
                            if it.nargs > 0 {
                                args_json(j, it);
                            }
                        } else {
                            j.key("name").str(name);
                            j.key("ph").str("i").key("s").str("t").key("pid").u64(1);
                            j.key("tid").u64(u64::from(it.track));
                            j.key("ts").micros(it.start.as_nanos());
                            args_json(j, it);
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
    use crate::stats::percentile_permille;

    fn assert_bound(xs: &[u64], q: u64) {
        let mut h = Histogram::default();
        for &x in xs {
            h.record(x);
        }
        let mut sorted = xs.to_vec();
        sorted.sort_unstable();
        let exact = percentile_permille(&sorted, q);
        let est = h.quantile_upper_bound(q);
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
    fn histogram_is_exact_on_powers_of_two_minus_one() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(1000), 15);
        assert_eq!(h.quantile_upper_bound(1), 0);
        assert_eq!(h.quantile_upper_bound(500), 3);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_upper_bound(500), 0, "empty histogram");
        h.record(u64::MAX);
        assert_eq!(
            h.quantile_upper_bound(500),
            u64::MAX,
            "top bucket saturates"
        );
    }

    #[test]
    fn histogram_bound_on_adversarial_distributions() {
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

    #[test]
    fn exports_sort_metric_keys_by_bytes_and_render_trace_args_in_decimal() {
        let t = Telemetry::new();
        t.enable();
        for (i, k) in ["b", "a_b", "a.b", "A", "a"].into_iter().enumerate() {
            let i = i as u64 + 1;
            t.counter_add(k, i);
            t.gauge_set(k, SimTime(i), i as i64);
            t.histogram_record(k, i);
        }
        let sorted = ["A", "a", "a.b", "a_b", "b"];
        let names: Vec<String> = t.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, sorted);
        let counters = sorted.map(|k| t.counter(k));
        assert_eq!(counters, [4, 5, 3, 2, 1]);
        assert_eq!(
            t.metrics_json(),
            "{\n  \"counters\": {\n    \"A\": 4,\n    \"a\": 5,\n    \"a.b\": 3,\n    \
             \"a_b\": 2,\n    \"b\": 1\n  },\n  \"gauges\": {\n    \
             \"A\": {\"samples\": [[4,4]], \"min\": 4, \"peak\": 4, \"twa\": 4},\n    \
             \"a\": {\"samples\": [[5,5]], \"min\": 5, \"peak\": 5, \"twa\": 5},\n    \
             \"a.b\": {\"samples\": [[3,3]], \"min\": 3, \"peak\": 3, \"twa\": 3},\n    \
             \"a_b\": {\"samples\": [[2,2]], \"min\": 2, \"peak\": 2, \"twa\": 2},\n    \
             \"b\": {\"samples\": [[1,1]], \"min\": 1, \"peak\": 1, \"twa\": 1}\n  },\n  \
             \"histograms\": {\n    \
             \"A\": {\"count\": 1, \"sum\": 4, \"min\": 4, \"max\": 4, \"p50\": 7, \"p95\": 7, \"p99\": 7},\n    \
             \"a\": {\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \"p50\": 7, \"p95\": 7, \"p99\": 7},\n    \
             \"a.b\": {\"count\": 1, \"sum\": 3, \"min\": 3, \"max\": 3, \"p50\": 3, \"p95\": 3, \"p99\": 3},\n    \
             \"a_b\": {\"count\": 1, \"sum\": 2, \"min\": 2, \"max\": 2, \"p50\": 3, \"p95\": 3, \"p99\": 3},\n    \
             \"b\": {\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, \"p50\": 1, \"p95\": 1, \"p99\": 1}\n  },\n  \
             \"spans\": 0,\n  \"events\": 0\n}\n"
        );

        let ctx = TraceCtx::new(7, "hot").with_attempt(1);
        t.span_args(
            "fn-0-0",
            "execute",
            "phase",
            SimTime(1_000),
            SimTime(3_500),
            &ctx.span_args(),
        );
        t.instant("fn-0-0", "retry", SimTime(2_000), &ctx.span_args());
        let json = t.chrome_trace_json();
        let lines: Vec<&str> = json.lines().map(|l| l.trim_end_matches(',')).collect();
        assert_eq!(
            lines[2],
            "{\"name\": \"execute\", \"cat\": \"phase\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \
             \"ts\": 1.000, \"dur\": 2.500, \"args\": {\"inv\": \"7\", \"attempt\": \"1\"}}"
        );
        assert_eq!(
            lines[3],
            "{\"name\": \"retry\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": 0, \
             \"ts\": 2.000, \"args\": {\"inv\": \"7\", \"attempt\": \"1\"}}"
        );
        let want = vec![
            ("inv".to_string(), "7".to_string()),
            ("attempt".to_string(), "1".to_string()),
        ];
        assert_eq!(t.spans()[0].args, want);
        assert_eq!(t.instants()[0].args, want);
    }

    /// One recording call of the ordering test: track number (`t{n}`,
    /// numbered in first-use order), span or instant, name and args.
    struct Call {
        track: usize,
        span: bool,
        name: String,
        args: Vec<(&'static str, ArgValue<'static>)>,
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
                    _ => vec![("k", k.into()), ("track", track.into())],
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
                .map(|(k, v)| ((*k).to_string(), v.to_string()))
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
            [("inv", ArgValue::U64(2)), ("attempt", ArgValue::U64(2))]
        );
    }

    #[test]
    fn records_are_compact() {
        assert!(std::mem::size_of::<Item>() <= 32);
        assert!(std::mem::size_of::<Arg>() <= 16);
    }

    #[test]
    fn interner_ids_follow_first_use_across_table_growth() {
        let mut names = Interner::default();
        let keys: Vec<String> = (0..1_000).map(|i| format!("k{}", i * 7 % 1_000)).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(names.id(k), i as u32);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!((names.id(k), names.get(k)), (i as u32, Some(i as u32)));
            assert_eq!(names.name(i as u32), k);
        }
        assert_eq!(names.get("missing"), None);
        assert_eq!(names.id(""), 1_000);
        assert_eq!(names.name(1_000), "");
    }

    #[test]
    fn interner_memo_never_trusts_a_reused_address() {
        let mut names = Interner::default();
        let mut s = String::from("serve:inv1");
        let first = names.id(&s);
        // Same buffer, same length, new bytes: the memo entry is stale.
        s.replace_range(.., "serve:inv2");
        let second = names.id(&s);
        assert_ne!(first, second);
        assert_eq!(
            (names.name(first), names.name(second)),
            ("serve:inv1", "serve:inv2")
        );
        assert_eq!(names.id("serve:inv1"), first);
        assert_eq!(names.static_id("serve:inv2"), second);
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

    #[test]
    fn histogram_quantile_covers_samples_of_2_pow_63_and_up() {
        // Bit length 64 is the top bucket, bounded by u64::MAX: there is no
        // 2^64 to subtract one from.
        let t = Telemetry::new();
        t.enable();
        t.histogram_record("x", u64::MAX);
        t.histogram_record("x", 1 << 63);
        let h = t.histogram("x").unwrap();
        for q in [0, 500, 1000] {
            assert_eq!(h.quantile_upper_bound(q), u64::MAX);
        }
        // The rank is taken in u128: a count whose product with q
        // overflows u64 still finds the right bucket.
        let count = u64::MAX / 100;
        let mut huge = Histogram {
            count,
            ..Histogram::default()
        };
        huge.buckets[3] = count;
        assert_eq!(huge.quantile_upper_bound(990), 7);
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
        fn histogram_bound_holds_for_arbitrary_streams(
            xs in proptest::collection::vec(0u64..u64::MAX, 1..512),
            q in 1u64..1001,
        ) {
            let mut h = Histogram::default();
            for &x in &xs {
                h.record(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let exact = percentile_permille(&sorted, q);
            let est = h.quantile_upper_bound(q);
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

        /// Insert order never matters (the histogram is a pure multiset).
        #[test]
        fn histogram_is_order_insensitive(
            xs in proptest::collection::vec(0u64..1_000_000, 2..128),
        ) {
            let mut a = Histogram::default();
            for &x in &xs {
                a.record(x);
            }
            let mut xs = xs;
            xs.reverse();
            let mut b = Histogram::default();
            for &x in &xs {
                b.record(x);
            }
            prop_assert_eq!(a, b);
        }
    }
}
