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
//! consults wall clocks, never iterates a hash table, never draws from any
//! RNG, and exports only integers — no float formatting. Exports never
//! depend on ids: metrics are sorted by name, and Chrome tids number track
//! names in the order of their first record. A name that was resolved and
//! never recorded appears in no export. The lookup tables hash with fixed
//! keys, and a [`Lit`]'s slot and remembered id are process-wide, but all
//! of them only find an id; none decides one. Telemetry being enabled or
//! disabled must not perturb the simulation itself: recording never
//! sleeps, never yields and never touches the sim RNG.
//!
//! # Recording cost
//!
//! A record is an index plus an append. Every name a record takes (track,
//! span or instant name, category, argument key, metric name) is resolved
//! to its id once, lazily, where the name is made, and later records go
//! through that id with no hash, no memo probe and no byte compare:
//!
//! * a literal is a [`Lit`] ([`lit!`](crate::lit)) at its call site: its
//!   id is read from the literal itself, or from a per-registry table by
//!   the literal's slot;
//! * a name built at run time is resolved once with [`Telemetry::id`] and
//!   kept as an [`Id`] by its owner (the monitor's per-GPU and per-tenant
//!   keys, the backend's per-function span names);
//! * a process's track is given an id of its own the first time it records
//!   ([`ProcCtx::track`](crate::ProcCtx::track)), with no lookup;
//! * a [`TraceCtx`]'s `inv`/`attempt` pair ([`Args::Trace`]) is stored once
//!   per attempt, and every span of the attempt points at it.
//!
//! Storage: counters and histograms are dense `Vec`s indexed by name id; a
//! gauge timeline grows by segments that are never copied; a span or
//! instant appends one 32-byte item (track, name and category ids, an
//! argument range, its times), and each stored argument one 16-byte record
//! (a key id and an integer or a text id), both in fixed-size chunks. What
//! still allocates: storage growth (a new chunk or segment), a name's first
//! resolution, and the names made per invocation, each looked up once by
//! its bytes (an interned table of ids hashed with an Fx-style hash): a
//! span name holding an invocation id and a text argument such as a
//! tenant. `&str` names go through the same lookup on every record; tests
//! and cold paths use them.
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
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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
    /// A whole-request context (attempt 0) for trace `id` owned by
    /// `tenant`. Pass an `Arc<str>` the caller keeps to share it instead of
    /// copying the text.
    pub fn new(id: u64, tenant: impl Into<Arc<str>>) -> TraceCtx {
        TraceCtx {
            id,
            attempt: 0,
            tenant: tenant.into(),
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
    pub fn span_args(&self) -> [(&'static Lit, ArgValue<'static>); 2] {
        [
            (crate::lit!("inv"), self.id.into()),
            (crate::lit!("attempt"), self.attempt.into()),
        ]
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
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
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
/// interned ids and `args` indexes [`TelState::args`], so recording on
/// resolved names allocates nothing. `track` is the track's id, not its
/// Chrome `tid`: exports number tracks in first-record order.
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
    /// A text value (tenant, workload, reason, ...), looked up by its bytes.
    Str(&'a str),
    /// A text literal (an outcome), resolved once per registry.
    Lit(&'static Lit),
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

/// The arguments of a span or instant: a list, or a trace context's
/// `inv`/`attempt` pair. A list converts from a slice, an array or a `Vec`
/// of `(key, value)` pairs; the pair from a `&TraceCtx`.
pub enum Args<'a, A> {
    /// Key/value pairs, in recording order.
    List(&'a [(A, ArgValue<'a>)]),
    /// [`TraceCtx::span_args`]: the registry stores each context's pair
    /// once, and the records of the context and its clones share it.
    Trace(&'a TraceCtx),
}

impl<'a, A> From<&'a [(A, ArgValue<'a>)]> for Args<'a, A> {
    fn from(list: &'a [(A, ArgValue<'a>)]) -> Self {
        Args::List(list)
    }
}

impl<'a, A, const N: usize> From<&'a [(A, ArgValue<'a>); N]> for Args<'a, A> {
    fn from(list: &'a [(A, ArgValue<'a>); N]) -> Self {
        Args::List(list)
    }
}

impl<'a, A> From<&'a Vec<(A, ArgValue<'a>)>> for Args<'a, A> {
    fn from(list: &'a Vec<(A, ArgValue<'a>)>) -> Self {
        Args::List(list)
    }
}

impl<'a> From<&'a TraceCtx> for Args<'a, &'static Lit> {
    fn from(trace: &'a TraceCtx) -> Self {
        Args::Trace(trace)
    }
}

impl std::fmt::Display for ArgValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => f.write_str(s),
            ArgValue::Lit(l) => f.write_str(l.name),
        }
    }
}

/// A name written in the program: a counter, span name, category, argument
/// key or text that every registry resolves once, at its first record.
/// Make one per call site with [`lit!`](crate::lit):
/// `tel.counter_add(lit!("net.messages"), 1)`.
///
/// A literal takes a process-wide slot number on first use; each registry
/// keeps, per kind of name, a table from slot to its own id. A record reads
/// the slot and indexes the table: no hash, no compare. The literal also
/// remembers the last id it resolved to, with the registry and kind, so a
/// process running one simulation at a time reads the id from the literal
/// itself. The slot and the remembered id only find an id, so ids still
/// follow each registry's first use.
pub struct Lit {
    name: &'static str,
    /// Slot number plus one; 0 until first used.
    slot: AtomicU32,
    /// The last resolution, packed by [`Lit::tag`] with the id in the low
    /// half; 0 for none.
    last: AtomicU64,
}

impl Lit {
    /// A literal named `name`. Use it from a `static` (see
    /// [`lit!`](crate::lit)): the slot lives in the value.
    pub const fn new(name: &'static str) -> Lit {
        Lit {
            name,
            slot: AtomicU32::new(0),
            last: AtomicU64::new(0),
        }
    }

    /// The high half of [`Lit::last`] for kind `kind` in the registry of
    /// simulation `reg`: a set top bit, the registry's id and the kind.
    /// `None` for a registry id too large to pack whole.
    fn tag(reg: u64, kind: usize) -> Option<u64> {
        (reg < 1 << 28).then_some((1 << 31 | reg << 3 | kind as u64) << 32)
    }

    /// The id this literal last resolved to, if that was kind `kind` in
    /// the registry of simulation `reg`.
    #[inline]
    fn last(&self, reg: u64, kind: usize) -> Option<u32> {
        let last = self.last.load(Ordering::Relaxed);
        let tag = Lit::tag(reg, kind)?;
        (last & !u64::from(u32::MAX) == tag).then_some(last as u32)
    }

    fn remember(&self, reg: u64, kind: usize, id: u32) {
        if let Some(tag) = Lit::tag(reg, kind) {
            self.last.store(tag | u64::from(id), Ordering::Relaxed);
        }
    }

    /// The literal's text.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn slot(&self) -> usize {
        match self.slot.load(Ordering::Relaxed) {
            0 => self.take_slot(),
            s => s as usize - 1,
        }
    }

    #[cold]
    fn take_slot(&self) -> usize {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        let mine = NEXT.fetch_add(1, Ordering::Relaxed);
        // A thread that loses the race keeps the winner's slot; the lost
        // number is never used.
        let s = match self
            .slot
            .compare_exchange(0, mine, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => mine,
            Err(theirs) => theirs,
        };
        s as usize - 1
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lit!({:?})", self.name)
    }
}

/// Two literals are equal when their texts are.
impl PartialEq for Lit {
    fn eq(&self, other: &Lit) -> bool {
        self.name == other.name
    }
}

impl Eq for Lit {}

/// A [`Lit`] of its own for this call site, as a `&'static Lit`.
#[macro_export]
macro_rules! lit {
    ($name:expr) => {{
        static LIT: $crate::telemetry::Lit = $crate::telemetry::Lit::new($name);
        &LIT
    }};
}

/// The kinds of names: each has an id space of its own per registry, and
/// [`Id`] and [`Name`] carry their kind so an id of one cannot name another.
pub mod kind {
    mod sealed {
        pub trait Sealed {}
    }

    /// A kind of name. Implemented only by this module's types.
    pub trait Kind: sealed::Sealed + Copy {
        /// Index of the kind's id space.
        #[doc(hidden)]
        const INDEX: usize;
    }

    macro_rules! kinds {
        ($($(#[$doc:meta])* $kind:ident = $index:expr;)*) => {
            $(
                $(#[$doc])*
                #[derive(Debug, Clone, Copy)]
                pub enum $kind {}
                impl sealed::Sealed for $kind {}
                impl Kind for $kind {
                    const INDEX: usize = $index;
                }
            )*
        };
    }

    kinds! {
        /// Counter names.
        Counter = 0;
        /// Gauge names.
        Gauge = 1;
        /// Histogram names.
        Hist = 2;
        /// Tracks: the lanes spans and instants sit on (process names).
        Track = 3;
        /// Span and instant names.
        Label = 4;
        /// Span categories.
        Cat = 5;
        /// Argument keys.
        Key = 6;
    }

    /// Text argument values (only through [`ArgValue`](super::ArgValue)).
    pub(super) const TEXT: usize = 7;
    /// Number of id spaces.
    pub(super) const KINDS: usize = 8;
}

use kind::{Cat, Counter, Gauge, Hist, Key, Kind, Label, Track};

/// A name resolved in one registry ([`Telemetry::id`]): recording through
/// it is an index, with no lookup. Only the registry that resolved it takes
/// it; another one panics.
#[derive(Debug, Clone, Copy)]
pub struct Id<K> {
    id: u32,
    /// The resolving registry's simulation id.
    reg: u64,
    kind: PhantomData<K>,
}

/// A name as a record takes it: looked up by its bytes, a [`Lit`] resolved
/// once per registry, or an [`Id`] resolved earlier. Every recording method
/// takes `impl Into<Name>`, so `&str`, `&String`, `&'static Lit` and `Id`
/// all work.
#[derive(Clone, Copy)]
pub enum Name<'a, K> {
    /// Looked up by its bytes at every record: tests and cold paths.
    Str(&'a str),
    /// Resolved once per registry.
    Lit(&'static Lit),
    /// Resolved already.
    Id(Id<K>),
}

impl<'a, K> From<&'a str> for Name<'a, K> {
    fn from(s: &'a str) -> Self {
        Name::Str(s)
    }
}

impl<'a, K> From<&'a String> for Name<'a, K> {
    fn from(s: &'a String) -> Self {
        Name::Str(s)
    }
}

impl<K> From<&'static Lit> for Name<'_, K> {
    fn from(l: &'static Lit) -> Self {
        Name::Lit(l)
    }
}

impl<K> From<Id<K>> for Name<'_, K> {
    fn from(id: Id<K>) -> Self {
        Name::Id(id)
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
/// one string, plus a lookup-only open-addressing table of ids and the ids
/// of the [`Lit`]s resolved so far. A new name costs no allocation of its
/// own; a known one costs one [`fx_hash`] and usually one compare. The
/// table is never iterated, and no export depends on ids.
#[derive(Default)]
struct Interner {
    bytes: String,
    /// `ends[id]` is where name `id` ends in `bytes`.
    ends: Vec<u32>,
    /// Power-of-two sized, at most half full.
    slots: Vec<Slot>,
    /// Names in `slots`: all but the appended ones ([`Interner::append`]).
    hashed: usize,
    /// `lits[slot]`: the id of the [`Lit`] with that slot, or [`EMPTY`].
    lits: Vec<u32>,
}

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
    fn id(&mut self, name: &str) -> u32 {
        let hash = fx_hash(name);
        if !self.slots.is_empty() {
            let id = self.slots[self.probe(name, hash)].id;
            if id != EMPTY {
                return id;
            }
        }
        if 2 * (self.hashed + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.probe(name, hash);
        let id = self.append(name);
        self.hashed += 1;
        self.slots[i] = Slot { hash, id };
        id
    }

    /// A new id for `name`, without looking it up or making it findable:
    /// for a name that is its own owner's (a process's track). Two ids may
    /// then name the same bytes; exports go by the bytes.
    fn append(&mut self, name: &str) -> u32 {
        let id = self.len();
        assert!(id != EMPTY, "fewer than 2^32 - 1 names of one kind");
        self.bytes.push_str(name);
        let end = u32::try_from(self.bytes.len()).expect("names of one kind fit in 4 GiB");
        self.ends.push(end);
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

/// An append-only sequence in fixed-size chunks: growth allocates a new
/// chunk and never moves earlier records. The chunk being filled sits
/// inline, so an append reaches it without an indirection.
struct Chunks<T, const N: usize> {
    full: Vec<Vec<T>>,
    tail: Vec<T>,
}

impl<T, const N: usize> Default for Chunks<T, N> {
    fn default() -> Self {
        Chunks {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T, const N: usize> Chunks<T, N> {
    fn len(&self) -> usize {
        self.full.len() * N + self.tail.len()
    }

    fn push(&mut self, v: T) {
        if self.tail.len() == self.tail.capacity().min(N) {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(N));
            if !full.is_empty() {
                self.full.push(full);
            }
        }
        self.tail.push(v);
    }

    fn get(&self, i: usize) -> &T {
        &self.full.get(i / N).unwrap_or(&self.tail)[i % N]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.full.iter().flatten().chain(&self.tail)
    }
}

/// A gauge's timeline in segments whose capacity doubles up to
/// [`SEGMENT`] samples: growth allocates a segment and never copies
/// earlier samples. The segment being filled sits inline.
#[derive(Default)]
struct Samples {
    full: Vec<Vec<(SimTime, i64)>>,
    tail: Vec<(SimTime, i64)>,
}

/// Largest segment of a gauge timeline: 64 KiB.
const SEGMENT: usize = 4096;

impl Samples {
    fn push(&mut self, sample: (SimTime, i64)) {
        if self.tail.len() == self.tail.capacity() {
            let cap = (2 * self.tail.capacity()).clamp(4, SEGMENT);
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(cap));
            if !full.is_empty() {
                self.full.push(full);
            }
        }
        self.tail.push(sample);
    }

    fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    fn to_vec(&self) -> Vec<(SimTime, i64)> {
        let mut all = self.full.concat();
        all.extend_from_slice(&self.tail);
        all
    }
}

/// 64 KiB chunks of items and of arguments.
const ITEM_CHUNK: usize = 2048;
const ARG_CHUNK: usize = 4096;

/// Entries of [`TelState::traces`], a power of two: room for the attempts
/// in flight on a busy platform.
const TRACES: usize = 256;

/// A registry's records. A resolved name has an id and, for a metric, a
/// value slot; it is exported only once recorded: a counter once nonzero
/// (adding zero records nothing), a gauge once sampled, a histogram once
/// it holds a sample, a track once an item sits on it. The fields every
/// record reaches come first, in declaration order, so they share a few
/// cache lines; the name tables, which records reach only on a first
/// resolution, come last.
#[derive(Default)]
#[repr(C)]
struct TelState {
    /// Indexed by counter id.
    counters: Vec<u64>,
    /// Indexed by histogram id.
    histograms: Vec<Histogram>,
    /// Indexed by gauge id.
    gauges: Vec<Samples>,
    /// Recently stored trace contexts' pairs, `(inv, attempt, first)`, by
    /// a hash of the pair: the spans of one invocation attempt all carry
    /// it, and store it once.
    traces: Vec<(u64, u32, u32)>,
    items: Chunks<Item, ITEM_CHUNK>,
    /// Argument lists of the items, back to back; the spans of one trace
    /// context share its stored pair.
    args: Chunks<Arg, ARG_CHUNK>,
    /// One id space per [`kind`], indexed by [`Kind::INDEX`].
    names: [Interner; kind::KINDS],
}

impl TelState {
    /// `name`'s id in kind `kind`, interned (with its metric value) on
    /// first use.
    fn intern(&mut self, kind: usize, name: &str) -> u32 {
        let id = self.names[kind].id(name);
        // Metric ids are dense: a new one is the next index.
        let new = id as usize;
        match kind {
            Counter::INDEX if self.counters.len() == new => self.counters.push(0),
            Gauge::INDEX if self.gauges.len() == new => self.gauges.push(Samples::default()),
            Hist::INDEX if self.histograms.len() == new => {
                self.histograms.push(Histogram::default())
            }
            _ => {}
        }
        id
    }

    /// `lit`'s id in kind `kind` of this registry (of simulation `reg`):
    /// the literal's remembered id, or one table read once resolved.
    #[inline]
    fn lit(&mut self, kind: usize, lit: &'static Lit, reg: u64) -> u32 {
        if let Some(id) = lit.last(reg, kind) {
            return id;
        }
        let slot = lit.slot();
        let id = match self.names[kind].lits.get(slot) {
            Some(&id) if id != EMPTY => id,
            _ => self.resolve_lit(kind, slot, lit.name),
        };
        lit.remember(reg, kind, id);
        id
    }

    #[cold]
    fn resolve_lit(&mut self, kind: usize, slot: usize, name: &str) -> u32 {
        let id = self.intern(kind, name);
        let lits = &mut self.names[kind].lits;
        if lits.len() <= slot {
            lits.resize(slot + 1, EMPTY);
        }
        lits[slot] = id;
        id
    }

    #[inline]
    fn resolve<K: Kind>(&mut self, name: Name<'_, K>, reg: u64) -> u32 {
        match name {
            Name::Id(id) => {
                assert!(
                    id.reg == reg,
                    "an Id recorded into a registry that did not resolve it"
                );
                id.id
            }
            Name::Lit(l) => self.lit(K::INDEX, l, reg),
            Name::Str(s) => self.intern(K::INDEX, s),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push<'a, A: Into<Name<'a, Key>> + Copy>(
        &mut self,
        reg: u64,
        track: Name<'_, Track>,
        name: Name<'_, Label>,
        cat: u16,
        start: SimTime,
        end: SimTime,
        args: Args<'_, A>,
    ) {
        let (first, nargs) = match args {
            Args::List(list) => (self.store(list, reg), list.len()),
            Args::Trace(trace) => (self.trace_pair(trace, reg), 2),
        };
        let nargs = u16::try_from(nargs).expect("at most 65,535 arguments per record");
        let item = Item {
            start,
            end,
            track: self.resolve(track, reg),
            name: self.resolve(name, reg),
            args: first,
            nargs,
            cat,
        };
        self.items.push(item);
    }

    /// The first argument index of `trace`'s stored `inv`/`attempt` pair,
    /// stored now unless a recent record stored it.
    fn trace_pair(&mut self, trace: &TraceCtx, reg: u64) -> u32 {
        // Trace ids are sequential, so the attempts in flight sit in
        // neighbouring slots.
        let slot = (trace.id.wrapping_mul(4) + u64::from(trace.attempt)) as usize % TRACES;
        if self.traces.is_empty() {
            self.traces = vec![(0, 0, EMPTY); TRACES];
        }
        match self.traces[slot] {
            (id, attempt, first)
                if first != EMPTY && (id, attempt) == (trace.id, trace.attempt) =>
            {
                first
            }
            _ => {
                let first = self.store(&trace.span_args(), reg);
                self.traces[slot] = (trace.id, trace.attempt, first);
                first
            }
        }
    }

    /// Store `list` and return the index of its first argument.
    fn store<'a, A: Into<Name<'a, Key>> + Copy>(
        &mut self,
        list: &[(A, ArgValue<'_>)],
        reg: u64,
    ) -> u32 {
        let first = u32::try_from(self.args.len()).expect("fewer than 2^32 arguments");
        for &(key, v) in list {
            let a = self.arg(key.into(), v, reg);
            self.args.push(a);
        }
        first
    }

    fn arg(&mut self, key: Name<'_, Key>, v: ArgValue<'_>, reg: u64) -> Arg {
        let key = self.resolve(key, reg);
        let (text, value) = match v {
            ArgValue::U64(v) => (false, v),
            ArgValue::Str(s) => (true, u64::from(self.intern(kind::TEXT, s))),
            ArgValue::Lit(l) => (true, u64::from(self.lit(kind::TEXT, l, reg))),
        };
        Arg { key, text, value }
    }

    fn cat(&mut self, cat: Name<'_, Cat>, reg: u64) -> u16 {
        let id = self.resolve(cat, reg);
        u16::try_from(id)
            .ok()
            .filter(|&c| c != INSTANT)
            .expect("fewer than 65,535 categories")
    }

    fn name(&self, kind: usize, id: u32) -> &str {
        self.names[kind].name(id)
    }

    /// `kind`'s metric values that were recorded, with their names, sorted
    /// by name.
    fn recorded<'s, T>(
        &'s self,
        kind: usize,
        values: &'s [T],
        recorded: impl Fn(&T) -> bool + 's,
    ) -> impl Iterator<Item = (&'s str, &'s T)> + 's {
        let names = &self.names[kind];
        names
            .sorted()
            .into_iter()
            .map(move |id| (names.name(id), &values[id as usize]))
            .filter(move |(_, v)| recorded(v))
    }

    fn counters(&self) -> impl Iterator<Item = (&str, &u64)> {
        self.recorded(Counter::INDEX, &self.counters, |&v| v != 0)
    }

    fn gauges(&self) -> impl Iterator<Item = (&str, &Samples)> {
        self.recorded(Gauge::INDEX, &self.gauges, |v| !v.is_empty())
    }

    fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.recorded(Hist::INDEX, &self.histograms, |h| h.count != 0)
    }

    /// The recorded value of metric `name` of kind `kind`.
    fn get<'s, T>(
        &'s self,
        kind: usize,
        values: &'s [T],
        name: &str,
        recorded: impl Fn(&T) -> bool,
    ) -> Option<&'s T> {
        let id = self.names[kind].get(name)?;
        Some(&values[id as usize]).filter(|v| recorded(v))
    }

    fn gauge(&self, name: &str) -> Option<Vec<(SimTime, i64)>> {
        self.get(Gauge::INDEX, &self.gauges, name, |v| !v.is_empty())
            .map(Samples::to_vec)
    }

    /// `it`'s arguments, keys and values resolved.
    fn args<'s>(&'s self, it: &Item) -> impl Iterator<Item = (&'s str, ArgValue<'s>)> {
        let first = it.args as usize;
        (first..first + usize::from(it.nargs)).map(move |i| {
            let a = self.args.get(i);
            let v = if a.text {
                ArgValue::Str(self.name(kind::TEXT, a.value as u32))
            } else {
                ArgValue::U64(a.value)
            };
            (self.name(Key::INDEX, a.key), v)
        })
    }

    fn owned_args(&self, it: &Item) -> Vec<(String, String)> {
        self.args(it)
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Chrome `tid` by track id: track names numbered in the order of
    /// their first item (ids of one name share it); `EMPTY` for a track
    /// with none. Also the first recorded id of each name, in tid order.
    fn tids(&self) -> (Vec<u32>, Vec<u32>) {
        let tracks = &self.names[Track::INDEX];
        let mut tid = vec![EMPTY; tracks.len() as usize];
        let mut by_name = HashMap::new();
        let mut order = Vec::new();
        for it in self.items.iter() {
            if tid[it.track as usize] == EMPTY {
                let next = order.len() as u32;
                let t = *by_name.entry(tracks.name(it.track)).or_insert(next);
                if t == next {
                    order.push(it.track);
                }
                tid[it.track as usize] = t;
            }
        }
        (tid, order)
    }
}

/// The per-simulation telemetry registry. See the [module docs](self) for
/// the recording model and determinism contract.
pub struct Telemetry {
    enabled: Cell<bool>,
    /// A cell of the simulation when [`Sim::new`](crate::Sim::new) builds
    /// the registry; of a simulation id of its own otherwise. That id also
    /// tags the registry's [`Id`]s.
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

    /// `name`'s id of kind `K` in this registry, for recording without a
    /// lookup. Resolving records nothing: a name resolved and never
    /// recorded appears in no export, and tracks keep their first-record
    /// order. Works whether or not recording is on.
    pub fn id<K: Kind>(&self, name: &str) -> Id<K> {
        Id {
            id: self.state.lock().intern(K::INDEX, name),
            reg: self.state.sim_id(),
            kind: PhantomData,
        }
    }

    /// A track id of its own for a process named `name`, without a lookup
    /// ([`ProcCtx::track`](crate::ProcCtx::track) keeps it).
    pub(crate) fn process_track(&self, name: &str) -> Id<Track> {
        Id {
            id: self.state.lock().names[Track::INDEX].append(name),
            reg: self.state.sim_id(),
            kind: PhantomData,
        }
    }

    // ---- recording ----------------------------------------------------

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter_add<'a>(&self, name: impl Into<Name<'a, Counter>>, delta: u64) {
        if !self.is_enabled() || delta == 0 {
            return;
        }
        let mut st = self.state.lock();
        let id = st.resolve(name.into(), self.state.sim_id());
        st.counters[id as usize] += delta;
    }

    /// Append a `(at, value)` sample to gauge `name`'s timeline.
    pub fn gauge_set<'a>(&self, name: impl Into<Name<'a, Gauge>>, at: SimTime, value: i64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state.lock();
        let id = st.resolve(name.into(), self.state.sim_id());
        st.gauges[id as usize].push((at, value));
    }

    /// Record `value` into histogram `name`.
    pub fn histogram_record<'a>(&self, name: impl Into<Name<'a, Hist>>, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state.lock();
        let id = st.resolve(name.into(), self.state.sim_id());
        st.histograms[id as usize].record(value);
    }

    /// Record a closed span of virtual time on `track`.
    pub fn span<'a>(
        &self,
        track: impl Into<Name<'a, Track>>,
        name: impl Into<Name<'a, Label>>,
        cat: impl Into<Name<'a, Cat>>,
        start: SimTime,
        end: SimTime,
    ) {
        self.span_args::<&str>(track, name, cat, start, end, &[]);
    }

    /// Record a closed span with key/value `args`: a list (e.g. a terminal
    /// `outcome`), or a [`TraceCtx`] for its `inv`/`attempt` pair.
    pub fn span_args<'a, 'b, A: Into<Name<'a, Key>> + Copy + 'b>(
        &self,
        track: impl Into<Name<'a, Track>>,
        name: impl Into<Name<'a, Label>>,
        cat: impl Into<Name<'a, Cat>>,
        start: SimTime,
        end: SimTime,
        args: impl Into<Args<'b, A>>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let reg = self.state.sim_id();
        let mut st = self.state.lock();
        let cat = st.cat(cat.into(), reg);
        st.push(reg, track.into(), name.into(), cat, start, end, args.into());
    }

    /// Record an instant event on `track` with key/value `args`.
    pub fn instant<'a, 'b, A: Into<Name<'a, Key>> + Copy + 'b>(
        &self,
        track: impl Into<Name<'a, Track>>,
        name: impl Into<Name<'a, Label>>,
        at: SimTime,
        args: impl Into<Args<'b, A>>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let reg = self.state.sim_id();
        let mut st = self.state.lock();
        st.push(reg, track.into(), name.into(), INSTANT, at, at, args.into());
    }

    // ---- programmatic queries (test oracles) --------------------------

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let st = self.state.lock();
        *st.get(Counter::INDEX, &st.counters, name, |&v| v != 0)
            .unwrap_or(&0)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.state
            .lock()
            .counters()
            .map(|(k, &v)| (k.to_string(), v))
            .collect()
    }

    /// Timeline of gauge `name` (empty if never touched).
    pub fn gauge(&self, name: &str) -> Vec<(SimTime, i64)> {
        self.state.lock().gauge(name).unwrap_or_default()
    }

    /// Highest value ever recorded on gauge `name` (`None` if never
    /// touched). Convenient oracle for peak pool size / queue depth.
    pub fn gauge_peak(&self, name: &str) -> Option<i64> {
        self.state
            .lock()
            .gauge(name)
            .and_then(|samples| samples.iter().map(|&(_, v)| v).max())
    }

    /// Lowest value ever recorded on gauge `name` (`None` if never
    /// touched). Counterpart of [`Telemetry::gauge_peak`].
    pub fn gauge_min(&self, name: &str) -> Option<i64> {
        self.state
            .lock()
            .gauge(name)
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
        let samples = st.gauge(name)?;
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
        let st = self.state.lock();
        st.get(Hist::INDEX, &st.histograms, name, |h| h.count != 0)
            .cloned()
    }

    /// All closed spans, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let st = self.state.lock();
        st.items
            .iter()
            .filter(|it| it.is_span())
            .map(|it| SpanRecord {
                track: st.name(Track::INDEX, it.track).to_string(),
                name: st.name(Label::INDEX, it.name).to_string(),
                cat: st.name(Cat::INDEX, u32::from(it.cat)).to_string(),
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
                track: st.name(Track::INDEX, it.track).to_string(),
                name: st.name(Label::INDEX, it.name).to_string(),
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
                for (k, &v) in st.counters() {
                    j.key(k).u64(v);
                }
            });
            j.key("gauges").object(Lines(4), |j| {
                for (k, samples) in st.gauges() {
                    let samples = samples.to_vec();
                    let values = samples.iter().map(|&(_, v)| v);
                    j.key(k).object(Inline, |j| {
                        j.key("samples").array(Compact, |j| {
                            for &(at, v) in &samples {
                                j.array(Compact, |j| {
                                    j.u64(at.as_nanos()).i64(v);
                                });
                            }
                        });
                        j.key("min").i64(values.clone().min().unwrap_or(0));
                        j.key("peak").i64(values.max().unwrap_or(0));
                        j.key("twa").i64(gauge_twa(&samples));
                    });
                }
            });
            j.key("histograms").object(Lines(4), |j| {
                for (k, h) in st.histograms() {
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
                        ArgValue::Lit(l) => j.key(k).str(l.name),
                    };
                }
            });
        };
        let (tids, tracks) = st.tids();
        let mut j = JsonWriter::new();
        j.object(Inline, |j| {
            j.key("traceEvents").array(Lines(0), |j| {
                for (tid, &track) in tracks.iter().enumerate() {
                    let name = st.name(Track::INDEX, track);
                    j.object(Inline, |j| {
                        j.key("name").str("thread_name").key("ph").str("M");
                        j.key("pid").u64(1).key("tid").u64(tid as u64);
                        j.key("args").object(Inline, |j| {
                            j.key("name").str(name);
                        });
                    });
                }
                for it in st.items.iter() {
                    let name = st.name(Label::INDEX, it.name);
                    let tid = u64::from(tids[it.track as usize]);
                    j.object(Inline, |j| {
                        if it.is_span() {
                            let cat = st.name(Cat::INDEX, u32::from(it.cat));
                            j.key("name").str(name).key("cat").str(cat);
                            j.key("ph").str("X").key("pid").u64(1);
                            j.key("tid").u64(tid);
                            j.key("ts").micros(it.start.as_nanos());
                            j.key("dur").micros(it.end.since(it.start).as_nanos());
                            if it.nargs > 0 {
                                args_json(j, it);
                            }
                        } else {
                            j.key("name").str(name);
                            j.key("ph").str("i").key("s").str("t").key("pid").u64(1);
                            j.key("tid").u64(tid);
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
        t.instant::<&str>("trk", "e", SimTime(2), &[]);
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
            a2.span_args().map(|(k, v)| (k.name(), v)),
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
    fn a_literal_resolves_in_each_registry_in_that_registrys_first_use_order() {
        static A: Lit = Lit::new("a");
        let (one, two) = (Telemetry::new(), Telemetry::new());
        one.enable();
        two.enable();
        one.counter_add(&A, 1);
        two.counter_add("b", 1);
        two.counter_add(&A, 2);
        one.counter_add(&A, 1);
        assert_eq!((one.counter("a"), two.counter("a")), (2, 2));
        assert_eq!(one.state.lock().names[Counter::INDEX].get("a"), Some(0));
        assert_eq!(two.state.lock().names[Counter::INDEX].get("a"), Some(1));
        // One literal as two kinds of name: each kind keeps its own id.
        two.gauge_set(&A, SimTime(1), 5);
        two.counter_add(&A, 1);
        two.gauge_set(&A, SimTime(2), 6);
        assert_eq!(two.counter("a"), 3);
        assert_eq!(two.gauge("a"), vec![(SimTime(1), 5), (SimTime(2), 6)]);
        // A reused buffer with new bytes is a new name.
        let mut s = String::from("serve:inv1");
        let first = one.id::<Label>(&s);
        s.replace_range(.., "serve:inv2");
        let second = one.id::<Label>(&s);
        assert_ne!(first.id, second.id);
    }

    #[test]
    #[should_panic(expected = "did not resolve it")]
    fn an_id_of_another_registry_is_refused() {
        let (one, two) = (Telemetry::new(), Telemetry::new());
        two.enable();
        two.counter_add(one.id::<Counter>("c"), 1);
    }

    #[test]
    fn processes_of_one_name_share_a_track() {
        let mut sim = crate::Sim::new(1);
        sim.telemetry().enable();
        for (i, name) in ["w", "v", "w"].into_iter().enumerate() {
            let at = SimTime(10 * i as u64);
            sim.spawn_at(name, at, move |p| {
                let tel = p.telemetry();
                tel.span(p.track(), "s", "phase", at, at + Dur(1));
                tel.instant::<&str>(p.name(), "e", at, &[]);
            });
        }
        sim.run();
        let json = sim.telemetry().chrome_trace_json();
        assert_eq!(json.matches("thread_name").count(), 2);
        assert_eq!(json.matches("\"tid\": 0").count(), 1 + 4);
        assert_eq!(json.matches("\"tid\": 1").count(), 1 + 2);
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
