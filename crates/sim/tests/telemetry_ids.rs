//! Recording through resolved ids is recording by name.
//!
//! A random interleaving of counters, gauges, histograms, spans with
//! arguments and instants over many tracks is recorded twice: once through
//! the `&str` API, and once through ids and literals resolved ahead. In the
//! second run some names are resolved long before their first record, some
//! are resolved and never recorded, and tracks are resolved in an order of
//! their own, and a trace context's `inv`/`attempt` pair is passed as the
//! context. Both runs must export byte-identical metrics and traces:
//! resolving a name records nothing, and Chrome tids follow first record.

use dgsf_sim::telemetry::kind::{Cat, Counter, Gauge, Hist, Key, Label, Track};
use dgsf_sim::{ArgValue, Id, Lit, SimTime, Telemetry, TraceCtx};
use proptest::prelude::*;

const COUNTERS: [&str; 5] = ["rpc.calls", "net.messages", "a", "a.b", "b"];
const GAUGES: [&str; 3] = ["queue", "gpu.0.util", "pool"];
const HISTS: [&str; 3] = ["lat", "bytes", "a"];
const TRACKS: usize = 12;
const LABELS: [&str; 5] = ["init", "sync", "serve:inv1", "retry", "req:spin"];
const CATS: [&str; 3] = ["phase", "rpc", "server"];
const KEYS: [&str; 4] = ["inv", "attempt", "outcome", "tenant"];
/// Text values; in the id run the first ones go through literals.
const TEXTS: [&str; 3] = ["completed", "shed", "hot"];
static TEXT_LITS: [Lit; 2] = [Lit::new("completed"), Lit::new("shed")];

/// Names of each kind that the id run resolves and never records.
const GHOSTS: &str = "ghost";
/// Trace contexts: `(id, attempt)`.
const TRACES: [(u64, u32); 3] = [(1, 1), (2, 1), (1, 2)];

#[derive(Debug, Clone)]
enum Val {
    Int(u64),
    Text(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Counter(usize, u64),
    Gauge(usize, i64),
    Hist(usize, u64),
    Span(usize, usize, usize, Vec<(usize, Val)>),
    Instant(usize, usize, Vec<(usize, Val)>),
    /// A span carrying a trace context's pair.
    Traced(usize, usize, usize, usize),
}

fn val() -> impl Strategy<Value = Val> {
    prop_oneof![
        (0u64..4).prop_map(Val::Int),
        (0..TEXTS.len()).prop_map(Val::Text)
    ]
}

fn args() -> impl Strategy<Value = Vec<(usize, Val)>> {
    proptest::collection::vec((0..KEYS.len(), val()), 0..6)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..COUNTERS.len(), 0u64..3).prop_map(|(n, d)| Op::Counter(n, d)),
        (0..GAUGES.len(), -5i64..5).prop_map(|(n, v)| Op::Gauge(n, v)),
        (0..HISTS.len(), 0u64..5_000).prop_map(|(n, v)| Op::Hist(n, v)),
        (0..TRACKS, 0..LABELS.len(), 0..CATS.len(), args())
            .prop_map(|(t, l, c, a)| Op::Span(t, l, c, a)),
        (0..TRACKS, 0..LABELS.len(), args()).prop_map(|(t, l, a)| Op::Instant(t, l, a)),
        (0..TRACKS, 0..LABELS.len(), 0..CATS.len(), 0..TRACES.len())
            .prop_map(|(t, l, c, x)| Op::Traced(t, l, c, x)),
    ]
}

fn track_name(t: usize) -> String {
    format!("fn-{t}")
}

fn by_name(ops: &[Op]) -> Telemetry {
    let tel = Telemetry::new();
    tel.enable();
    let value = |v: &Val| match *v {
        Val::Int(i) => ArgValue::U64(i),
        Val::Text(t) => ArgValue::Str(TEXTS[t]),
    };
    for (k, op) in ops.iter().enumerate() {
        let at = SimTime(k as u64 * 10);
        match op {
            Op::Counter(n, d) => tel.counter_add(COUNTERS[*n], *d),
            Op::Gauge(n, v) => tel.gauge_set(GAUGES[*n], at, *v),
            Op::Hist(n, v) => tel.histogram_record(HISTS[*n], *v),
            Op::Span(t, l, c, a) => {
                let a: Vec<(&str, ArgValue)> =
                    a.iter().map(|(k, v)| (KEYS[*k], value(v))).collect();
                tel.span_args(
                    &track_name(*t),
                    LABELS[*l],
                    CATS[*c],
                    at,
                    at + dgsf_sim::Dur(7),
                    &a,
                );
            }
            Op::Instant(t, l, a) => {
                let a: Vec<(&str, ArgValue)> =
                    a.iter().map(|(k, v)| (KEYS[*k], value(v))).collect();
                tel.instant(&track_name(*t), LABELS[*l], at, &a);
            }
            Op::Traced(t, l, c, x) => {
                let (inv, attempt) = TRACES[*x];
                let a = [("inv", inv.into()), ("attempt", attempt.into())];
                let end = at + dgsf_sim::Dur(7);
                tel.span_args(&track_name(*t), LABELS[*l], CATS[*c], at, end, &a);
            }
        }
    }
    tel
}

/// Ids of one kind: resolved up front (for the names in `early`, in that
/// order) or at first use.
struct Ids<K> {
    names: Vec<String>,
    ids: Vec<Option<Id<K>>>,
}

impl<K: dgsf_sim::telemetry::kind::Kind> Ids<K> {
    fn new(tel: &Telemetry, names: Vec<String>, early: &[usize]) -> Ids<K> {
        let mut ids = vec![None; names.len()];
        for &i in early {
            ids[i] = Some(tel.id(&names[i]));
        }
        // Resolved and never recorded.
        let _: Id<K> = tel.id(GHOSTS);
        Ids { names, ids }
    }

    fn get(&mut self, tel: &Telemetry, i: usize) -> Id<K> {
        *self.ids[i].get_or_insert_with(|| tel.id(&self.names[i]))
    }
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn by_id(ops: &[Op], early: &[bool], track_order: &[usize]) -> Telemetry {
    let tel = Telemetry::new();
    // Resolution works, and records nothing, before recording is on.
    let pick = |n: usize| {
        (0..n)
            .filter(|&i| early[i % early.len()])
            .collect::<Vec<_>>()
    };
    let mut counters = Ids::<Counter>::new(&tel, strings(&COUNTERS), &pick(COUNTERS.len()));
    let mut gauges = Ids::<Gauge>::new(&tel, strings(&GAUGES), &pick(GAUGES.len()));
    let mut hists = Ids::<Hist>::new(&tel, strings(&HISTS), &pick(HISTS.len()));
    let early_tracks: Vec<usize> = track_order
        .iter()
        .copied()
        .filter(|&t| early[t % early.len()])
        .collect();
    let mut tracks = Ids::<Track>::new(&tel, (0..TRACKS).map(track_name).collect(), &early_tracks);
    let mut labels = Ids::<Label>::new(&tel, strings(&LABELS), &pick(LABELS.len()));
    let mut cats = Ids::<Cat>::new(&tel, strings(&CATS), &pick(CATS.len()));
    let mut keys = Ids::<Key>::new(&tel, strings(&KEYS), &pick(KEYS.len()));
    let traces = TRACES.map(|(inv, attempt)| TraceCtx::new(inv, "hot").with_attempt(attempt));
    tel.enable();
    let value = |v: &Val| match *v {
        Val::Int(i) => ArgValue::U64(i),
        Val::Text(t) if t < TEXT_LITS.len() => ArgValue::Lit(&TEXT_LITS[t]),
        Val::Text(t) => ArgValue::Str(TEXTS[t]),
    };
    for (k, op) in ops.iter().enumerate() {
        let at = SimTime(k as u64 * 10);
        match op {
            Op::Counter(n, d) => tel.counter_add(counters.get(&tel, *n), *d),
            Op::Gauge(n, v) => tel.gauge_set(gauges.get(&tel, *n), at, *v),
            Op::Hist(n, v) => tel.histogram_record(hists.get(&tel, *n), *v),
            Op::Span(t, l, c, a) => {
                let a: Vec<(Id<Key>, ArgValue)> = a
                    .iter()
                    .map(|(k, v)| (keys.get(&tel, *k), value(v)))
                    .collect();
                let (t, l, c) = (
                    tracks.get(&tel, *t),
                    labels.get(&tel, *l),
                    cats.get(&tel, *c),
                );
                tel.span_args(t, l, c, at, at + dgsf_sim::Dur(7), &a);
            }
            Op::Instant(t, l, a) => {
                let a: Vec<(Id<Key>, ArgValue)> = a
                    .iter()
                    .map(|(k, v)| (keys.get(&tel, *k), value(v)))
                    .collect();
                tel.instant(tracks.get(&tel, *t), labels.get(&tel, *l), at, &a);
            }
            Op::Traced(t, l, c, x) => {
                let (t, l, c) = (
                    tracks.get(&tel, *t),
                    labels.get(&tel, *l),
                    cats.get(&tel, *c),
                );
                tel.span_args(t, l, c, at, at + dgsf_sim::Dur(7), &traces[*x]);
            }
        }
    }
    tel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recording_through_ids_exports_what_recording_by_name_does(
        ops in proptest::collection::vec(op(), 0..160),
        early in proptest::collection::vec(any::<bool>(), 1..16),
        order_keys in proptest::collection::vec(any::<u64>(), TRACKS..TRACKS + 1),
    ) {
        let mut track_order: Vec<usize> = (0..TRACKS).collect();
        track_order.sort_by_key(|&t| order_keys[t]);
        let (named, resolved) = (by_name(&ops), by_id(&ops, &early, &track_order));
        prop_assert_eq!(named.metrics_json(), resolved.metrics_json());
        prop_assert_eq!(named.chrome_trace_json(), resolved.chrome_trace_json());
        prop_assert!(!resolved.metrics_json().contains(GHOSTS));
        prop_assert!(!resolved.chrome_trace_json().contains(GHOSTS));
    }
}
