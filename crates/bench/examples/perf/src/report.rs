//! What `run`, `trace` and `compare` write and read: `perf.json` per
//! workload, `layers.json` and `trace.json`, and the verdicts of a
//! parent-versus-change comparison.

use std::fs;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::E2E;
use crate::runner::{num, Arm, Pass, Target};
use crate::stats::Quartiles;
use crate::sys;
use crate::workloads::{Kind, ALL};

/// Bumped whenever a workload, a metric or the way one is measured
/// changes; `compare` refuses to compare runs of different versions.
pub const VERSION: u64 = 1;

/// Where the run came from, and what it ran.
pub fn provenance(t: Target, replicas: usize, repeat: usize, pinned_cpu: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj()
        .with("benchmark_version", VERSION)
        .with("commit", sys::git_commit())
        .with("nproc", nproc)
        .with("pinned_cpu", pinned_cpu)
        .with("kernel", sys::kernel_release())
        .with("seed", t.seed)
        .with("size", t.size)
        .with("replicas", replicas as u64)
        .with("repeat", repeat as u64)
}

/// `perf.json` for `repeat` passes of one workload at one seed: every
/// end-to-end metric with its median, quartiles and per-pass samples.
/// Passes of one seed must agree on every virtual result, which their
/// digests cover.
pub fn perf_json(t: Target, replicas: usize, passes: &[Pass]) -> (Json, Vec<String>) {
    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    let digests: Vec<String> = passes.iter().map(Pass::digest).collect();
    for (i, d) in digests.iter().enumerate() {
        if *d != digests[0] {
            problems.push(format!("pass {i}: virt_digest {d} differs from pass 0's"));
        }
    }
    let values: Vec<Vec<f64>> = passes.iter().map(Pass::e2e).collect();
    let mut metrics = Json::obj();
    for (k, e) in E2E.iter().enumerate() {
        let samples: Vec<f64> = values.iter().map(|v| v[k]).collect();
        let q = Quartiles::of(&samples);
        metrics = metrics.with(
            e.name,
            Json::obj()
                .with("unit", e.unit)
                .with("bound", e.bound)
                .with("median", q.median)
                .with("q1", q.q1)
                .with("q3", q.q3)
                .with(
                    "samples",
                    samples.into_iter().map(Json::from).collect::<Vec<_>>(),
                ),
        );
    }
    let first = passes[0].arm(Arm::Plain).next().expect("a plain sample");
    let mut doc = Json::obj()
        .with("workload", t.kind.name())
        .with(
            "provenance",
            provenance(t, replicas, passes.len(), num(first, "pinned_cpu")),
        )
        .with("correct", problems.is_empty())
        .with("attempted", passes.iter().map(Pass::attempted).sum::<u64>())
        .with("failed", passes.iter().map(Pass::failed).sum::<u64>())
        .with("virt_digest", digests[0].as_str());
    if let Some(err) = first.get("model_err_permille") {
        doc = doc.with("model_err_permille", err.clone());
    }
    let doc = doc.with("metrics", metrics).with(
        "problems",
        problems
            .iter()
            .map(|p| Json::from(p.as_str()))
            .collect::<Vec<_>>(),
    );
    (doc, problems)
}

/// The per-layer table of one traced pass, as `{name: {value, unit}}`.
pub fn layer_table(pass: &Pass) -> Json {
    pass.layers()
        .into_iter()
        .fold(Json::obj(), |m, (name, unit, value)| {
            m.with(&name, Json::obj().with("value", value).with("unit", unit))
        })
}

/// Chrome trace events of the first traced replica, as process `pid`.
pub fn trace_events(pass: &Pass, pid: u64) -> Vec<Json> {
    let Some(s) = pass.arm(Arm::Traced).next() else {
        return Vec::new();
    };
    s.get("raw_spans")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|e| e.clone().with("pid", pid))
        .collect()
}

/// Write `doc` to `path`, creating its directory.
pub fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How a change's metric compares with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least 9 in 10 pairs won and the medians differ by more than the
    /// parent's interquartile range.
    Improved,
    /// The change's median is within the bound of the parent's.
    NoWorse,
    /// The change's median is worse than the bound allows.
    Worse,
    /// The parent's own spread is wider than the bound, and the change
    /// does not read better on every run.
    Unresolved,
}

/// Judge one lower-is-better metric from the parent's and the change's
/// samples, paired in order (run alternately, parent first or not). A
/// virtual-time metric repeats exactly, so any difference decides.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, exact: bool) -> (Verdict, f64) {
    let (p, c) = (Quartiles::of(parent), Quartiles::of(change));
    if exact {
        let v = match c.median.total_cmp(&p.median) {
            std::cmp::Ordering::Less => Verdict::Improved,
            std::cmp::Ordering::Equal => Verdict::NoWorse,
            std::cmp::Ordering::Greater => Verdict::Worse,
        };
        return (v, if v == Verdict::Improved { 1.0 } else { 0.0 });
    }
    let pairs = parent.len().min(change.len());
    let won = parent.iter().zip(change).filter(|(a, b)| b < a).count();
    let share = won as f64 / pairs.max(1) as f64;
    let iqr = p.q3 - p.q1;
    let all_better = change.iter().all(|b| parent.iter().all(|a| b < a));
    let v = if share >= 0.9 && p.median - c.median > iqr {
        Verdict::Improved
    } else if p.spread() > bound && !all_better {
        Verdict::Unresolved
    } else if c.median <= p.median * (1.0 + bound) {
        Verdict::NoWorse
    } else {
        Verdict::Worse
    };
    (v, share)
}

/// The `perf.json` files of `kind` under `dir`: `dir/<kind>/perf.json`,
/// then `dir/*/<kind>/perf.json` in name order, so that runs made
/// alternately with the other side (`--out parent/01`, `change/01`, ...)
/// pair up in order.
fn perf_files(dir: &Path, kind: Kind) -> Result<Vec<Json>, String> {
    let rel = Path::new(kind.name()).join("perf.json");
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs: Vec<PathBuf> = entries
        .filter_map(|e| Some(e.ok()?.path().join(&rel)))
        .collect();
    runs.sort();
    std::iter::once(dir.join(&rel))
        .chain(runs)
        .filter(|p| p.exists())
        .map(|p| read(&p))
        .collect()
}

/// Every sample of metric `name` over `docs`, in order.
fn samples(docs: &[Json], name: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("metrics")?.get(name)?.get("samples"))
        .flat_map(Json::items)
        .filter_map(Json::num)
        .collect()
}

/// Compare the `perf.json` files of two `run` output directories, print a
/// table, and return whether no metric got worse.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<12} {:<28} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    for kind in ALL {
        let (parent, change) = (perf_files(parent_dir, kind)?, perf_files(change_dir, kind)?);
        if parent.is_empty() && change.is_empty() {
            continue;
        }
        if parent.is_empty() || change.is_empty() {
            return Err(format!("{}: perf.json on one side only", kind.name()));
        }
        for doc in parent.iter().chain(&change) {
            same_setup(kind, &parent[0], doc)?;
        }
        let digests = |docs: &[Json]| -> Vec<String> {
            let mut d: Vec<String> = docs
                .iter()
                .filter_map(|d| d.get("virt_digest")?.str().map(str::to_owned))
                .collect();
            d.dedup();
            d
        };
        let (dp, dc) = (digests(&parent), digests(&change));
        if dp.len() != 1 || dc.len() != 1 {
            return Err(format!(
                "{}: runs of one side disagree on virt_digest ({dp:?} / {dc:?})",
                kind.name()
            ));
        }
        println!(
            "{:<12} virt_digest {}",
            kind.name(),
            if dp == dc {
                "identical: every virtual result is unchanged"
            } else {
                "differs: the change moved virtual results"
            }
        );
        for e in &E2E {
            let (a, b) = (samples(&parent, e.name), samples(&change, e.name));
            if a.is_empty() || b.is_empty() {
                return Err(format!("{}: no samples of {}", kind.name(), e.name));
            }
            let (v, share) = verdict(&a, &b, e.bound, e.virtual_time);
            // Unscaled host time moves with the machine's neighbours; it is
            // shown for reference and decides nothing.
            let decides = e.gated || e.virtual_time;
            ok &= v != Verdict::Worse || !decides;
            let show = |x: &[f64]| {
                let q = Quartiles::of(x);
                format!("{} [{}, {}]", num4(q.median), num4(q.q1), num4(q.q3))
            };
            println!(
                "{:<12} {:<28} {:>30} {:>30} {:>5.0}%  {v:?}{}",
                kind.name(),
                e.name,
                show(&a),
                show(&b),
                share * 100.0,
                if decides { "" } else { " (reference only)" }
            );
        }
    }
    Ok(ok)
}

/// `x` with four significant digits after the point, in scientific
/// notation when it is below 0.01 (set-up times of a few microseconds).
pub fn num4(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// Refuse to compare runs of different seeds, sizes or benchmark versions.
fn same_setup(kind: Kind, parent: &Json, change: &Json) -> Result<(), String> {
    for key in ["benchmark_version", "seed", "size", "replicas"] {
        let get = |d: &Json| d.get("provenance").and_then(|p| p.get(key)).cloned();
        if get(parent) != get(change) {
            return Err(format!(
                "{}: {key} differs ({:?} vs {:?}); runs are not comparable",
                kind.name(),
                get(parent),
                get(change)
            ));
        }
    }
    Ok(())
}
