//! The parent side: starts one child process per measured instance, waits
//! for it, and turns the samples into metrics.
//!
//! Every instance runs in a fresh child so that `peak_rss_mb` and the
//! process counters belong to one instance, and so that the child can pin
//! itself to one CPU without pinning the parent.
//!
//! A *pass* runs several *replicas* of a workload: independent inputs
//! derived from the pass's seed. Virtual results vary with the inputs, and
//! so does the host cost of simulating them, so a pass pools the replicas'
//! latencies and takes the median of their host measurements; that keeps
//! the numbers of one seed close to those of the next.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{layers, E2E};
use crate::rng::replica_seed;
use crate::stats::{fnv1a, nearest_rank, Quartiles};
use crate::workloads::Kind;

/// A child that runs longer than this is killed and the pass fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Which variant of a workload an instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The workload as defined: the end-to-end measurement.
    Plain,
    /// Platform telemetry switched the other way, no spans.
    Flip,
    /// Telemetry on and the benchmark's spans recorded.
    Traced,
}

impl Arm {
    /// Whether platform telemetry records in this arm.
    pub fn telemetry(self, kind: Kind) -> bool {
        match self {
            Arm::Plain => kind.telemetry_on(),
            Arm::Flip => !kind.telemetry_on(),
            Arm::Traced => true,
        }
    }
}

/// What to run: one workload at one seed and size.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The workload.
    pub kind: Kind,
    /// The pass's seed; replicas derive their own from it.
    pub seed: u64,
    /// Workload size of each replica.
    pub size: u64,
}

impl Target {
    /// Replicas that fill about `seconds` of measurement, at least three
    /// so every median has a middle.
    pub fn replicas(&self, seconds: f64) -> usize {
        let per = self.kind.nominal_secs() * self.size as f64 / self.kind.size(false) as f64;
        ((seconds / per).round() as usize).clamp(3, 64)
    }

    /// Replicas of a traced pass: each runs in three arms, so a third of
    /// [`Target::replicas`] fills the same time.
    pub fn traced_replicas(&self, seconds: f64) -> usize {
        (self.replicas(seconds) / 3).max(1)
    }
}

/// Start a child for one instance of `kind` at input `seed` in `arm` and
/// return its sample.
fn child(t: Target, seed: u64, arm: Arm, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let mut proc = Command::new(exe)
        .args(["--child", t.kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--size", &t.size.to_string()])
        .args(["--telemetry", flag(arm.telemetry(t.kind))])
        .args(["--spans", flag(arm == Arm::Traced)])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = proc.kill();
            let _ = proc.wait();
            let _ = reader.join();
            return Err(format!(
                "{} child ran past {CHILD_TIMEOUT:?}",
                t.kind.name()
            ));
        }
        thread::sleep(Duration::from_millis(20));
    };
    let text = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("{} child failed: {status}", t.kind.name()));
    }
    let last = text.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("bad child sample ({e})"))
}

/// The median of `v`; NaN when it is empty.
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        Quartiles::of(v).median
    }
}

/// Numeric field `key` of a sample.
pub fn num(sample: &Json, key: &str) -> f64 {
    sample.get(key).and_then(Json::num).unwrap_or(f64::NAN)
}

/// The fields that must agree between every arm of one replica; the
/// digest covers every latency.
const VIRTUAL_KEYS: [&str; 6] = [
    "launched",
    "completed",
    "shed",
    "failed",
    "virt_digest",
    "model_err_permille",
];

fn virtual_key(s: &Json) -> Vec<String> {
    VIRTUAL_KEYS
        .iter()
        .map(|k| s.get(k).map(Json::compact).unwrap_or_default())
        .collect()
}

/// The samples of one pass.
pub struct Pass {
    /// `(arm, sample)` in the order the children ran: replica by replica.
    pub samples: Vec<(Arm, Json)>,
    /// Violations reported by a child, and replicas whose arms disagree.
    pub problems: Vec<String>,
}

/// Run `replicas` replicas of `t`, each in every arm of `arms`.
pub fn pass(t: Target, arms: &[Arm], replicas: usize, extra: &[&str]) -> Result<Pass, String> {
    let mut samples = Vec::with_capacity(replicas * arms.len());
    let mut problems = Vec::new();
    for r in 0..replicas {
        let seed = replica_seed(t.seed, r as u64);
        let first = samples.len();
        for &arm in arms {
            let s = child(t, seed, arm, extra)?;
            for v in s.get("violations").map(Json::items).unwrap_or_default() {
                problems.push(format!("replica {r} {arm:?}: {}", v.str().unwrap_or("?")));
            }
            samples.push((arm, s));
        }
        let reference = virtual_key(&samples[first].1);
        for (arm, s) in &samples[first + 1..] {
            if virtual_key(s) != reference {
                problems.push(format!(
                    "replica {r}: {arm:?} virtual results {:?} differ from {:?}'s {reference:?}",
                    virtual_key(s),
                    arms[0]
                ));
            }
        }
    }
    Ok(Pass { samples, problems })
}

impl Pass {
    /// Samples of `arm`, in replica order.
    pub fn arm(&self, arm: Arm) -> impl Iterator<Item = &Json> {
        self.samples
            .iter()
            .filter(move |(a, _)| *a == arm)
            .map(|(_, s)| s)
    }

    /// Median of `key` over the samples that match `pred`.
    fn median(&self, key: &str, pred: impl Fn(Arm, &Json) -> bool) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|(a, s)| pred(*a, s))
            .map(|(_, s)| num(s, key))
            .collect();
        median(&v)
    }

    /// The end-to-end metrics of the plain arm, in [`E2E`] order: host
    /// numbers are medians over replicas, virtual percentiles are taken
    /// over the pooled latencies of every replica.
    pub fn e2e(&self) -> Vec<f64> {
        let mut pooled: Vec<u64> = self
            .arm(Arm::Plain)
            .flat_map(|s| s.get("latencies_ns").map(Json::items).unwrap_or_default())
            .filter_map(|v| v.num().map(|x| x as u64))
            .collect();
        pooled.sort_unstable();
        let pct = |q| nearest_rank(&pooled, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        E2E.iter()
            .map(|e| match e.name {
                "virt_p50_us" => pct(5_000),
                "virt_p99_us" => pct(9_900),
                name => self.median(name, |a, _| a == Arm::Plain),
            })
            .collect()
    }

    /// FNV-1a over the replicas' digests, in replica order: equal for two
    /// passes exactly when every replica's virtual results are equal.
    pub fn digest(&self) -> String {
        let words = self.arm(Arm::Plain).map(|s| {
            let hex = s.get("virt_digest").and_then(Json::str).unwrap_or("");
            u64::from_str_radix(hex, 16).unwrap_or(0)
        });
        format!("{:016x}", fnv1a(words))
    }

    /// The per-layer metrics, in [`layers`] order: medians over the
    /// traced replicas, plus the two overheads the arms measure.
    pub fn layers(&self) -> Vec<(String, &'static str, f64)> {
        let host = |traced: bool, telemetry: bool| {
            self.median("host_us_per_invocation", |a, s| {
                (a == Arm::Traced) == traced && s.get("telemetry") == Some(&Json::Bool(telemetry))
            })
        };
        let (traced, tel_on, tel_off) = (host(true, true), host(false, true), host(false, false));
        layers()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "telemetry.overhead_permille" => (tel_on / tel_off - 1.0) * 1000.0,
                    "bench.trace_overhead_permille" => (traced / tel_on - 1.0) * 1000.0,
                    _ => median(
                        &self
                            .arm(Arm::Traced)
                            .filter_map(|s| s.get("layers")?.get(&name)?.num())
                            .collect::<Vec<_>>(),
                    ),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Invocations attempted over every instance.
    pub fn attempted(&self) -> u64 {
        self.samples
            .iter()
            .map(|(_, s)| num(s, "launched") as u64)
            .sum()
    }

    /// Invocations shed or failed over every instance.
    pub fn failed(&self) -> u64 {
        self.samples
            .iter()
            .map(|(_, s)| (num(s, "shed") + num(s, "failed")) as u64)
            .sum()
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && !self.samples.is_empty()
    }
}
