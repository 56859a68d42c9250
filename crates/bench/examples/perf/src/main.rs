//! The repository benchmark. See `README.md` next to this package for the
//! workloads, the metrics and how a performance change states its claim.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1
//! perf run      [--seed N] [--repeat R] [--seconds S] [--quick] [--size N] [--workload W]... [--out DIR]
//! perf trace    [--seed N] [--seconds S] [--quick] [--size N] [--workload W]... [--out DIR]
//! perf compare  PARENT_DIR CHANGE_DIR
//! perf selftest
//! ```
//!
//! The first form measures one workload for about `S` seconds and prints
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `run` writes `DIR/<workload>/perf.json` from
//! `R` passes at one seed; `trace` writes `DIR/layers.json` and
//! `DIR/trace.json`; `compare` judges a change's `run` directory against
//! its parent's.

mod child;
mod json;
mod metrics;
mod probe;
mod report;
mod rng;
mod runner;
mod selftest;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use metrics::E2E;
use runner::{Arm, Pass, Target};
use workloads::{Config, Kind, ALL};

/// Seconds of measurement a pass aims for when none are given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// The arms of a traced pass: the overheads compare them with each other.
const TRACE_ARMS: [Arm; 3] = [Arm::Traced, Arm::Plain, Arm::Flip];

/// Parsed `--flag value` pairs, value-less switches and positionals.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["--quick", "--raw-spans", "--forge-violation"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a.clone(), v.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} expects a whole number, got {v:?}")),
        }
    }

    fn switch(&self, s: &str) -> bool {
        self.switches.iter().any(|x| x == s)
    }

    /// The workload's pass target from `--seed`, `--size` and `--quick`.
    fn target(&self, kind: Kind) -> Result<Target, String> {
        Ok(Target {
            kind,
            seed: self.num("--seed", 42)?,
            size: self.num("--size", kind.size(self.switch("--quick")))?,
        })
    }

    /// The workloads named by `--workload`, or all of them.
    fn kinds(&self) -> Result<Vec<Kind>, String> {
        let named: Vec<Kind> = self
            .flags
            .iter()
            .filter(|(f, _)| f == "--workload")
            .map(|(_, v)| Kind::parse(v))
            .collect::<Result<_, _>>()?;
        Ok(if named.is_empty() {
            ALL.to_vec()
        } else {
            named
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        Ok(self.num("--seconds", DEFAULT_SECONDS)? as f64)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the command line; `Ok(false)` means a check failed.
fn dispatch(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw)?;
    if let Some(name) = args.get("--child") {
        let kind = Kind::parse(name)?;
        let t = args.target(kind)?;
        let job = child::Job {
            kind,
            cfg: Config {
                seed: t.seed,
                size: t.size,
                telemetry: args.num("--telemetry", 0)? == 1,
            },
            spans: args.num("--spans", 0)? == 1,
            raw_spans: args.switch("--raw-spans"),
            forge_violation: args.switch("--forge-violation"),
        };
        println!("{}", child::run(job)?.compact());
        return Ok(true);
    }
    match args.positional.first().map(String::as_str) {
        None if args.get("--workload").is_some() => {
            let kind = Kind::parse(args.get("--workload").unwrap_or_default())?;
            driver(&args, kind)
        }
        Some("run") => run(&args),
        Some("trace") => trace(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two directories: PARENT CHANGE".into()),
        },
        Some("selftest") => selftest::run(),
        _ => Err(format!(
            "unknown command line {raw:?}; see the usage in main.rs"
        )),
    }
}

/// The extra child flags `--forge-violation` asks for.
fn forge(args: &Args) -> &'static [&'static str] {
    if args.switch("--forge-violation") {
        &["--forge-violation"]
    } else {
        &[]
    }
}

/// The benchmark protocol: one pass of one workload, printed as one JSON
/// line with the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
/// metrics.
fn driver(args: &Args, kind: Kind) -> Result<bool, String> {
    let t = args.target(kind)?;
    let seconds = args.seconds()?;
    let metrics;
    let pass = if args.num("--trace", 0)? == 1 {
        let pass = runner::pass(t, &TRACE_ARMS, t.traced_replicas(seconds), forge(args))?;
        metrics = report::layer_table(&pass);
        pass
    } else {
        let pass = runner::pass(t, &[Arm::Plain], t.replicas(seconds), forge(args))?;
        metrics = E2E
            .iter()
            .zip(pass.e2e())
            .filter(|(e, _)| e.gated)
            .fold(Json::obj(), |m, (e, v)| {
                m.with(e.name, Json::obj().with("value", v).with("unit", e.unit))
            });
        pass
    };
    for p in &pass.problems {
        eprintln!("perf: {}: {p}", kind.name());
    }
    let line = Json::obj()
        .with("correct", pass.correct())
        .with("attempted", pass.attempted())
        .with("failed", pass.failed())
        .with("metrics", metrics);
    println!("{}", line.compact());
    Ok(pass.correct())
}

/// `run`: `--repeat` passes of each workload at one seed, written as
/// `perf.json` files and summarised on standard output.
fn run(args: &Args) -> Result<bool, String> {
    let out = args.get("--out").unwrap_or("target/perf");
    let repeat = args.num("--repeat", 3)?.max(1) as usize;
    let mut ok = true;
    for kind in args.kinds()? {
        let t = args.target(kind)?;
        let replicas = t.replicas(args.seconds()?);
        let passes = (0..repeat)
            .map(|_| runner::pass(t, &[Arm::Plain], replicas, forge(args)))
            .collect::<Result<Vec<Pass>, String>>()?;
        let (doc, problems) = report::perf_json(t, replicas, &passes);
        let path = Path::new(out).join(kind.name()).join("perf.json");
        report::write(&path, &doc)?;
        println!(
            "{} ({} passes × {replicas} replicas) → {}",
            kind.name(),
            repeat,
            path.display()
        );
        for e in &E2E {
            let m = doc.get("metrics").and_then(|m| m.get(e.name));
            let get = |k| {
                m.and_then(|m| m.get(k))
                    .and_then(Json::num)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "  {:<28} {:>18} {:<3} [{}, {}]",
                e.name,
                report::num4(get("median")),
                e.unit,
                report::num4(get("q1")),
                report::num4(get("q3"))
            );
        }
        for p in &problems {
            eprintln!("perf: {}: {p}", kind.name());
        }
        ok &= problems.is_empty();
    }
    Ok(ok)
}

/// `trace`: one traced pass per workload (traced, plain and
/// telemetry-flipped arms of each replica), written as `layers.json` and a
/// Chrome `trace.json` of the first traced replica of each workload.
fn trace(args: &Args) -> Result<bool, String> {
    let out = Path::new(args.get("--out").unwrap_or("target/perf"));
    let mut layers = Json::obj();
    let mut events = Vec::new();
    let mut ok = true;
    for (pid, kind) in args.kinds()?.into_iter().enumerate() {
        let t = args.target(kind)?;
        let replicas = t.traced_replicas(args.seconds()?);
        let pass = runner::pass(t, &TRACE_ARMS, replicas, &["--raw-spans"])?;
        events.push(
            Json::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", pid as u64)
                .with("args", Json::obj().with("name", kind.name())),
        );
        events.extend(report::trace_events(&pass, pid as u64));
        let table = report::layer_table(&pass);
        println!("{} ({replicas} replicas × 3 arms)", kind.name());
        for (name, v) in table.fields() {
            let value = v.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::str).unwrap_or("");
            println!("  {name:<44} {value:>14.3} {unit}");
        }
        for p in &pass.problems {
            eprintln!("perf: {}: {p}", kind.name());
        }
        ok &= pass.correct();
        let first = pass.arm(Arm::Traced).next();
        let spans = first.and_then(|s| s.get("span_totals")).cloned();
        let pinned = first.map_or(f64::NAN, |s| runner::num(s, "pinned_cpu"));
        layers = layers.with(
            kind.name(),
            Json::obj()
                .with("provenance", report::provenance(t, replicas, 1, pinned))
                .with("correct", pass.correct())
                .with("layers", table)
                .with("spans_of_first_replica", spans.unwrap_or(Json::Null)),
        );
    }
    report::write(&out.join("layers.json"), &layers)?;
    report::write(
        &out.join("trace.json"),
        &Json::obj().with("traceEvents", events),
    )?;
    println!(
        "→ {}, {}",
        out.join("layers.json").display(),
        out.join("trace.json").display()
    );
    Ok(ok)
}
