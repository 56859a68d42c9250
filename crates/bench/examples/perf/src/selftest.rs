//! `selftest`: quick checks that the benchmark measures what it claims,
//! at `--quick` sizes (about 2 % of each workload).

use std::process::{Command, Stdio};

use crate::metrics::E2E;
use crate::runner::{self, Arm, Target};
use crate::stats::nearest_rank;
use crate::workloads::ALL;

/// Replicas per self-test pass: enough to exercise pooling.
const REPLICAS: usize = 2;

/// Run every check, print one line per check, and return whether all
/// passed.
pub fn run() -> Result<bool, String> {
    let mut ok = true;
    let mut check = |name: &str, passed: bool, detail: String| {
        println!("{} {name}{detail}", if passed { "ok  " } else { "FAIL" });
        ok &= passed;
    };

    let v: Vec<u64> = (1..=1_000).collect();
    check(
        "nearest-rank percentiles at the edges",
        nearest_rank(&[], 5_000).is_none()
            && nearest_rank(&[7], 5_000) == Some(7)
            && nearest_rank(&[7], 9_900) == Some(7)
            && nearest_rank(&v, 9_900) == Some(990)
            && v.len() - 990 == 10,
        String::new(),
    );

    for kind in ALL {
        let t = Target {
            kind,
            seed: 7,
            size: kind.size(true),
        };
        let arms = [Arm::Plain, Arm::Traced, Arm::Flip];
        let a = runner::pass(t, &arms, REPLICAS, &[])?;
        let b = runner::pass(t, &[Arm::Plain], REPLICAS, &[])?;
        check(
            &format!(
                "{}: oracles pass; traced and telemetry-flipped arms match the plain one",
                kind.name()
            ),
            a.correct() && b.correct(),
            problems(&a.problems, &b.problems),
        );
        let virt = |p: &runner::Pass| {
            let v = p.e2e();
            let picked: Vec<f64> = E2E
                .iter()
                .zip(v)
                .filter(|(e, _)| e.virtual_time)
                .map(|(_, x)| x)
                .collect();
            (picked, p.digest())
        };
        let (va, vb) = (virt(&a), virt(&b));
        check(
            &format!(
                "{}: same seed, same virtual metrics and digest",
                kind.name()
            ),
            va == vb,
            if va == vb {
                String::new()
            } else {
                format!(": {va:?} vs {vb:?}")
            },
        );
    }

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", "rpc_storm", "--seed", "1", "--seconds", "0"])
        .args(["--trace", "0", "--quick", "--forge-violation"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    check(
        "a forged failing output makes the benchmark exit non-zero",
        !status.success(),
        format!(" ({status})"),
    );
    Ok(ok)
}

fn problems(a: &[String], b: &[String]) -> String {
    if a.is_empty() && b.is_empty() {
        String::new()
    } else {
        format!(": {:?}", a.iter().chain(b).collect::<Vec<_>>())
    }
}
