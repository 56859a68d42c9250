//! Plain-text table rendering, and the per-arm arithmetic, seeds and
//! arrival patterns the experiments share.

use dgsf::prelude::*;
use dgsf::serverless::FunctionResult;
use dgsf::sim::stats::percentile_permille;
use dgsf::sim::{Telemetry, TraceOutcome};

/// A rendered table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Build from string-ish headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// `12.345` → `"12.3s"`.
pub fn secs(x: f64) -> String {
    format!("{x:.1}s")
}

/// `12.345` → `"12.35s"` (two decimals, for sub-second values).
pub fn secs2(x: f64) -> String {
    format!("{x:.2}s")
}

/// Relative change `b` vs baseline `a`, paper style: "(-17%)".
pub fn rel(a: f64, b: f64) -> String {
    if a <= 0.0 {
        return "(n/a)".into();
    }
    let pct = (b - a) / a * 100.0;
    format!("({pct:+.0}%)")
}

/// How one experiment arm's requests ended, and how fast the completed
/// ones were. All integers (virtual-time derived).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmSummary {
    /// Requests launched.
    pub launched: u64,
    /// ... of which completed.
    pub completed: u64,
    /// ... of which shed.
    pub shed: u64,
    /// ... of which terminally failed.
    pub failed: u64,
    /// Median end-to-end latency of the completed requests (microseconds,
    /// nearest-rank; 0 when none completed).
    pub p50_e2e_us: u64,
    /// 99th-percentile end-to-end latency of the completed requests.
    pub p99_e2e_us: u64,
    /// Completions per second over the arm's window, in
    /// milli-requests/second; 0 over a zero window.
    pub goodput_rps_milli: u64,
}

impl ArmSummary {
    /// Summarise `(outcome, end-to-end latency)` pairs — one per function
    /// or DAG — whose completions were served over `window`.
    pub fn of(outcomes: impl IntoIterator<Item = (TraceOutcome, Dur)>, window: Dur) -> ArmSummary {
        let mut s = ArmSummary::default();
        let mut e2e_us = Vec::new();
        for (outcome, e2e) in outcomes {
            s.launched += 1;
            match outcome {
                TraceOutcome::Completed => {
                    s.completed += 1;
                    e2e_us.push(e2e.as_nanos() / 1_000);
                }
                TraceOutcome::Shed => s.shed += 1,
                TraceOutcome::Failed => s.failed += 1,
            }
        }
        e2e_us.sort_unstable();
        s.p50_e2e_us = percentile_permille(&e2e_us, 500);
        s.p99_e2e_us = percentile_permille(&e2e_us, 990);
        s.goodput_rps_milli = (u128::from(s.completed) * 1_000_000_000_000)
            .checked_div(u128::from(window.as_nanos()))
            .unwrap_or(0) as u64;
        s
    }
}

/// The summary of a platform run's results that `keep` selects, over the
/// run's first-launch → all-done window.
pub fn summary_of(out: &BackendRunOutput, keep: impl Fn(&FunctionResult) -> bool) -> ArmSummary {
    ArmSummary::of(
        out.results
            .iter()
            .filter(|r| keep(r))
            .map(|r| (r.outcome(), r.e2e())),
        out.provider_e2e(),
    )
}

/// The seed of load point `idx` (from 0) derived from the experiment's
/// `base` seed: distinct and deterministic per point.
pub fn point_seed(base: u64, idx: u64) -> u64 {
    base.wrapping_add((idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Poisson arrivals at `milli_rps` milli-requests/second.
pub fn poisson(milli_rps: u64) -> ArrivalPattern {
    ArrivalPattern::Exponential {
        mean: Dur(1_000_000_000_000 / milli_rps),
    }
}

/// Peak API-server pool size of a traced run; a pool that never moved
/// stayed at the provisioned baseline.
pub fn pool_peak(tel: &Telemetry, cfg: &PlatformConfig) -> i64 {
    tel.gauge_peak("monitor.pool_size")
        .unwrap_or(cfg.server.total_api_servers() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("short"));
        // columns align: "value" column starts at the same offset
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
    }

    /// Summarise `outcomes` over `window` and check the invariants every
    /// summary keeps: each request ends one way, and the percentiles are
    /// those of the sorted completed latencies.
    fn summarise(outcomes: &[(TraceOutcome, u64)], window: Dur) -> ArmSummary {
        let s = ArmSummary::of(
            outcomes.iter().map(|&(o, ms)| (o, Dur::from_millis(ms))),
            window,
        );
        assert_eq!(s.launched, outcomes.len() as u64);
        assert_eq!(s.launched, s.completed + s.shed + s.failed);
        let mut us: Vec<u64> = outcomes
            .iter()
            .filter(|(o, _)| *o == TraceOutcome::Completed)
            .map(|&(_, ms)| ms * 1_000)
            .collect();
        us.sort_unstable();
        assert_eq!(s.p50_e2e_us, percentile_permille(&us, 500));
        assert_eq!(s.p99_e2e_us, percentile_permille(&us, 990));
        s
    }

    #[test]
    fn arm_summary_of_nothing_is_all_zero() {
        assert_eq!(summarise(&[], Dur::ZERO), ArmSummary::default());
    }

    #[test]
    fn arm_summary_of_an_all_shed_arm_has_no_latency_or_goodput() {
        let shed = [(TraceOutcome::Shed, 0); 4];
        let s = summarise(&shed, Dur::from_secs(2));
        assert_eq!((s.launched, s.shed), (4, 4));
        assert_eq!((s.p50_e2e_us, s.p99_e2e_us, s.goodput_rps_milli), (0, 0, 0));
    }

    #[test]
    fn arm_summary_counts_only_completions_in_latency_and_goodput() {
        use TraceOutcome::{Completed, Failed, Shed};
        let mix = [
            (Completed, 300),
            (Shed, 0),
            (Completed, 100),
            (Failed, 5_000),
            (Completed, 200),
            (Shed, 0),
        ];
        let s = summarise(&mix, Dur::from_secs(2));
        assert_eq!((s.completed, s.shed, s.failed), (3, 2, 1));
        // The failed request's 5 s never reaches the tail.
        assert_eq!((s.p50_e2e_us, s.p99_e2e_us), (200_000, 300_000));
        // 3 completions over 2 s.
        assert_eq!(s.goodput_rps_milli, 1_500);
        // A zero window reports no goodput rather than dividing by zero.
        assert_eq!(summarise(&mix, Dur::ZERO).goodput_rps_milli, 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(12.345), "12.3s");
        assert_eq!(secs2(0.504), "0.50s");
        assert_eq!(rel(10.0, 8.0), "(-20%)");
        assert_eq!(rel(10.0, 12.5), "(+25%)");
        assert_eq!(rel(0.0, 1.0), "(n/a)");
    }
}
