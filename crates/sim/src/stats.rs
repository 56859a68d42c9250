//! Small statistics helpers used by the experiment harness.

/// Summary statistics over a sample of `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl Summary {
    /// Compute summary statistics; returns an all-zero summary for an empty
    /// sample.
    pub fn from(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                sum: 0.0,
            };
        }
        let n = samples.len();
        let sum: f64 = samples.iter().sum();
        let mean = sum / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            sum,
        }
    }
}

/// Nearest-rank percentile over a pre-sorted sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Nearest-rank percentile of an ascending integer sample, `q` in permille:
/// the element at rank ⌈n·q/1000⌉, clamped to `[1, n]`. An empty sample
/// yields 0. Integer arithmetic only, so it is safe inside byte-deterministic
/// exports.
pub fn percentile_permille(sorted: &[u64], q_permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u128;
    let rank = (n * u128::from(q_permille)).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Jain's fairness index over `xs`, in permille: `(Σx)² / (n·Σx²)`.
/// 1000 means every party gets the same value; 1000/n means one party gets
/// everything. All-zero input is vacuously fair. Integer arithmetic only,
/// so it is safe inside byte-deterministic exports.
pub fn jain_permille(xs: &[u64]) -> u64 {
    let n = xs.len() as u128;
    if n == 0 {
        return 1000;
    }
    let s: u128 = xs.iter().map(|&x| x as u128).sum();
    let s2: u128 = xs.iter().map(|&x| (x as u128) * (x as u128)).sum();
    if s2 == 0 {
        return 1000;
    }
    ((s * s * 1000) / (n * s2)) as u64
}

/// Simple centered-window-free moving average (trailing window of size `w`),
/// matching the paper's "moving average window of size 5" for Figure 7.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    if w == 0 || xs.is_empty() {
        return xs.to_vec();
    }
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        acc += x;
        if i >= w {
            acc -= xs[i - w];
        }
        let len = (i + 1).min(w);
        out.push(acc / len as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.sum - 10.0).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::from(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.95), 95.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
    }

    #[test]
    fn percentiles_on_empty_input_are_zero() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_sorted(&[], q), 0.0);
        }
    }

    #[test]
    fn percentiles_on_single_sample_return_it_for_every_q() {
        // Nearest rank clamps to rank 1, including at the q=0 boundary and
        // out-of-range q values.
        for q in [-0.5, 0.0, 0.001, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(percentile_sorted(&[7.5], q), 7.5);
        }
        let s = Summary::from(&[7.5]);
        assert_eq!((s.n, s.min, s.max), (1, 7.5, 7.5));
        assert_eq!((s.p50, s.p95, s.p99), (7.5, 7.5, 7.5));
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn q_boundaries_clamp_to_first_and_last_rank() {
        let sorted = [10.0, 20.0, 30.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 30.0);
        // Values outside [0,1] clamp rather than indexing out of bounds.
        assert_eq!(percentile_sorted(&sorted, -1.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 42.0), 30.0);
    }

    #[test]
    fn permille_percentiles_are_nearest_rank() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_permille(&v, 500), 50);
        assert_eq!(percentile_permille(&v, 990), 100);
        assert_eq!(percentile_permille(&v, 999), 100);
        assert_eq!(percentile_permille(&v, 1000), 100);
        assert_eq!(percentile_permille(&v, 0), 10, "q = 0 clamps to rank 1");
        assert_eq!(
            percentile_permille(&v, 5000),
            100,
            "q > 1000 clamps to rank n"
        );
        let odd = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile_permille(&odd, 500), 30);
        assert_eq!(percentile_permille(&odd, 990), 50);
        assert_eq!(percentile_permille(&[], 500), 0);
        assert_eq!(percentile_permille(&[7], 999), 7);
        assert_eq!(percentile_permille(&[u64::MAX; 3], u64::MAX), u64::MAX);
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_permille(&[500, 500]), 1000, "equal shares are fair");
        assert_eq!(
            jain_permille(&[800, 0]),
            500,
            "starvation halves 2-tenant J"
        );
        assert_eq!(jain_permille(&[]), 1000);
        assert_eq!(jain_permille(&[0, 0]), 1000);
        let j = jain_permille(&[900, 300]);
        assert!(j > 500 && j < 1000, "skew lands between: {j}");
    }

    #[test]
    fn moving_average_window() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ma = moving_average(&xs, 2);
        assert_eq!(ma, vec![0.0, 0.5, 1.5, 2.5, 3.5]);
        // window 0 or empty input: identity
        assert_eq!(moving_average(&xs, 0), xs.to_vec());
        assert!(moving_average(&[], 5).is_empty());
    }
}
