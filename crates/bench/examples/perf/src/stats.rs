//! Order statistics and the output digest.

/// Nearest-rank percentile of an ascending slice, `q` in permyriad
/// (9_900 = p99). `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], q_permyriad: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = (n * q_permyriad).div_ceil(10_000).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

/// Median and quartiles of a sample, computed as Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) compute them, so the numbers here match
/// what an outside reader gets from the same samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (at least one).
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut d = values.to_vec();
        d.sort_by(f64::total_cmp);
        let n = d.len();
        let median = if n % 2 == 1 {
            d[n / 2]
        } else {
            (d[n / 2 - 1] + d[n / 2]) / 2.0
        };
        if n == 1 {
            return Quartiles {
                q1: d[0],
                median,
                q3: d[0],
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median,
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// FNV-1a over a sequence of 64-bit words (little-endian bytes).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 5_000), None);
        assert_eq!(nearest_rank(&[7], 5_000), Some(7));
        assert_eq!(nearest_rank(&[7], 9_900), Some(7));
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(nearest_rank(&v, 5_000), Some(500));
        assert_eq!(nearest_rank(&v, 9_900), Some(990));
        assert_eq!(v.len() - 990, 10, "ten samples lie beyond p99 at n = 1000");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        let q = Quartiles::of(&[4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.spread()), (4.0, 4.0, 4.0, 0.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
        assert_eq!(fnv1a([1, 2]), fnv1a([1, 2]));
    }
}
