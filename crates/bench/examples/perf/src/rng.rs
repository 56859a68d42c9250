//! The benchmark's own random source and input distributions.
//!
//! Inputs are generated here rather than with the program's RNG helpers,
//! so a change to the program cannot change what the benchmark feeds it:
//! the same `--seed` gives the same inputs on every commit.

/// xoshiro256** seeded through SplitMix64.
pub struct Rng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns a well-mixed word.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for input stream `stream` of seed `seed`; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut mix = stream;
        let mut state = seed ^ splitmix(&mut mix);
        Rng {
            s: [
                splitmix(&mut state),
                splitmix(&mut state),
                splitmix(&mut state),
                splitmix(&mut state),
            ],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An exponential gap with mean `mean_ns`, in nanoseconds.
    pub fn exp_ns(&mut self, mean_ns: u64) -> u64 {
        (-self.unit().ln() * mean_ns as f64) as u64
    }

    /// A log-normal duration with the given median and log-spread, in
    /// nanoseconds (at least 1).
    pub fn lognormal_ns(&mut self, median_ns: f64, sigma: f64) -> u64 {
        let z = (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos();
        ((median_ns * (sigma * z).exp()) as u64).max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// The input seed of replica `r` of a run at `seed`: replicas of one run
/// are independent, and so are the replicas of different seeds.
pub fn replica_seed(seed: u64, r: u64) -> u64 {
    let mut state = seed;
    let mut mixed = splitmix(&mut state);
    mixed ^= r;
    splitmix(&mut mixed)
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with skew `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank; rank 0 is the most likely.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
        assert_ne!(draw(42, 0), draw(43, 0));
        assert_eq!(replica_seed(42, 3), replica_seed(42, 3));
        assert_ne!(replica_seed(42, 3), replica_seed(42, 4));
        assert_ne!(replica_seed(42, 3), replica_seed(43, 3));
    }

    #[test]
    fn distributions_have_their_means() {
        let mut r = Rng::new(1, 0);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exp_ns(1_000_000)).sum::<u64>() as f64 / n as f64;
        assert!((mean / 1e6 - 1.0).abs() < 0.02, "exp mean {mean}");
        let mut l: Vec<u64> = (0..n).map(|_| r.lognormal_ns(2e6, 1.0)).collect();
        l.sort_unstable();
        let median = l[n / 2] as f64;
        assert!(
            (median / 2e6 - 1.0).abs() < 0.03,
            "lognormal median {median}"
        );
        let z = Zipf::new(64, 1.1);
        let hot = (0..n).filter(|_| z.sample(&mut r) == 0).count() as f64 / n as f64;
        assert!(hot > 0.15 && hot < 0.35, "zipf rank-0 share {hot}");
    }
}
