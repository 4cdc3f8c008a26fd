//! Deterministic random number generation for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source with the distribution helpers the file-system
/// models need (service-time jitter, exponential think times).
///
/// Every experiment binary constructs its `DetRng` from a fixed seed so runs
/// are reproducible bit-for-bit (paper §3.2.6 — retrospective analysis
/// requires that a run can be explained after the fact; determinism makes
/// simulated runs *exactly* re-creatable).
///
/// # Example
///
/// ```
/// use simcore::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// A multiplicative jitter factor in `[1 - spread, 1 + spread]`, for
    /// adding realistic noise to service times.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not in `[0, 1)`.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
        if spread == 0.0 {
            1.0
        } else {
            self.uniform(1.0 - spread, 1.0 + spread)
        }
    }

    /// Bernoulli trial.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = DetRng::new(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn jitter_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let j = r.jitter(0.2);
            assert!((0.8..=1.2).contains(&j));
        }
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let v = r.uniform(3.0, 4.0);
            assert!((3.0..4.0).contains(&v));
        }
    }
}
