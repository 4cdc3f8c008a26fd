//! Streaming latency statistics.

/// A log-bucketed latency histogram: cheap to update per operation, good
/// enough for percentile reporting (each bucket covers one power of two of
/// nanoseconds, so percentiles are exact to within 2×).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Create an empty histogram (64 power-of-two buckets).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        // 0 has 64 leading zeros (bucket 0); values ≥ 2^63 have none and
        // must clamp into the top bucket, not wrap back to bucket 0.
        ((64 - ns.leading_zeros()) as usize).min(63)
    }

    /// Record one latency.
    pub fn push(&mut self, latency: crate::SimDuration) {
        let ns = latency.as_nanos();
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency.
    pub fn mean(&self) -> crate::SimDuration {
        self.sum_ns
            .checked_div(self.count)
            .map(crate::SimDuration::from_nanos)
            .unwrap_or(crate::SimDuration::ZERO)
    }

    /// Largest observation.
    pub fn max(&self) -> crate::SimDuration {
        crate::SimDuration::from_nanos(self.max_ns)
    }

    /// Exact sum of all observations (not reconstructed from the mean).
    pub fn sum(&self) -> crate::SimDuration {
        crate::SimDuration::from_nanos(self.sum_ns)
    }

    /// Approximate percentile (`0.0..=1.0`).
    ///
    /// # Semantics (pinned by tests)
    ///
    /// Bucket `i` holds observations in `[2^(i-1), 2^i)` (bucket 0 holds
    /// exactly 0 ns; bucket 63 absorbs everything ≥ 2^62 ns). The returned
    /// value is the **inclusive upper bound** of the bucket containing the
    /// p-th observation — `2^i − 1` — clamped to the largest observation
    /// actually recorded ([`max`](LatencyHistogram::max)). Consequences:
    ///
    /// * the result *over*-estimates the true percentile by at most 2×
    ///   (never under-estimates it below the bucket's lower bound),
    /// * `percentile(1.0)` equals `max()` exactly,
    /// * an exact power of two `2^k` lands in bucket `k+1`, so its
    ///   unclamped upper bound is `2^(k+1) − 1`,
    /// * `percentile(0.0)` behaves like the minimum's bucket (rank is
    ///   clamped to 1), and an empty histogram returns 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> crate::SimDuration {
        assert!((0.0..=1.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return crate::SimDuration::ZERO;
        }
        let rank = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // bucket i holds values in [2^(i-1), 2^i)
                let upper = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                return crate::SimDuration::from_nanos(upper.min(self.max_ns));
            }
        }
        self.max()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_percentiles() {
        use crate::SimDuration;
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.push(SimDuration::from_micros(100)); // bucket ~2^17
        }
        for _ in 0..10 {
            h.push(SimDuration::from_millis(10)); // bucket ~2^24
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.5);
        assert!(
            p50 >= SimDuration::from_micros(100) && p50 < SimDuration::from_micros(300),
            "{p50}"
        );
        let p99 = h.percentile(0.99);
        assert!(p99 >= SimDuration::from_millis(10), "{p99}");
        assert_eq!(h.max(), SimDuration::from_millis(10));
        let mean = h.mean().as_secs_f64();
        assert!((mean - (90.0 * 100e-6 + 10.0 * 10e-3) / 100.0).abs() < 1e-5);
    }

    #[test]
    fn latency_histogram_merge() {
        use crate::SimDuration;
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.push(SimDuration::from_micros(1));
        b.push(SimDuration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_millis(1));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.99), crate::SimDuration::ZERO);
        assert_eq!(h.mean(), crate::SimDuration::ZERO);
    }

    /// The property the telemetry summarizer relies on: merging per-node
    /// histograms yields the same percentiles as one histogram fed all
    /// observations (bucket counts add exactly).
    #[test]
    fn histogram_merge_preserves_percentiles() {
        use crate::SimDuration;
        let mut whole = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        for i in 0..400u64 {
            let lat = SimDuration::from_nanos(37 + i * i * 13);
            whole.push(lat);
            parts[(i % 4) as usize].push(lat);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.percentile(p), whole.percentile(p));
        }
        assert_eq!(merged.sum(), whole.sum());
    }

    /// Regression: latencies ≥ 2^63 ns used to wrap to bucket 0 via `% 64`,
    /// corrupting percentiles. Every boundary value must land in a bucket
    /// whose upper bound covers it.
    #[test]
    fn histogram_bucket_boundaries_do_not_wrap() {
        use crate::SimDuration;
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of((1u64 << 63) - 1), 63);
        assert_eq!(LatencyHistogram::bucket_of(1u64 << 63), 63);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
        for ns in [0u64, 1, (1u64 << 63) - 1, 1u64 << 63, u64::MAX] {
            let mut h = LatencyHistogram::new();
            h.push(SimDuration::from_nanos(ns));
            assert_eq!(h.count(), 1);
            // a single observation: its bucket's upper bound clamps to max_ns
            assert_eq!(h.percentile(1.0), SimDuration::from_nanos(ns), "{ns} ns");
        }
    }

    /// Pins the documented percentile contract at bucket boundaries: the
    /// result is the containing bucket's inclusive upper bound `2^i − 1`,
    /// clamped to the recorded maximum.
    #[test]
    fn percentile_returns_bucket_upper_bound_clamped_to_max() {
        use crate::SimDuration;
        // an exact power of two lands in the *next* bucket: 1024 → bucket 11
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.push(SimDuration::from_nanos(1000)); // bucket 10: [512, 1024)
        }
        h.push(SimDuration::from_nanos(100_000)); // bucket 17: [65536, 131072)
                                                  // p50 sits in bucket 10, whose upper bound is 2^10 − 1 = 1023; the
                                                  // clamp to max_ns (100 000) does not bite
        assert_eq!(h.percentile(0.5), SimDuration::from_nanos(1023));
        // p100 sits in bucket 17 (upper bound 131 071) and clamps to the max
        assert_eq!(h.percentile(1.0), SimDuration::from_nanos(100_000));
        assert_eq!(h.percentile(1.0), h.max());
        // a histogram of one value: every percentile is that value's clamp
        let mut one = LatencyHistogram::new();
        one.push(SimDuration::from_nanos(700)); // bucket 10, upper bound 1023
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(p), SimDuration::from_nanos(700), "p={p}");
        }
        assert!(!one.is_empty());
        assert!(LatencyHistogram::new().is_empty());
    }
}
