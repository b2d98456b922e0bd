//! Log-bucketed latency histogram.
//!
//! An HdrHistogram-style structure: values are bucketed by (exponent,
//! mantissa-slice), giving a bounded relative error (~1.5 % with 64
//! sub-buckets) at any magnitude from nanoseconds to minutes, in constant
//! memory. This is what the experiment harness records every operation
//! latency into.

use std::fmt;

use crate::time::SimDuration;

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const BUCKETS: usize = 64 - SUB_BUCKET_BITS as usize; // enough for any u64

/// A latency histogram with percentile queries.
///
/// # Example
///
/// ```
/// use kvssd_sim::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((p50 - 50.0).abs() / 50.0 < 0.05, "p50 was {p50}");
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u32>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS * SUB_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let idx = Self::index_of(ns);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of all samples (exact, not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at the given percentile in `[0, 100]`, to bucket precision
    /// (~1.5 % relative error).
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c as u64;
            if seen >= target {
                return SimDuration::from_nanos(Self::value_of(idx).min(self.max_ns));
            }
        }
        self.max()
    }

    /// Merges `other` into `self` without allocating: both histograms
    /// have the same fixed bucket layout, so this is a pure element-wise
    /// add. Callers that aggregate many histograms repeatedly can keep
    /// one accumulator and `clear` + `merge_from` instead of rebuilding.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }

    /// Resets to empty in place, keeping the bucket storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }

    /// One-line summary used by the report tables.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "(no samples)".to_string();
        }
        format!(
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max()
        )
    }

    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let bucket = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = (ns >> (bucket as u32 - 1)) as usize - SUB_BUCKETS;
        debug_assert!(sub < SUB_BUCKETS);
        bucket * SUB_BUCKETS + sub
    }

    fn value_of(idx: usize) -> u64 {
        let bucket = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        if bucket == 0 {
            return sub as u64;
        }
        // Upper edge of the bucket (conservative for percentiles).
        ((SUB_BUCKETS + sub + 1) as u64) << (bucket - 1) as u32
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.summary(), "(no samples)");
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(us(10));
        h.record(us(20));
        h.record(us(90));
        assert_eq!(h.mean(), us(40));
        assert_eq!(h.min(), us(10));
        assert_eq!(h.max(), us(90));
    }

    #[test]
    fn percentiles_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 137));
        }
        for &p in &[10.0f64, 50.0, 90.0, 99.0, 99.9] {
            let exact = (p / 100.0 * 10_000.0).ceil() as u64 * 137;
            let got = h.percentile(p).as_nanos();
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.05, "p{p}: exact {exact} got {got} err {err}");
        }
    }

    #[test]
    fn p100_is_max() {
        let mut h = LatencyHistogram::new();
        h.record(us(3));
        h.record(us(7_000));
        assert_eq!(h.percentile(100.0), us(7_000));
    }

    #[test]
    fn tiny_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..SUB_BUCKETS as u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.percentile(0.0).as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(us(10));
        b.record(us(30));
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), us(20));
        assert_eq!(a.max(), us(30));
    }

    #[test]
    fn merge_from_then_clear_reuses_storage() {
        let mut acc = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        b.record(us(5));
        b.record(us(15));
        acc.merge_from(&b);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean(), us(10));
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), SimDuration::ZERO);
        acc.merge_from(&b);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.max(), us(15));
    }

    #[test]
    fn index_value_round_trip_monotone() {
        let mut last = 0;
        for exp in 0..40u32 {
            let v = 1u64 << exp;
            let idx = LatencyHistogram::index_of(v);
            assert!(idx >= last, "index must be monotone in value");
            last = idx;
            let upper = LatencyHistogram::value_of(idx);
            assert!(upper >= v);
            // Relative bucket width bound.
            assert!((upper - v) as f64 / v as f64 <= 0.04, "v={v} upper={upper}");
        }
    }
}
