//! Windowed bandwidth time series.
//!
//! The paper's Figs. 5–6 and 8 report device bandwidth over time or per
//! configuration. [`BandwidthSeries`] buckets completed bytes into fixed
//! virtual-time windows so a run can be rendered as a `MB/s` series and
//! drops (e.g. foreground GC stalls) show up as low-valued windows.

use crate::time::{SimDuration, SimTime};

/// One reporting window of a bandwidth series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Start of the window.
    pub at: SimTime,
    /// Bytes completed during the window.
    pub bytes: u64,
    /// Operations completed during the window.
    pub ops: u64,
    /// Mean bandwidth across the window in MB/s (decimal megabytes).
    pub mbps: f64,
}

/// Buckets completed I/O bytes into fixed-width virtual-time windows.
#[derive(Debug, Clone)]
pub struct BandwidthSeries {
    window: SimDuration,
    /// `(bytes, ops)` completed in each window.
    buckets: Vec<(u64, u64)>,
    total_bytes: u64,
    last_at: SimTime,
}

impl BandwidthSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        BandwidthSeries {
            window,
            buckets: Vec::new(),
            total_bytes: 0,
            last_at: SimTime::ZERO,
        }
    }

    /// Records `bytes` completed at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, (0, 0));
        }
        let w = &mut self.buckets[idx];
        w.0 += bytes;
        w.1 += 1;
        self.total_bytes += bytes;
        self.last_at = self.last_at.max(at);
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Overall mean bandwidth in MB/s from t=0 to the last completion.
    pub fn mean_mbps(&self) -> f64 {
        let secs = self.last_at.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / secs
    }

    /// The per-window series (includes empty windows between activity).
    pub fn points(&self) -> Vec<BandwidthPoint> {
        let wsec = self.window.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &(bytes, ops))| BandwidthPoint {
                at: SimTime::from_nanos(i as u64 * self.window.as_nanos()),
                bytes,
                ops,
                mbps: bytes as f64 / 1e6 / wsec,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn buckets_by_window() {
        let mut s = BandwidthSeries::new(ms(10));
        s.record(SimTime::ZERO + ms(1), 1_000);
        s.record(SimTime::ZERO + ms(5), 2_000);
        s.record(SimTime::ZERO + ms(15), 4_000);
        let p = s.points();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].bytes, 3_000);
        assert_eq!(p[0].ops, 2);
        assert_eq!(p[1].bytes, 4_000);
        // 4000 bytes in a 10 ms window = 0.4 MB/s.
        assert!((p[1].mbps - 0.4).abs() < 1e-9);
    }

    #[test]
    fn mean_uses_elapsed_time() {
        let mut s = BandwidthSeries::new(ms(10));
        s.record(SimTime::ZERO + SimDuration::from_secs(1), 10_000_000);
        assert!((s.mean_mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gaps_show_as_empty_windows() {
        let mut s = BandwidthSeries::new(ms(10));
        s.record(SimTime::ZERO + ms(1), 100);
        s.record(SimTime::ZERO + ms(35), 100);
        let p = s.points();
        assert_eq!(p.len(), 4);
        assert_eq!(p[1].bytes, 0);
        assert_eq!(p[2].bytes, 0);
    }

    #[test]
    fn empty_series_behaves() {
        let s = BandwidthSeries::new(ms(10));
        assert_eq!(s.mean_mbps(), 0.0);
        assert!(s.points().is_empty());
    }
}
