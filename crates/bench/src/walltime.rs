//! The workspace's **only** wall-clock window.
//!
//! Everything the simulator models runs in virtual time ([`kvssd_sim::SimTime`])
//! so that every figure is a pure function of its seeds — the property the
//! `determinism`/`golden_digests` suites and the paper's
//! "same substrate, two firmwares" comparison depend on. Real clocks are
//! still needed in exactly one place: reporting how long the *simulator
//! itself* takes on the host (the per-cell scheduler timings behind
//! `repro_all --timings`, and the repo benchmark under `benchmark/`).
//! Those numbers describe the host, never the modeled device, and feed no
//! experiment table.
//!
//! `kvlint`'s `no-wall-clock` rule forbids `std::time::{Instant, SystemTime}`
//! everywhere except this file, so any new timing need must either route
//! through [`Stopwatch`] or argue its case in a `// kvlint: allow` pragma.

use std::time::Instant;

/// A running wall-clock timer. Construct with [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds of host wall-clock elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
