//! Virtual-time primitives.
//!
//! All simulated activity is stamped with a [`SimTime`] (nanoseconds since
//! simulation start) and separated by [`SimDuration`]s. Both are thin
//! wrappers over `u64` with saturating-free, panic-on-overflow arithmetic —
//! an overflow would mean a simulation bug, not a value to clamp.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[must_use = "an instant some work completes at: use it, or bind it and say who pays for it"]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`; that indicates a causality bug
    /// in a device model.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({}) is after self ({})",
            earlier,
            self
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Duration for transferring `bytes` at `bytes_per_sec`.
    ///
    /// Rounds up to a whole nanosecond so a nonzero transfer never costs
    /// zero time.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // Every transfer the simulator models (up to ~18 GB) has a
        // nanosecond product that fits a u64, and a u64 division is far
        // cheaper than the u128 one; both give the same ceiling.
        let ns = if bytes <= u64::MAX / 1_000_000_000 {
            (bytes * 1_000_000_000).div_ceil(bytes_per_sec)
        } else {
            (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128) as u64
        };
        SimDuration(ns)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 3 bytes/s takes ceil(1e9 / 3) ns.
        let d = SimDuration::for_bytes(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
        assert_eq!(SimDuration::for_bytes(0, 1_000), SimDuration::ZERO);
    }

    /// `u64::MAX / 1e9` rounded down: the largest byte count whose
    /// nanosecond product fits a `u64`.
    const PRODUCT_FITS: u64 = 18_446_744_073;

    /// `(bytes, bytes_per_sec, ns)` as `for_bytes` returned them before
    /// it gained a `u64` fast path, never re-pinned since. Products past
    /// `u64::MAX` are kept as the final `as u64` cast truncates them.
    const FOR_BYTES_REFERENCE: [(u64, u64, u64); 36] = [
        (0, 1, 0),
        (0, 1_000_000, 0),
        (0, 6_000_000_000, 0),
        (0, u64::MAX, 0),
        (1, 1, 1_000_000_000),
        (1, 1_000_000, 1_000),
        (1, 6_000_000_000, 1),
        (1, u64::MAX, 1),
        (64, 1, 64_000_000_000),
        (64, 1_000_000, 64_000),
        (64, 6_000_000_000, 11),
        (64, u64::MAX, 1),
        (4_096, 1, 4_096_000_000_000),
        (4_096, 1_000_000, 4_096_000),
        (4_096, 6_000_000_000, 683),
        (4_096, u64::MAX, 1),
        (1 << 20, 1, 1_048_576_000_000_000),
        (1 << 20, 1_000_000, 1_048_576_000),
        (1 << 20, 6_000_000_000, 174_763),
        (1 << 20, u64::MAX, 1),
        (PRODUCT_FITS - 1, 1, 18_446_744_072_000_000_000),
        (PRODUCT_FITS - 1, 1_000_000, 18_446_744_072_000),
        (PRODUCT_FITS - 1, 6_000_000_000, 3_074_457_346),
        (PRODUCT_FITS - 1, u64::MAX, 1),
        (PRODUCT_FITS, 1, 18_446_744_073_000_000_000),
        (PRODUCT_FITS, 1_000_000, 18_446_744_073_000),
        (PRODUCT_FITS, 6_000_000_000, 3_074_457_346),
        (PRODUCT_FITS, u64::MAX, 1),
        (PRODUCT_FITS + 1, 1, 290_448_384),
        (PRODUCT_FITS + 1, 1_000_000, 18_446_744_074_000),
        (PRODUCT_FITS + 1, 6_000_000_000, 3_074_457_346),
        (PRODUCT_FITS + 1, u64::MAX, 2),
        (u64::MAX, 1, 18_446_744_072_709_551_616),
        (u64::MAX, 1_000_000, 18_446_744_073_709_550_616),
        (u64::MAX, 6_000_000_000, 3_074_457_345_618_258_603),
        (u64::MAX, u64::MAX, 1_000_000_000),
    ];

    /// The fold of `for_bytes` over `for_bytes_sweep`'s seeded inputs,
    /// taken on the same code as the table above.
    const FOR_BYTES_SWEEP_DIGEST: u64 = 0x956c_92fc_fd0d_cc52;

    /// Folds `for_bytes` over 200 000 seeded `(bytes, bytes_per_sec)`
    /// pairs: small and page-sized transfers, the neighbourhood of
    /// [`PRODUCT_FITS`], and the whole `u64` range, at link-like and
    /// arbitrary bandwidths.
    fn for_bytes_sweep() -> u64 {
        let mut rng = crate::rng::DeterministicRng::seed_from(0x00F0_B7E5);
        let mut digest = 0;
        for _ in 0..200_000 {
            let bytes = match rng.below(4) {
                0 => rng.below(1 << 13),
                1 => rng.below(1 << 30),
                2 => PRODUCT_FITS - 1_000 + rng.below(2_001),
                _ => rng.next_u64(),
            };
            let bytes_per_sec = match rng.below(3) {
                0 => [1, 1_000_000, 3_200_000_000, 6_000_000_000, u64::MAX][rng.below(5) as usize],
                1 => rng.between(1, 1 << 40),
                _ => rng.between(1, u64::MAX),
            };
            let ns = SimDuration::for_bytes(bytes, bytes_per_sec).as_nanos();
            digest = crate::rng::mix64(digest ^ ns);
        }
        digest
    }

    #[test]
    fn for_bytes_matches_its_pinned_outputs() {
        for (bytes, bytes_per_sec, ns) in FOR_BYTES_REFERENCE {
            assert_eq!(
                SimDuration::for_bytes(bytes, bytes_per_sec).as_nanos(),
                ns,
                "{bytes} B at {bytes_per_sec} B/s"
            );
        }
        assert_eq!(for_bytes_sweep(), FOR_BYTES_SWEEP_DIGEST);
    }

    #[test]
    fn for_bytes_realistic_bandwidth() {
        // 4 KiB over 3.2 GB/s PCIe is ~1.28 us.
        let d = SimDuration::for_bytes(4096, 3_200_000_000);
        assert!((d.as_micros_f64() - 1.28).abs() < 0.01, "got {d}");
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_causality_violation() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn duration_sum_and_scale() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&n| SimDuration::from_nanos(n))
            .sum();
        assert_eq!(total.as_nanos(), 6);
        assert_eq!((SimDuration::from_nanos(6) / 2).as_nanos(), 3);
        assert_eq!((SimDuration::from_nanos(6) * 2).as_nanos(), 12);
    }
}
