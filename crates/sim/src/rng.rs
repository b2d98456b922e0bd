//! Deterministic randomness for workloads.
//!
//! Everything in the study must be reproducible run-to-run, so all
//! randomness flows through a seeded [`DeterministicRng`]. The generator
//! is an in-repo xoshiro256** (Blackman & Vigna) seeded through a
//! SplitMix64 stream, so the workspace builds with zero external
//! dependencies and the streams are stable across toolchains. The crate
//! also implements the Zipfian distribution (the paper's skewed access
//! pattern) using the classic Gray et al. rejection-free method, plus a
//! cheap stateless `u64 -> u64` mixer used for hash-like deterministic
//! choices.

/// A seeded PRNG with convenience helpers.
///
/// xoshiro256** with SplitMix64 seed expansion: 256 bits of state, a
/// 2^256 - 1 period, and no external dependency. The wrapper API is the
/// contract — the engine underneath stays swappable.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 stream expands the seed into full 256-bit state;
        // mix64(x) computes exactly one SplitMix64 step from state x.
        let mut s = seed;
        let mut next = || {
            let out = mix64(s);
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        let state = [next(), next(), next(), next()];
        DeterministicRng { state }
    }

    /// Uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's unbiased multiply-shift rejection method.
        let mut m = self.next_u64() as u128 * bound as u128;
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * bound as u128;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi]` inclusive.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "between: lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Raw 64 random bits (xoshiro256** output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// SplitMix64 finalizer: a stateless, well-mixed `u64 -> u64` permutation.
///
/// Used wherever the simulator needs a deterministic pseudo-random choice
/// keyed by an identifier (e.g. "is index segment `s` DRAM-resident?").
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// [`mix64`]-chained fold over `bytes` from the FNV-1a offset basis: the
/// digest the golden tests pin rendered tables and reports with.
pub fn digest64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |d, &b| mix64(d ^ u64::from(b)))
}

/// Zipfian distribution over `[0, n)` with parameter `theta` (Gray et al.,
/// SIGMOD '94 — the YCSB generator). Rank 0 is the hottest item.
///
/// # Example
///
/// ```
/// use kvssd_sim::{DeterministicRng, ZipfianDistribution};
///
/// let zipf = ZipfianDistribution::new(1_000, 0.99);
/// let mut rng = DeterministicRng::seed_from(7);
/// let mut hot = 0u32;
/// for _ in 0..1_000 {
///     if zipf.sample(&mut rng) < 10 {
///         hot += 1;
///     }
/// }
/// // The hottest 1% of items draw far more than 1% of accesses.
/// assert!(hot > 100);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfianDistribution {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

/// `(n, theta bits, zetan, eta)` of the last distribution this thread
/// built. A benchmark builds one per phase over the same key count, and
/// `zetan` is a sum of `n` powers: 10.7 ms at 551 349 items. Plain `Copy`
/// data, so the slot never registers a destructor or allocates.
type ZipfMemo = Option<(u64, u64, f64, f64)>;

std::thread_local! {
    static LAST_ZIPF: std::cell::Cell<ZipfMemo> = const { std::cell::Cell::new(None) };
}

impl ZipfianDistribution {
    /// Builds the distribution for `n` items and skew `theta` in `(0, 1)`.
    ///
    /// `theta` near 0 approaches uniform; the YCSB default is `0.99`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipfian needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let (zetan, eta) = match LAST_ZIPF.get() {
            Some((m, t, zetan, eta)) if (m, t) == (n, theta.to_bits()) => (zetan, eta),
            _ => {
                let zetan = Self::zeta(n, theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                LAST_ZIPF.set(Some((n, theta.to_bits(), zetan, eta)));
                (zetan, eta)
            }
        };
        ZipfianDistribution {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `[0, n)`; smaller ranks are hotter.
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; for large n use the Euler–Maclaurin
        // approximation so construction stays O(1) even at billions of
        // items (the paper's key populations reach 3 billion).
        const EXACT_LIMIT: u64 = 10_000_000;
        if n <= EXACT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_LIMIT)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // integral_{EXACT_LIMIT}^{n} x^-theta dx
            let a = EXACT_LIMIT as f64;
            let b = n as f64;
            let tail = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// For diagnostics: expected probability of the hottest item.
    pub fn p_first(&self) -> f64 {
        let _ = self.zeta2; // keep field used in non-test builds
        1.0 / self.zetan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = DeterministicRng::seed_from(42);
        let mut b = DeterministicRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DeterministicRng::seed_from(1);
        for _ in 0..1_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn between_is_inclusive() {
        let mut rng = DeterministicRng::seed_from(1);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.between(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn mix64_is_a_permutation_sample() {
        // Distinct inputs keep distinct outputs on a sample.
        let mut seen = crate::PrehashedSet::default();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 10_000;
        let zipf = ZipfianDistribution::new(n, 0.99);
        let mut rng = DeterministicRng::seed_from(9);
        let mut counts = vec![0u32; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng) as usize;
            counts[r] += 1;
        }
        // Hottest 1% of items should get a large share (> 30%) of draws.
        let hot: u32 = counts[..(n as usize / 100)].iter().sum();
        assert!(
            hot as f64 / draws as f64 > 0.30,
            "hot share {}",
            hot as f64 / draws as f64
        );
        // And rank 0 should be the single hottest item, roughly matching
        // its theoretical probability.
        let p0 = counts[0] as f64 / draws as f64;
        assert!((p0 - zipf.p_first()).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    fn memoised_zipf_is_bit_identical_to_a_cold_build() {
        let pairs = [
            (50_000, 0.99),
            (1_000, 0.5),
            (50_000, 0.99),
            (50_000, 0.8),
            (7, 0.99),
        ];
        for &(n, theta) in pairs.iter().cycle().take(3 * pairs.len()) {
            // Built while the memo holds the previous pair's, then from
            // the memo, then with it empty.
            let after_other = ZipfianDistribution::new(n, theta);
            let memo = ZipfianDistribution::new(n, theta);
            assert_eq!(
                LAST_ZIPF.get().map(|m| (m.0, m.1)),
                Some((n, theta.to_bits()))
            );
            LAST_ZIPF.set(None);
            let cold = ZipfianDistribution::new(n, theta);
            let bits = |z: &ZipfianDistribution| (z.zetan.to_bits(), z.eta.to_bits());
            for z in [&after_other, &memo] {
                assert_eq!(bits(z), bits(&cold), "n {n} theta {theta}");
                let (mut a, mut b) = (
                    DeterministicRng::seed_from(n),
                    DeterministicRng::seed_from(n),
                );
                for _ in 0..1_000 {
                    assert_eq!(z.sample(&mut a), cold.sample(&mut b));
                }
            }
        }
    }

    #[test]
    fn zipf_low_theta_is_flat_ish() {
        let n = 1_000;
        let zipf = ZipfianDistribution::new(n, 0.01);
        let mut rng = DeterministicRng::seed_from(3);
        let mut hot = 0u32;
        let draws = 100_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) < n / 100 {
                hot += 1;
            }
        }
        // Near-uniform: the hottest 1% draws close to 1%.
        assert!((hot as f64 / draws as f64) < 0.05);
    }

    #[test]
    fn zeta_approximation_is_close() {
        // Compare exact vs approximate at the switchover boundary.
        let exact = ZipfianDistribution::zeta(10_000_000, 0.99);
        let approx_input = 10_000_001;
        let approx = ZipfianDistribution::zeta(approx_input, 0.99);
        assert!(approx > exact);
        assert!((approx - exact) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        let _ = ZipfianDistribution::new(10, 1.5);
    }
}
