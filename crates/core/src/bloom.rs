//! Bloom filters for the index managers.
//!
//! The paper (Sec. II): "Index manager-resident Bloom filters can be
//! leveraged to quickly resolve read or exist queries for non-existent
//! keys." Each index manager owns one; negative answers skip the whole
//! index walk (including any flash-resident levels).
//!
//! Standard double-hashing construction: `k` probe positions derived from
//! two 32-bit halves of the 64-bit key hash.

use kvssd_sim::rng::mix64;

/// A fixed-size Bloom filter over 64-bit key hashes.
///
/// Deletions are not supported (real Bloom filters can't); the device
/// tolerates stale positives — they just cost an index lookup that ends
/// in not-found, exactly like a false positive.
///
/// The default filter holds no words and probes none (`k` = 0), so it
/// answers "maybe" for every hash: what is left where a filter's words
/// were taken for reuse.
#[derive(Debug, Clone, Default)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Builds a filter sized for `expected_keys` at `bits_per_key`
    /// (rounded up to a power-of-two bit count). `k` is chosen as
    /// `bits_per_key * ln 2`, clamped to `[1, 8]`.
    pub fn new(expected_keys: u64, bits_per_key: u32) -> Self {
        let (nbits, k) = Self::shape(expected_keys, bits_per_key);
        Self::from_words(vec![0; (nbits / 64) as usize], k)
    }

    /// [`Self::new`] over a recycled word buffer (see
    /// [`Self::into_words`]): `words` is cleared and zero-filled to the
    /// filter's size, so a buffer that large is not reallocated.
    pub fn with_words(expected_keys: u64, bits_per_key: u32, mut words: Vec<u64>) -> Self {
        let (nbits, k) = Self::shape(expected_keys, bits_per_key);
        words.clear();
        words.resize((nbits / 64) as usize, 0);
        Self::from_words(words, k)
    }

    /// The words [`Self::new`] gives a filter for `expected_keys`.
    pub fn words_for(expected_keys: u64, bits_per_key: u32) -> usize {
        (Self::shape(expected_keys, bits_per_key).0 / 64) as usize
    }

    /// The bit count and probe count of a filter for `expected_keys`.
    fn shape(expected_keys: u64, bits_per_key: u32) -> (u64, u32) {
        assert!(bits_per_key > 0, "need at least one bit per key");
        let want_bits = (expected_keys.max(1)).saturating_mul(bits_per_key as u64);
        let nbits = want_bits.next_power_of_two().max(64);
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 8);
        (nbits, k)
    }

    /// A filter over zeroed `words` (a power-of-two count of them).
    fn from_words(words: Vec<u64>, k: u32) -> Self {
        BloomFilter {
            mask: words.len() as u64 * 64 - 1,
            bits: words,
            k,
            inserted: 0,
        }
    }

    /// Gives the word buffer up, for a later [`Self::with_words`].
    pub fn into_words(self) -> Vec<u64> {
        self.bits
    }

    /// Inserts a key hash.
    pub fn insert(&mut self, hash: u64) {
        let (mut h, step) = Self::probes(hash);
        for _ in 0..self.k {
            let bit = h & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            h = h.wrapping_add(step);
        }
        self.inserted += 1;
    }

    /// True if the hash may have been inserted; false means definitely
    /// not present.
    pub fn may_contain(&self, hash: u64) -> bool {
        let (mut h, step) = Self::probes(hash);
        for _ in 0..self.k {
            let bit = h & self.mask;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(step);
        }
        true
    }

    /// Number of inserts performed.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Filter size in bits.
    pub fn bits(&self) -> u64 {
        self.mask + 1
    }

    /// The filter's bit array, 64 bits per word.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    fn probes(hash: u64) -> (u64, u64) {
        let h2 = mix64(hash) | 1; // odd step
        (hash, h2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_hash;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(10_000, 10);
        let hashes: Vec<u64> = (0..10_000u64)
            .map(|i| key_hash(format!("k{i}").as_bytes()))
            .collect();
        for &h in &hashes {
            f.insert(h);
        }
        for &h in &hashes {
            assert!(f.may_contain(h));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000u64 {
            f.insert(key_hash(format!("present{i}").as_bytes()));
        }
        let fp = (0..10_000u64)
            .filter(|i| f.may_contain(key_hash(format!("absent{i}").as_bytes())))
            .count();
        // 10 bits/key gives ~1 % theoretical FPR; allow 3 %.
        assert!(fp < 300, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(100, 10);
        for i in 0..1000u64 {
            assert!(!f.may_contain(key_hash(format!("x{i}").as_bytes())));
        }
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        let f = BloomFilter::new(1000, 10);
        assert!(f.bits().is_power_of_two());
        assert!(f.bits() >= 10_000);
    }

    #[test]
    fn recycled_words_build_the_same_filter() {
        let hashes: Vec<u64> = (0..300u64).map(|i| key_hash(&i.to_le_bytes())).collect();
        let mut dirty = BloomFilter::new(1_000, 10);
        hashes.iter().for_each(|&h| dirty.insert(h ^ 1));
        let mut fresh = BloomFilter::new(300, 10);
        let mut reused = BloomFilter::with_words(300, 10, dirty.into_words());
        for &h in &hashes {
            fresh.insert(h);
            reused.insert(h);
        }
        assert_eq!(reused.words(), fresh.words());
        assert_eq!((reused.bits(), reused.k), (fresh.bits(), fresh.k));
    }

    #[test]
    fn default_filter_answers_maybe() {
        let f = BloomFilter::default();
        assert!(f.words().is_empty());
        assert!((0..100u64).all(|h| f.may_contain(mix64(h))));
    }

    #[test]
    fn tracks_insert_count() {
        let mut f = BloomFilter::new(10, 10);
        f.insert(1);
        f.insert(2);
        assert_eq!(f.inserted(), 2);
    }
}
