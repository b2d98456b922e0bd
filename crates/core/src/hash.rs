//! Key hashing, implemented in-repo.
//!
//! The KV-FTL's defining move is transforming variable-length keys into
//! fixed-length key hashes before any index or placement decision — which
//! is exactly why sequential key order stops mattering (Sec. IV, "Impact
//! of key-value indexing"). We use a 64-bit FNV-1a core with a SplitMix64
//! finalizer for the primary hash, and an independently seeded variant as
//! a fingerprint for collision verification (the device never stores full
//! keys in its global index).

use kvssd_sim::rng::mix64;

/// FNV-1a offset basis of the primary hash.
const HASH_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Offset basis of the fingerprint's independently seeded chain.
const FP_BASIS: u64 = 0x6c62_272e_07bb_0142;
/// Folded into the fingerprint chain before its finalizer.
const FP_TWEAK: u64 = 0x9E37_79B9_7F4A_7C15;
/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Primary 64-bit key hash (FNV-1a + finalizer).
pub fn key_hash(key: &[u8]) -> u64 {
    count_pass();
    mix64(fnv1a(key, HASH_BASIS))
}

/// Independent 64-bit fingerprint used to verify identity on hash-slot
/// collisions.
pub fn key_fingerprint(key: &[u8]) -> u64 {
    count_pass();
    mix64(fnv1a(key, FP_BASIS) ^ FP_TWEAK)
}

/// A key's identity, `(key_hash, key_fingerprint)`: what the device's
/// global index, a cluster shard's key registry and the ring need of a
/// key. Computed once per operation at the API edge ([`KeyId::of`]) and
/// handed down, so no layer below rehashes the key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId {
    /// [`key_hash`] of the key.
    pub hash: u64,
    /// [`key_fingerprint`] of the key.
    pub fp: u64,
}

impl KeyId {
    /// The key's hash and fingerprint, in one pass that runs both FNV-1a
    /// chains side by side; bit-identical to calling [`key_hash`] and
    /// [`key_fingerprint`].
    #[inline]
    pub fn of(key: &[u8]) -> Self {
        count_pass();
        Self::compute(key)
    }

    /// True when this is `key`'s id. Makes no counted pass, so debug
    /// assertions can check an id handed in without moving
    /// [`key_passes`].
    pub fn is_of(self, key: &[u8]) -> bool {
        self == Self::compute(key)
    }

    #[inline]
    fn compute(key: &[u8]) -> Self {
        let (mut h, mut f) = (HASH_BASIS, FP_BASIS);
        for &b in key {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            f = (f ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        KeyId {
            hash: mix64(h),
            fp: mix64(f ^ FP_TWEAK),
        }
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline(always)]
fn count_pass() {
    #[cfg(debug_assertions)]
    PASSES.with(|n| n.set(n.get() + 1));
}

/// Hash passes over key bytes made on this thread so far: one per
/// [`key_hash`], [`key_fingerprint`] or [`KeyId::of`] call. Debug builds
/// only; tests read it to check that a layer hashes a key once per
/// operation, however many replicas, retries or hedges it crosses.
#[cfg(debug_assertions)]
pub fn key_passes() -> u64 {
    PASSES.with(std::cell::Cell::get)
}

/// The iterator-bucket id: the first four key bytes, zero-padded — the
/// paper notes keys are grouped for iteration "based on the first 4 bytes
/// of the key".
pub fn iter_bucket(key: &[u8]) -> [u8; 4] {
    let mut b = [0u8; 4];
    let n = key.len().min(4);
    b[..n].copy_from_slice(&key[..n]);
    b
}

fn fnv1a(data: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::PrehashedSet;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(key_hash(b"hello"), key_hash(b"hello"));
        assert_ne!(key_hash(b"hello"), key_hash(b"hellp"));
    }

    #[test]
    fn hash_and_fingerprint_are_independent() {
        // Equal hashes never imply equal fingerprints structurally.
        assert_ne!(key_hash(b"k1"), key_fingerprint(b"k1"));
    }

    #[test]
    fn sequential_keys_hash_to_scattered_values() {
        // The core premise of the paper's Fig. 2 analysis: key order is
        // destroyed by hashing. Check that consecutive keys do not land
        // in consecutive hash space.
        let hashes: Vec<u64> = (0..1000u64)
            .map(|i| key_hash(format!("key{i:012}").as_bytes()))
            .collect();
        let mut adjacent = 0;
        for w in hashes.windows(2) {
            if w[1].wrapping_sub(w[0]) < (u64::MAX / 1000) {
                adjacent += 1;
            }
        }
        assert!(adjacent < 10, "{adjacent} sequential pairs stayed adjacent");
    }

    #[test]
    fn no_collisions_on_100k_keys() {
        let mut seen = PrehashedSet::default();
        for i in 0..100_000u64 {
            assert!(seen.insert(key_hash(format!("user.{i}").as_bytes())));
        }
    }

    #[test]
    fn hash_distributes_over_managers() {
        // Manager dispatch uses `hash % n`; check rough uniformity.
        let mut counts = [0u32; 4];
        for i in 0..100_000u64 {
            counts[(key_hash(format!("k{i}").as_bytes()) % 4) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 25_000).abs() < 1_500, "skewed: {counts:?}");
        }
    }

    /// Random keys of every length the KV API accepts (and the empty
    /// key), each byte drawn from the whole `u8` range.
    #[test]
    fn key_id_equals_hash_and_fingerprint() {
        use crate::config::KEY_MAX;
        use kvssd_sim::check::check;
        check(
            0..64,
            |rng| {
                (0..=KEY_MAX)
                    .map(|len| (0..len).map(|_| rng.below(256) as u8).collect())
                    .collect::<Vec<Vec<u8>>>()
            },
            |_| None,
            |keys| {
                for key in keys {
                    let id = KeyId::of(key);
                    if (id.hash, id.fp) != (key_hash(key), key_fingerprint(key)) {
                        return Err(format!("{} B key {key:?}: {id:?}", key.len()));
                    }
                    if !id.is_of(key) {
                        return Err(format!("is_of rejects its own key {key:?}"));
                    }
                }
                Ok(())
            },
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn passes_count_every_hash_but_not_a_check() {
        let before = key_passes();
        let id = KeyId::of(b"user0001");
        assert_eq!(key_passes() - before, 1);
        assert!(id.is_of(b"user0001") && !id.is_of(b"user0002"));
        assert_eq!(key_passes() - before, 1);
        key_hash(b"user0001");
        key_fingerprint(b"user0001");
        assert_eq!(key_passes() - before, 3);
    }

    #[test]
    fn iter_bucket_uses_first_four_bytes() {
        assert_eq!(iter_bucket(b"abcdef"), *b"abcd");
        assert_eq!(iter_bucket(b"ab"), [b'a', b'b', 0, 0]);
        assert_eq!(iter_bucket(b""), [0; 4]);
    }
}
