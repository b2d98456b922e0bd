//! Hash maps with one fixed, seedless hasher for the simulator's own keys.
//!
//! Every hash map in the workspace is a [`PrehashedMap`] /
//! [`PrehashedSet`] (clippy and kvlint reject `RandomState`): `std`'s
//! seeded SipHash is slow and makes iteration order differ from run to
//! run, and none of these keys come from outside the program.
//! [`PrehashHasher`] is valid for two key shapes, each on its own path:
//!
//! * **Pre-mixed words and low-entropy integers** (`write_u8` …
//!   `write_u128`, `write_usize`): key hashes, fingerprints, iterator
//!   handles, LCNs, `(u64, u64)` pairs. One fold-and-multiply per word
//!   (the rustc `FxHash` recipe). The multiply carries entropy *upward*
//!   only, which is enough here: a word that went through `mix64` is
//!   uniform in every bit, and a small integer has its entropy in the
//!   *low* bits, where hashbrown takes the bucket index from.
//! * **Byte strings** (`write`: `Box<[u8]>`, `Vec<u8>`, `[u8; N]`,
//!   `String` keys — `hash-store`'s index, the block-direct slot table,
//!   `lsm-store`'s scan shadow set, `host-stack` file names): the same
//!   fold per 8-byte word, then a full-width avalanche (xor-shift,
//!   multiply, xor-shift) that brings the high bits down.
//!
//! # Why `write` avalanches
//!
//! hashbrown takes the *control byte* from the hash's top 7 bits and the
//! *bucket index* from its low bits. A byte string's entropy can sit in
//! the high half of its last word: `KeyGen`'s 16 B keys are `usr.` plus
//! twelve base-36 digits, most significant first, so every index below
//! 36⁴ = 1 679 616 changes only the last four bytes — bits 32..64 of the
//! second little-endian word. `(state ^ word) * SEED` computes its low
//! 32 bits from the low 32 bits of `state ^ word` alone, which are the
//! same for all of those keys: without the avalanche every key of a
//! 50 000-key store shared one home bucket and each probe walked the
//! whole table (`hash_block_mixed`: 20 µs of host time per op, linear in
//! population). The integer paths never had this shape and stay as they
//! were, bit for bit, so integer-keyed maps keep their layout and their
//! iteration order.
//!
//! No external dependencies — the workspace stays offline-green.

// kvlint: allow(no-random-state-map) — this module IS the sanctioned wrapper: it rebinds std's maps to a fixed hasher
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`PrehashHasher`] (see the module docs for the key
/// shapes it is valid for).
// kvlint: allow(no-random-state-map) — alias pins the hasher to PrehashHasher; no RandomState reaches callers
pub type PrehashedMap<K, V> = HashMap<K, V, BuildHasherDefault<PrehashHasher>>;

/// `HashSet` counterpart of [`PrehashedMap`].
// kvlint: allow(no-random-state-map) — alias pins the hasher to PrehashHasher; no RandomState reaches callers
pub type PrehashedSet<K> = HashSet<K, BuildHasherDefault<PrehashHasher>>;

/// Word-at-a-time folding hasher (FxHash-style).
///
/// Each written word is folded into the state with a rotate, xor, and a
/// multiply by a high-entropy odd constant. For keys that are already
/// uniform 64-bit hashes this preserves uniformity; for sequential
/// integers the multiply propagates the low bits into the high bits the
/// table's control bytes are taken from. Byte slices additionally end
/// with an avalanche, because their entropy may sit above the low bits
/// the table's bucket index is taken from.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrehashHasher {
    hash: u64,
}

/// `pi * 2^62`, odd — the multiplier rustc's FxHash uses for 64-bit words.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// `2^64 / phi`, odd — the multiplier of the byte path's final avalanche.
const AVALANCHE: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

impl PrehashHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for PrehashHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold whole words, then the tail, then avalanche: the folds
        // only carry entropy upward, and a byte key may differ from its
        // neighbours in nothing but the top bytes of its last word.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(tail) ^ rem.len() as u64);
        }
        let h = self.hash ^ (self.hash >> 32);
        let h = h.wrapping_mul(AVALANCHE);
        self.hash = h ^ (h >> 29);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::hash::{BuildHasher, Hash};

    /// The 16 B key `kvbench::KeyGen` makes for index `i`: `usr.` plus
    /// twelve base-36 digits, most significant first (`sim` may not
    /// depend on `kvbench`; its `key_into` test pins the format).
    fn keygen_key(mut i: u64) -> [u8; 16] {
        let mut k = *b"usr.000000000000";
        for pos in (4..16).rev() {
            let d = (i % 36) as u8;
            k[pos] = if d < 10 { b'0' + d } else { b'a' + d - 10 };
            i /= 36;
        }
        k
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<PrehashHasher>::default().hash_one(v)
    }

    #[test]
    fn keygen_shaped_byte_keys_spread_over_low_and_high_bits() {
        // hashbrown: bucket index from the low bits, control byte from
        // the top 7. 50 000 balls into 65 536 bins leave ~34 900 bins
        // occupied; without the avalanche all keys shared one.
        let mut low = PrehashedSet::default();
        let mut top = PrehashedSet::default();
        for i in 0..50_000u64 {
            let h = hash_of(&keygen_key(i)[..]);
            low.insert(h & 0xFFFF);
            top.insert(h >> 57);
        }
        assert!(low.len() >= 30_000, "only {} low-16-bit values", low.len());
        assert!(top.len() >= 100, "only {} top-7-bit classes", top.len());
    }

    thread_local! {
        /// Key comparisons made by this test thread's maps.
        static EQ_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// A byte key that counts how often the map compares it.
    struct CountedKey([u8; 16]);

    impl Hash for CountedKey {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.0[..].hash(state);
        }
    }

    impl PartialEq for CountedKey {
        fn eq(&self, other: &Self) -> bool {
            EQ_CALLS.set(EQ_CALLS.get() + 1);
            self.0 == other.0
        }
    }

    impl Eq for CountedKey {}

    #[test]
    fn byte_key_lookups_compare_at_most_two_keys_on_average() {
        let n = 50_000u64;
        let mut m: PrehashedMap<CountedKey, u64> = PrehashedMap::default();
        for i in 0..n {
            m.insert(CountedKey(keygen_key(i)), i);
        }
        EQ_CALLS.set(0);
        for i in 0..n {
            assert_eq!(m.get(&CountedKey(keygen_key(i))), Some(&i));
        }
        let eqs = EQ_CALLS.get();
        assert!(eqs <= 2 * n, "{eqs} eq calls for {n} successful gets");
    }

    #[test]
    fn integer_paths_are_frozen() {
        // Integer-keyed maps (KV index, residency maps, key registry,
        // LRU slabs) must keep their layout and iteration order: these
        // are the hashes from before `write` gained its avalanche.
        let u64s = [
            (0u64, 0u64),
            (1, 0x517c_c1b7_2722_0a95),
            (2, 0xa2f9_836e_4e44_152a),
            (0xdead_beef, 0x67f3_c037_2953_771b),
            (u64::MAX, 0xae83_3e48_d8dd_f56b),
        ];
        for (v, want) in u64s {
            assert_eq!(hash_of(&v), want, "u64 {v:#x}");
        }
        let u32s = [
            (0u32, 0u64),
            (1, 0x517c_c1b7_2722_0a95),
            (7, 0x3a69_4c02_11ee_4a13),
            (0xdead_beef, 0x67f3_c037_2953_771b),
        ];
        for (v, want) in u32s {
            assert_eq!(hash_of(&v), want, "u32 {v:#x}");
        }
        let pairs = [
            ((0u64, 0u64), 0u64),
            ((1, 2), 0x6a4b_e67f_f98f_abc8),
            ((0xdead_beef, 0xfeed_face_cafe_f00d), 0x99c5_3dbc_ae7f_1175),
        ];
        for (v, want) in pairs {
            assert_eq!(hash_of(&v), want, "pair {v:?}");
        }
        assert_eq!(
            hash_of(&(5u8, 6u16, 7usize, 8u128 << 70 | 9)),
            0xcef5_91d9_3fd9_14b2
        );
    }

    #[test]
    fn map_round_trips_pair_keys() {
        let mut m: PrehashedMap<(u64, u64), u32> = PrehashedMap::default();
        for i in 0..10_000u64 {
            m.insert((crate::rng::mix64(i), crate::rng::mix64(!i)), i as u32);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(
                m.remove(&(crate::rng::mix64(i), crate::rng::mix64(!i))),
                Some(i as u32)
            );
        }
        assert!(m.is_empty());
    }

    #[test]
    fn sequential_integer_keys_spread_over_high_bits() {
        // Hashbrown takes its control byte from the hash's top 7 bits
        // (the bucket index comes from the low bits, which sequential
        // handles already vary in): a pure identity hash would put every
        // entry in the same control class. The multiply must spread them.
        let mut top = PrehashedSet::default();
        for handle in 0..128u64 {
            let mut h = PrehashHasher::default();
            h.write_u64(handle);
            top.insert(h.finish() >> 57);
        }
        assert!(
            top.len() > 32,
            "only {} distinct top-7-bit classes",
            top.len()
        );
    }

    #[test]
    fn byte_slices_hash_consistently_and_distinctly() {
        let mut h1 = PrehashHasher::default();
        h1.write(b"abcdefgh-tail");
        let mut h2 = PrehashHasher::default();
        h2.write(b"abcdefgh-tail");
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = PrehashHasher::default();
        h3.write(b"abcdefgh-tail!");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn set_handles_collision_free_inserts() {
        let mut s: PrehashedSet<u64> = PrehashedSet::default();
        for i in 0..50_000u64 {
            assert!(s.insert(crate::rng::mix64(i)));
        }
        assert_eq!(s.len(), 50_000);
    }
}
