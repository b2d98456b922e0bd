//! An owned key copy that avoids the heap for short keys.
//!
//! Host-side bookkeeping structures (the cluster's per-shard key
//! registry, the hash store's index and per-write-block key lists, and
//! the LSM store's memtable, SST entries and per-table min/max keys)
//! retain a copy of every stored key. With `Box<[u8]>` that is one heap
//! allocation per store operation — pure overhead, since real workload
//! keys (kvbench emits 16-byte keys) fit in the slot a fat pointer
//! already occupies. [`KeyBuf`] keeps keys up to 22 bytes inline and
//! spills longer ones to a box, so the common case allocates nothing
//! and a sorted run of keys is contiguous memory.
//!
//! Ordering contract: `Eq`, `Ord` and `Hash` see the key bytes
//! ([`KeyBuf::as_slice`]) and nothing else, so an inline key and a
//! spilled one compare, order and hash exactly as their slices do, and
//! `Borrow<[u8]>` lets a map keyed by `KeyBuf` be searched with a
//! `&[u8]`. `Hash` exists for the hash store's index: keyed by
//! `KeyBuf`, a bucket holds a 16 B key in place, so a probe compares it
//! without loading a boxed key from elsewhere in memory.

/// An owned key: inline when short (the universal case), boxed
/// otherwise.
#[derive(Debug, Clone)]
pub enum KeyBuf {
    /// A key of up to [`KeyBuf::INLINE`] bytes, stored in place.
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// The key bytes, zero-padded.
        buf: [u8; KeyBuf::INLINE],
    },
    /// A longer key, spilled to the heap.
    Heap(Box<[u8]>),
}

impl KeyBuf {
    /// Inline capacity, sized so `KeyBuf` matches the boxed variant's
    /// 24 bytes.
    pub const INLINE: usize = 22;

    /// Copies `key`, inline when it fits.
    pub fn new(key: &[u8]) -> Self {
        if key.len() <= Self::INLINE {
            let mut buf = [0u8; Self::INLINE];
            buf[..key.len()].copy_from_slice(key);
            KeyBuf::Inline {
                len: key.len() as u8,
                buf,
            }
        } else {
            KeyBuf::Heap(key.into())
        }
    }

    /// The key bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            KeyBuf::Inline { len, buf } => &buf[..*len as usize],
            KeyBuf::Heap(k) => k,
        }
    }
}

impl std::ops::Deref for KeyBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for KeyBuf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for KeyBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeyBuf {}

impl PartialOrd for KeyBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for KeyBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keys_stay_inline_and_round_trip() {
        for len in 0..=KeyBuf::INLINE {
            let key: Vec<u8> = (0..len as u8).collect();
            let k = KeyBuf::new(&key);
            assert!(matches!(k, KeyBuf::Inline { .. }));
            assert_eq!(k.as_slice(), &key[..]);
        }
    }

    #[test]
    fn long_keys_spill_and_round_trip() {
        let key: Vec<u8> = (0..=KeyBuf::INLINE as u8).collect();
        let k = KeyBuf::new(&key);
        assert!(matches!(k, KeyBuf::Heap(_)));
        assert_eq!(k.as_slice(), &key[..]);
    }

    #[test]
    fn ordering_and_equality_follow_the_bytes_across_variants() {
        // Sorted as byte strings: prefixes first, and the 23-byte key
        // (heap) between two inline ones.
        let sorted: [&[u8]; 7] = [
            b"",
            b"a",
            b"a\0",
            b"ab",
            b"key-0123456789-0123456",
            b"key-0123456789-01234567",
            b"key-0123456789-0123457",
        ];
        assert!(matches!(KeyBuf::new(sorted[5]), KeyBuf::Heap(_)));
        assert!(matches!(KeyBuf::new(sorted[6]), KeyBuf::Inline { .. }));
        for (i, a) in sorted.iter().enumerate() {
            for (j, b) in sorted.iter().enumerate() {
                let (ka, kb) = (KeyBuf::new(a), KeyBuf::new(b));
                assert_eq!(ka.cmp(&kb), i.cmp(&j), "{a:?} vs {b:?}");
                assert_eq!(ka.partial_cmp(&kb), Some(i.cmp(&j)));
                assert_eq!(ka == kb, i == j);
            }
        }
    }

    #[test]
    fn ordered_maps_are_searched_by_slice() {
        use std::borrow::Borrow;
        use std::collections::BTreeMap;
        use std::ops::Bound;
        let long = [7u8; KeyBuf::INLINE + 9];
        let map: BTreeMap<KeyBuf, u32> = [(&b"k1"[..], 1), (b"k10", 10), (b"k2", 2), (&long, 3)]
            .into_iter()
            .map(|(k, v)| (KeyBuf::new(k), v))
            .collect();
        assert_eq!(map.get(&b"k10"[..]), Some(&10));
        assert_eq!(map.get(&long[..]), Some(&3));
        assert_eq!(map.get(&b"k"[..]), None);
        let from_k10: Vec<u32> = map
            .range::<[u8], _>((Bound::Included(&b"k10"[..]), Bound::Unbounded))
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(from_k10, vec![10, 2]);
        let spilled = KeyBuf::new(&long);
        let borrowed: &[u8] = spilled.borrow();
        assert_eq!(borrowed, &long[..]);
    }

    #[test]
    fn hashes_as_its_bytes_and_hash_maps_are_searched_by_slice() {
        use kvssd_sim::{PrehashHasher, PrehashedMap};
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hasher = BuildHasherDefault::<PrehashHasher>::default();
        let keys: Vec<Vec<u8>> = [0, 1, 16, KeyBuf::INLINE, 23, 255]
            .into_iter()
            .map(|len| (0..len as u8).map(|b| b.wrapping_mul(37)).collect())
            .collect();
        let mut map = PrehashedMap::default();
        for (i, key) in keys.iter().enumerate() {
            let k = KeyBuf::new(key);
            assert_eq!(matches!(k, KeyBuf::Heap(_)), key.len() > KeyBuf::INLINE);
            assert_eq!(hasher.hash_one(&k), hasher.hash_one(&key[..]), "{key:?}");
            map.insert(k, i);
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(map.get(&key[..]), Some(&i), "{key:?}");
        }
        assert_eq!(map.get(&[9u8; 23][..]), None);
    }
}
