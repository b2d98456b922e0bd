//! Deterministic key generation.
//!
//! Keys are derived from a dense index space `0..n`: a fixed 4-byte
//! prefix (which doubles as the KV-SSD's iterator bucket), then a
//! zero-padded body: the index in decimal and `x` filler when the body
//! has room for 20 digits, in base 36 otherwise.
//! `key(i)` is stable, and injective over `0..=max_index()` (the body's
//! capacity: `36^body - 1`, every `u64` from 13 characters up), so
//! phases can regenerate the same population without storing it.

/// Generates fixed-length keys from dense indices.
#[derive(Debug, Clone)]
pub struct KeyGen {
    prefix: [u8; 4],
    key_bytes: usize,
}

impl KeyGen {
    /// A generator for `key_bytes`-long keys (minimum 5: the prefix and
    /// a body of at least one character).
    ///
    /// # Panics
    ///
    /// Panics if `key_bytes` is out of the 5..=255 range.
    pub fn new(key_bytes: usize) -> Self {
        Self::with_prefix(*b"usr.", key_bytes)
    }

    /// A generator with an explicit 4-byte prefix (iterator bucket).
    ///
    /// # Panics
    ///
    /// Panics if `key_bytes` is out of the 5..=255 range: an empty body
    /// would give every index the same key.
    pub fn with_prefix(prefix: [u8; 4], key_bytes: usize) -> Self {
        assert!(
            (5..=255).contains(&key_bytes),
            "key length {key_bytes} outside 5..=255 (a prefix and a body)"
        );
        KeyGen { prefix, key_bytes }
    }

    /// Key length produced.
    pub fn key_bytes(&self) -> usize {
        self.key_bytes
    }

    /// The largest index whose key fits the body: `36^body - 1`, or any
    /// `u64` once that overflows (13 characters and up, which covers the
    /// 20-digit decimal bodies).
    pub fn max_index(&self) -> u64 {
        let body = (self.key_bytes - 4) as u32;
        36u64.checked_pow(body).map_or(u64::MAX, |n| n - 1)
    }

    /// The key for index `i`.
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(self.key_bytes);
        self.key_into(i, &mut k);
        k
    }

    /// Writes the key for index `i` into `buf`, clearing it first. Hot
    /// loops reuse one buffer across ops instead of allocating per key.
    pub fn key_into(&self, i: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.prefix);
        let body = self.key_bytes - 4;
        // A body of 20 B or more holds any index in decimal, then filler;
        // a shorter one is base 36, where 8 digits cover 2.8e12 indices.
        let mut digits = [b'0'; 20];
        let (width, rest) = if body >= 20 {
            (20, write_digits::<10>(i, &mut digits))
        } else {
            (body, write_digits::<36>(i, &mut digits[..body]))
        };
        assert_eq!(rest, 0, "index {i} does not fit in a {body}-char key body");
        buf.extend_from_slice(&digits[..width]);
        buf.resize(self.key_bytes, b'x');
    }
}

/// Writes `v`'s last `out.len()` digits in base `RADIX` (at most 36) into
/// `out`, most significant first; returns what is left of `v`.
fn write_digits<const RADIX: u64>(mut v: u64, out: &mut [u8]) -> u64 {
    for d in out.iter_mut().rev() {
        let r = (v % RADIX) as u8;
        *d = if r < 10 { b'0' + r } else { b'a' + r - 10 };
        v /= RADIX;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::PrehashedSet;

    #[test]
    fn keys_have_requested_length() {
        for len in [8, 16, 24, 64, 255] {
            let g = KeyGen::new(len);
            assert_eq!(g.key(0).len(), len);
            assert_eq!(g.key(123_456).len(), len);
        }
    }

    #[test]
    fn keys_are_unique() {
        let g = KeyGen::new(16);
        let mut seen = PrehashedSet::default();
        for i in 0..100_000 {
            assert!(seen.insert(g.key(i)), "duplicate at {i}");
        }
    }

    #[test]
    fn keys_share_iterator_prefix() {
        let g = KeyGen::new(16);
        assert_eq!(&g.key(7)[..4], b"usr.");
        let g2 = KeyGen::with_prefix(*b"sens", 16);
        assert_eq!(&g2.key(7)[..4], b"sens");
    }

    #[test]
    fn sequential_indices_make_ordered_keys() {
        let g = KeyGen::new(16);
        let a = g.key(41);
        let b = g.key(42);
        assert!(a < b, "key order must follow index order");
    }

    #[test]
    fn key_into_matches_key_exactly() {
        // The hot path reuses one buffer via `key_into`; it must produce
        // byte-identical keys to the allocating `key`, including after
        // reuse with longer prior contents.
        for len in [5, 8, 16, 24, 64] {
            let g = KeyGen::new(len);
            let mut buf = vec![0xAAu8; 300];
            for i in [0u64, 1, 35, 36, 1000, 123_456_789] {
                // Skip indices past the body's base-36 capacity (the
                // overflow panic is covered by `overflowing_body_panics`).
                if i > g.max_index() {
                    continue;
                }
                g.key_into(i, &mut buf);
                assert_eq!(buf, g.key(i), "len={len} i={i}");
            }
        }
    }

    /// The bytes of long keys, pinned: a body of 20 B or more is the
    /// index in decimal, zero-padded to 20 digits, then `x` filler.
    #[test]
    fn long_key_bytes_are_pinned() {
        let bodies: [(u64, &[u8; 20]); 6] = [
            (0, b"00000000000000000000"),
            (1, b"00000000000000000001"),
            (35, b"00000000000000000035"),
            (36, b"00000000000000000036"),
            (123_456_789, b"00000000000123456789"),
            (u64::MAX, b"18446744073709551615"),
        ];
        for len in [24, 32, 64, 255] {
            let g = KeyGen::new(len);
            for (i, body) in bodies {
                let want = [b"usr.".as_slice(), body, &vec![b'x'; len - 24]].concat();
                assert_eq!(g.key(i), want, "len={len} i={i}");
            }
        }
    }

    /// The bytes of short keys, pinned: a shorter body is the index in
    /// base 36, zero-padded to the body's width.
    #[test]
    fn short_key_bytes_are_pinned() {
        let g = KeyGen::new(16);
        for (i, want) in [
            (0, b"usr.000000000000"),
            (1, b"usr.000000000001"),
            (35, b"usr.00000000000z"),
            (36, b"usr.000000000010"),
            (123_456_789, b"usr.00000021i3v9"),
        ] {
            assert_eq!(g.key(i), want, "i={i}");
        }
        assert_eq!(KeyGen::new(23).key(u64::MAX), b"usr.0000003w5e11264sgsf");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn keys_without_a_body_rejected() {
        let _ = KeyGen::with_prefix(*b"sens", 4);
    }

    #[test]
    fn max_index_is_the_body_capacity() {
        assert_eq!(KeyGen::new(5).max_index(), 35);
        assert_eq!(KeyGen::new(6).max_index(), 36 * 36 - 1);
        assert_eq!(KeyGen::new(16).max_index(), 36u64.pow(12) - 1);
        for len in [17, 23, 24, 255] {
            assert_eq!(KeyGen::new(len).max_index(), u64::MAX, "len={len}");
        }
        for len in [5, 6, 8] {
            let g = KeyGen::new(len);
            assert_ne!(g.key(g.max_index()), g.key(g.max_index() - 1));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflowing_body_panics() {
        let g = KeyGen::new(5); // 1-char body: 36 indices max
        let _ = g.key(36);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_length_rejected() {
        let _ = KeyGen::new(3);
    }
}
