//! Blob layout: how a KV pair becomes bytes on flash.
//!
//! A stored pair is a *blob*: `metadata ‖ key ‖ value`. Blobs whose raw
//! size fits the per-page payload budget are appended into the shared
//! open page (byte-aligned, log-like); larger blobs split into
//! **page-aligned segments** — the first carries metadata, key, and the
//! offset table, continuations carry a small header plus value bytes.
//! Each allocation is rounded up to the device's minimum unit (1 KiB) or,
//! beyond that, to the fine alignment (64 B) — the exact rule behind the
//! paper's Fig. 7 space-amplification curve.

use crate::config::{KvConfig, META_BYTES, SEG_HEADER_BYTES};
use crate::inline_vec::InlineVec;

/// Per-segment byte counts. Inline up to two segments: the layout is
/// planned on every store, and the common unsplit blob must not allocate.
pub type SegBytes = InlineVec<u32, 2>;

/// The on-flash layout plan for one KV pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobLayout {
    /// Bytes of user data (key + value).
    pub user_bytes: u64,
    /// Allocated bytes per segment, in order. Single-segment blobs have
    /// one entry.
    pub segment_alloc: SegBytes,
    /// Raw (pre-padding) bytes per segment.
    pub segment_raw: SegBytes,
}

impl BlobLayout {
    /// Plans the layout of a pair with `key_len`-byte key and
    /// `value_len`-byte value under `config`.
    pub fn plan(config: &KvConfig, key_len: usize, value_len: u64) -> Self {
        let budget = config.page_payload_bytes as u64;
        let first_overhead = META_BYTES as u64 + key_len as u64;
        let raw_total = first_overhead + value_len;
        let user_bytes = key_len as u64 + value_len;
        if raw_total <= budget {
            let raw = raw_total as u32;
            let mut segment_alloc = SegBytes::new();
            segment_alloc.push(Self::align(config, raw));
            let mut segment_raw = SegBytes::new();
            segment_raw.push(raw);
            return BlobLayout {
                user_bytes,
                segment_alloc,
                segment_raw,
            };
        }
        // Split: first segment fills a whole page payload (metadata, key,
        // offset table, then value bytes); continuations carry a header
        // plus value bytes, each capped at the page payload.
        let mut segment_raw = SegBytes::new();
        let mut remaining = value_len;
        let first_value = budget - first_overhead;
        segment_raw.push(budget as u32);
        remaining -= first_value;
        let cont_capacity = budget - SEG_HEADER_BYTES as u64;
        while remaining > 0 {
            let take = remaining.min(cont_capacity);
            segment_raw.push((take + SEG_HEADER_BYTES as u64) as u32);
            remaining -= take;
        }
        let mut segment_alloc = SegBytes::new();
        for &r in &segment_raw {
            segment_alloc.push(Self::align(config, r));
        }
        BlobLayout {
            user_bytes,
            segment_alloc,
            segment_raw,
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segment_alloc.len()
    }

    /// True when the blob splits across pages.
    pub fn is_split(&self) -> bool {
        self.segments() > 1
    }

    /// Total allocated bytes across segments.
    pub fn allocated_bytes(&self) -> u64 {
        self.segment_alloc.iter().map(|&a| a as u64).sum()
    }

    /// Space amplification of this blob alone: allocated / user bytes.
    /// Zero-length pairs report their allocation against one byte.
    pub fn amplification(&self) -> f64 {
        self.allocated_bytes() as f64 / (self.user_bytes.max(1)) as f64
    }

    /// The allocation rule: minimum 1 KiB unit, fine alignment beyond it.
    pub(crate) fn align(config: &KvConfig, raw: u32) -> u32 {
        if raw <= config.alloc_unit {
            config.alloc_unit
        } else {
            raw.div_ceil(config.fine_align) * config.fine_align
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VALUE_MAX;

    fn cfg() -> KvConfig {
        KvConfig::pm983_scaled()
    }

    #[test]
    fn tiny_blob_pads_to_one_kib() {
        // The paper's headline: a 50 B value (16 B key) allocates 1 KiB,
        // amplification ~15.5x against 66 user bytes.
        let l = BlobLayout::plan(&cfg(), 16, 50);
        assert_eq!(l.segments(), 1);
        assert_eq!(l.allocated_bytes(), 1024);
        let amp = l.amplification();
        assert!(amp > 15.0 && amp < 16.0, "amp {amp}");
    }

    #[test]
    fn paper_20x_amplification_for_smallest_values() {
        // ~35 B values with 16 B keys: 1024 / 51 ≈ 20x.
        let l = BlobLayout::plan(&cfg(), 16, 35);
        assert!(l.amplification() > 19.0, "amp {}", l.amplification());
    }

    #[test]
    fn mid_size_blobs_pack_tightly() {
        // 1 KiB..4 KiB values: amplification close to 1 ("packs data very
        // tightly beyond 1KB").
        for v in [1_500u64, 2_048, 3_000, 4_096] {
            let l = BlobLayout::plan(&cfg(), 16, v);
            let amp = l.amplification();
            assert!(amp < 1.1, "value {v}: amp {amp}");
        }
    }

    #[test]
    fn zero_length_value_is_legal_and_padded() {
        let l = BlobLayout::plan(&cfg(), 16, 0);
        assert_eq!(l.allocated_bytes(), 1024);
        assert_eq!(l.user_bytes, 16);
    }

    #[test]
    fn value_at_page_budget_stays_single_segment() {
        let l = BlobLayout::plan(&cfg(), 16, 24 * 1024);
        assert_eq!(l.segments(), 1, "24 KiB value must fit one page");
    }

    #[test]
    fn value_past_page_budget_splits() {
        let l = BlobLayout::plan(&cfg(), 16, 25 * 1024);
        assert_eq!(l.segments(), 2, "25 KiB value must split (Fig. 5 dip)");
        // First segment fills the page payload exactly.
        assert_eq!(l.segment_raw[0], cfg().page_payload_bytes);
    }

    #[test]
    fn segment_count_steps_at_payload_multiples() {
        let c = cfg();
        let b = c.page_payload_bytes as u64;
        let one = BlobLayout::plan(&c, 16, b - META_BYTES as u64 - 16);
        assert_eq!(one.segments(), 1);
        let two = BlobLayout::plan(&c, 16, b);
        assert_eq!(two.segments(), 2);
        let large = BlobLayout::plan(&c, 16, 2 * b);
        assert_eq!(large.segments(), 3);
    }

    #[test]
    fn max_value_splits_into_bounded_segments() {
        let c = cfg();
        let l = BlobLayout::plan(&c, 255, VALUE_MAX);
        // 2 MiB / ~24.5 KiB ≈ 86 segments.
        assert!(l.segments() > 80 && l.segments() < 90, "{}", l.segments());
        // Conservation: raw segments carry all the value bytes once.
        let raw: u64 = l.segment_raw.iter().map(|&r| r as u64).sum();
        let overhead =
            META_BYTES as u64 + 255 + (l.segments() as u64 - 1) * SEG_HEADER_BYTES as u64;
        assert_eq!(raw, VALUE_MAX + overhead);
    }

    #[test]
    fn no_segment_exceeds_page_payload() {
        let c = cfg();
        for v in [0u64, 100, 25_000, 100_000, VALUE_MAX] {
            let l = BlobLayout::plan(&c, 200, v);
            for &r in &l.segment_raw {
                assert!(r <= c.page_payload_bytes);
            }
            for (&a, &r) in l.segment_alloc.iter().zip(&l.segment_raw) {
                assert!(a >= r, "allocation below raw size");
            }
        }
    }

    #[test]
    fn alignment_rule_is_exact() {
        let c = cfg();
        // 1 KiB minimum...
        assert_eq!(BlobLayout::plan(&c, 16, 1).allocated_bytes(), 1024);
        // ...then 64 B steps: raw = 32 + 16 + 1000 = 1048 -> 1088.
        assert_eq!(BlobLayout::plan(&c, 16, 1000).allocated_bytes(), 1088);
    }
}
