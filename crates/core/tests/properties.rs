// Proptest-based suite: compiled only with `--features proptest` (needs
// network to fetch proptest; the default offline pass runs the in-repo
// generator suites instead).
#![cfg(feature = "proptest")]

//! Property tests on the KV-FTL's internal structures and the device's
//! packing invariants.

use proptest::prelude::*;

use kvssd_core::bloom::BloomFilter;
use kvssd_core::hash::{key_fingerprint, key_hash};
use kvssd_core::index::{GlobalStore, IndexEntry, IterBuckets, SegLoc};
use kvssd_core::{KvConfig, KvSsd, Payload};
use kvssd_flash::{BlockId, FlashTiming, Geometry};
use kvssd_sim::SimTime;

fn entry(fp: u64, vlen: u32) -> IndexEntry {
    IndexEntry {
        key_len: 8,
        value_len: vlen,
        payload: Payload::synthetic(vlen, fp),
        segs: vec![SegLoc {
            block: BlockId(0),
            page: 0,
            offset: 0,
            alloc: 1024,
            raw: vlen + 48,
        }]
        .into(),
    }
}

proptest! {
    /// The global store behaves as a map keyed by (hash, fingerprint).
    #[test]
    fn global_store_is_a_map(ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..200)) {
        let mut store = GlobalStore::new();
        let mut model = kvssd_sim::PrehashedMap::default();
        for (k, insert) in ops {
            let (h, fp) = (key_hash(&[k]), key_fingerprint(&[k]));
            if insert {
                store.insert(h, fp, entry(fp, k as u32));
                model.insert(k, ());
            } else {
                let removed = store.remove(h, fp).is_some();
                prop_assert_eq!(removed, model.remove(&k).is_some());
            }
            prop_assert_eq!(store.len(), model.len() as u64);
            for mk in model.keys() {
                let (h, fp) = (key_hash(&[*mk]), key_fingerprint(&[*mk]));
                prop_assert!(store.get(h, fp).is_some());
            }
        }
    }

    /// Bloom filters never produce false negatives, for any insert set
    /// and any bits-per-key setting.
    #[test]
    fn bloom_no_false_negatives(
        keys in prop::collection::hash_set(any::<u32>(), 1..300),
        bits in 2u32..16,
    ) {
        let mut f = BloomFilter::new(keys.len() as u64, bits);
        for &k in &keys {
            f.insert(key_hash(&k.to_le_bytes()));
        }
        for &k in &keys {
            prop_assert!(f.may_contain(key_hash(&k.to_le_bytes())));
        }
    }

    /// Iterator buckets return exactly the live keys of a prefix, in
    /// insertion order modulo removals, for any interleaving.
    #[test]
    fn iter_buckets_track_live_keys(
        ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..150),
    ) {
        let mut ib = IterBuckets::new(true);
        let mut model: Vec<u8> = Vec::new();
        for (k, insert) in ops {
            let key = [b'p', b'f', b'x', b'.', k];
            if insert {
                // The model allows duplicates like repeated device
                // inserts of distinct keys would not; only insert new.
                if !model.contains(&k) {
                    ib.insert(&key);
                    model.push(k);
                }
            } else if let Some(pos) = model.iter().position(|&m| m == k) {
                ib.remove(&key);
                model.swap_remove(pos);
            }
        }
        let h = ib.open(*b"pfx.");
        let got = ib.next(h, usize::MAX).unwrap();
        let mut got_keys: Vec<u8> = got.iter().map(|k| k[4]).collect();
        got_keys.sort_unstable();
        let mut want = model.clone();
        want.sort_unstable();
        prop_assert_eq!(got_keys, want);
    }

    /// Device-level packing invariant: after any sequence of stores, no
    /// flash page holds more payload than its budget, and every byte of
    /// every live blob is accounted exactly once per (block, page).
    #[test]
    fn no_page_overflows_its_payload_budget(
        sizes in prop::collection::vec(0u32..60_000, 1..80),
    ) {
        let cfg = KvConfig::small();
        let payload_budget = cfg.page_payload_bytes;
        let mut dev = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
        let mut t = SimTime::ZERO;
        for (i, &v) in sizes.iter().enumerate() {
            let key = format!("pack.{i:06}");
            t = dev.store(t, key.as_bytes(), Payload::synthetic(v, i as u64)).unwrap();
        }
        // Group live segments by physical page and check occupancy.
                let mut pages: kvssd_sim::PrehashedMap<(u32, u32), Vec<(u32, u32)>> = kvssd_sim::PrehashedMap::default();
        for (i, &v) in sizes.iter().enumerate() {
            let key = format!("pack.{i:06}");
            let l = dev.retrieve(t, key.as_bytes()).unwrap();
            prop_assert_eq!(l.value, Some(Payload::synthetic(v, i as u64)));
            t = l.at;
            let segs = dev.segments_of(key.as_bytes()).expect("live key");
            for s in segs {
                pages
                    .entry((s.block.0, s.page))
                    .or_default()
                    .push((s.offset, s.alloc));
            }
        }
        for ((b, p), mut segs) in pages {
            segs.sort_unstable();
            let mut cursor = 0u32;
            for (off, alloc) in segs {
                prop_assert!(off >= cursor, "segments overlap in b{b}p{p}");
                cursor = off + alloc;
            }
            prop_assert!(
                cursor <= payload_budget,
                "page b{b}p{p} holds {cursor} > budget {payload_budget}"
            );
        }
    }
}

#[test]
fn gc_spreads_wear_across_blocks() {
    // Sustained overwrite churn: the hash-scattered log plus greedy GC
    // should wear blocks within a bounded spread, not burn a corner of
    // the device.
    let mut dev = KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    );
    let mut t = SimTime::ZERO;
    let n = 700u64;
    for round in 0..6u64 {
        for i in 0..n {
            let key = format!("wear.{i:06}");
            t = dev
                .store(t, key.as_bytes(), Payload::synthetic(4096, round))
                .unwrap();
        }
    }
    let (_, mean, max) = dev.flash().wear_summary();
    assert!(mean > 1.0, "churn must have erased blocks (mean {mean})");
    assert!(
        (max as f64) < mean * 6.0 + 4.0,
        "wear concentrated: max {max} vs mean {mean:.1}"
    );
}
