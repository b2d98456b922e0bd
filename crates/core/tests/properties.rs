//! Property tests on the KV-FTL's internal structures and the device's
//! packing invariants: seeded cases on [`kvssd_sim::check`] (a failed
//! assertion is a failing case, shrunk by deletion).

use std::collections::BTreeMap;

use kvssd_core::blob::BlobLayout;
use kvssd_core::bloom::BloomFilter;
use kvssd_core::hash::key_hash;
use kvssd_core::index::{GlobalStore, IndexEntry, IterBuckets, SegList, SEGMENT_SLOTS};
use kvssd_core::{KvConfig, KvSsd, Payload};
use kvssd_flash::{BlockId, FlashTiming, Geometry};
use kvssd_sim::check::check;
use kvssd_sim::{DeterministicRng, PrehashedMap, SimTime};

/// Up to `max` `(key, insert?)` steps over a one-byte key space.
fn key_steps(max: u64) -> impl Fn(&mut DeterministicRng) -> Vec<(u8, bool)> {
    move |rng| {
        let n = rng.between(1, max);
        (0..n)
            .map(|_| (rng.below(256) as u8, rng.chance(0.5)))
            .collect()
    }
}

fn entry(tag: u64, value_len: u32) -> IndexEntry {
    IndexEntry {
        key_len: 8,
        value_len,
        payload: Payload::synthetic(value_len, tag),
        segs: SegList::new(),
    }
}

/// One step of the `GlobalStore` oracle campaign; keys are raw
/// `(hash, fingerprint)` pairs so cases can aim at the table's layout.
#[derive(Debug, Clone)]
enum IndexOp {
    /// `insert`, tagging the entry with this value length.
    Put(u64, u64, u32),
    /// Rewrite an entry in place through `get_mut`.
    Edit(u64, u64, u32),
    Remove(u64, u64),
}

/// A case over a small key universe built to stress an open-addressed
/// table: hashes that share their low bits (one home slot, long runs),
/// hashes whose low bits are all ones (runs that wrap past the table's
/// end), random hashes, and up to three fingerprints per hash. Enough
/// distinct keys are live at once to cross several growth points.
fn index_ops(rng: &mut DeterministicRng) -> Vec<IndexOp> {
    let universe: Vec<(u64, u64)> = (0..rng.between(8, 400))
        .map(|_| {
            let high = rng.below(256) << 56;
            let hash = match rng.below(3) {
                0 => high | rng.below(4),
                1 => high | ((u64::MAX >> 8) - rng.below(4)),
                _ => rng.next_u64(),
            };
            (hash, rng.below(3))
        })
        .collect();
    (0..rng.between(1, 3 * universe.len() as u64))
        .map(|_| {
            let (h, fp) = universe[rng.below(universe.len() as u64) as usize];
            let tag = rng.below(10_000) as u32;
            match rng.below(20) {
                0..=10 => IndexOp::Put(h, fp, tag),
                11..=13 => IndexOp::Edit(h, fp, tag),
                _ => IndexOp::Remove(h, fp),
            }
        })
        .collect()
}

/// `GlobalStore` answers every op as a `BTreeMap` does; after every
/// remove (which may shift a run) every survivor is still found, and at
/// the end every key the case touched is present iff the model has it.
fn index_matches_btreemap<const SEG: usize>(ops: &[IndexOp]) -> Result<(), String> {
    let mut store = GlobalStore::<SEG>::default();
    let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let tagged = |tag: u32| entry(tag as u64, tag);
    let survivors_found = |store: &GlobalStore<SEG>, model: &BTreeMap<(u64, u64), u32>| {
        model
            .iter()
            .all(|(&(h, fp), &tag)| store.get(h, fp) == Some(&tagged(tag)))
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            IndexOp::Put(h, fp, tag) => {
                let old = store.insert(h, fp, tagged(tag)).map(|e| e.value_len);
                assert_eq!(old, model.insert((h, fp), tag), "step {step}: {op:?}");
            }
            IndexOp::Edit(h, fp, tag) => {
                let old = store
                    .get_mut(h, fp)
                    .map(|e| std::mem::replace(e, tagged(tag)).value_len);
                let want = model.get_mut(&(h, fp)).map(|v| std::mem::replace(v, tag));
                assert_eq!(old, want, "step {step}: {op:?}");
            }
            IndexOp::Remove(h, fp) => {
                let old = store.remove(h, fp).map(|e| e.value_len);
                assert_eq!(old, model.remove(&(h, fp)), "step {step}: {op:?}");
                assert!(survivors_found(&store, &model), "step {step}: {op:?}");
            }
        }
        assert_eq!(store.len(), model.len() as u64, "step {step}: {op:?}");
        assert_eq!(store.is_empty(), model.is_empty(), "step {step}");
    }
    assert!(survivors_found(&store, &model));
    for op in ops {
        let (IndexOp::Put(h, fp, _) | IndexOp::Edit(h, fp, _) | IndexOp::Remove(h, fp)) = *op;
        assert_eq!(store.get(h, fp).is_some(), model.contains_key(&(h, fp)));
    }
    Ok(())
}

#[test]
fn global_store_matches_a_btreemap_oracle() {
    check(
        0..64,
        index_ops,
        |_| None,
        index_matches_btreemap::<SEGMENT_SLOTS>,
    );
}

/// The same campaign on 64-slot segments, where a case's up to 400 keys
/// split segments (from 57 records on), double the directory, and wrap
/// and remove inside runs of split segments. The cases' hashes differ in
/// their top 8 bits, so splits have bits to split on.
#[test]
fn global_store_matches_a_btreemap_oracle_through_splits() {
    check(0..64, index_ops, |_| None, index_matches_btreemap::<64>);
}

/// One long case on 64-slot segments: 20 000 fresh keys with updates,
/// edits and removals mixed in (hundreds of segments, a directory of 2^9
/// or more), and a removal after every 64th insert, so the oracle looks
/// every survivor up again while segments keep splitting.
#[test]
fn global_store_keeps_every_record_through_hundreds_of_splits() {
    let mut rng = DeterministicRng::seed_from(0x5E6);
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut ops = Vec::new();
    for tag in 0..20_000u32 {
        let (h, fp) = (rng.next_u64(), rng.below(3));
        ops.push(IndexOp::Put(h, fp, tag));
        live.push((h, fp));
        let (h, fp) = live[rng.below(live.len() as u64) as usize];
        match rng.below(16) {
            _ if tag % 64 == 63 => {
                ops.push(IndexOp::Remove(h, fp));
                live.retain(|&k| k != (h, fp));
            }
            0 => ops.push(IndexOp::Put(h, fp, tag)),
            1 => ops.push(IndexOp::Edit(h, fp, tag)),
            _ => {}
        }
    }
    assert!(live.len() >= 19_000, "{} live keys", live.len());
    index_matches_btreemap::<64>(&ops).unwrap();
}

/// One long case through the same oracle at the devices' segment size.
/// It grows the first segment to 2^17 slots (10 MiB), past the 4 MiB
/// from which a new table is advised onto huge pages before it is
/// filled, and on to the first split, at 114 688 records: 160 000 fresh
/// keys with updates, edits and removals mixed in, and a removal right
/// after every doubling and after the split, so the oracle looks every
/// survivor up in each newly grown table and in both halves.
#[test]
fn global_store_keeps_every_record_past_the_huge_page_threshold() {
    let mut rng = DeterministicRng::seed_from(0x7AB1E);
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut ops = Vec::new();
    let mut grown_at = 0;
    for tag in 0..160_000u32 {
        // The first segment doubles on the insert that first finds 3, 7
        // or 7 * 2^j records in it, and splits at 7 * 2^14 = 114 688.
        let len = live.len();
        let grows =
            len > grown_at && (len == 3 || (len.is_multiple_of(7) && (len / 7).is_power_of_two()));
        if grows {
            grown_at = len;
        }
        let (h, fp) = (rng.next_u64(), rng.below(3));
        ops.push(IndexOp::Put(h, fp, tag));
        live.push((h, fp));
        let (h, fp) = live[rng.below(live.len() as u64) as usize];
        match rng.below(16) {
            _ if grows => {
                ops.push(IndexOp::Remove(h, fp));
                live.retain(|&k| k != (h, fp));
            }
            0 => ops.push(IndexOp::Put(h, fp, tag)),
            1 => ops.push(IndexOp::Edit(h, fp, tag)),
            _ => {}
        }
    }
    assert!(live.len() >= 140_000, "{} live keys", live.len());
    index_matches_btreemap::<SEGMENT_SLOTS>(&ops).unwrap();
}

/// The hint a cluster router gives before its replica legs: on a device
/// that has never stored a key (so an index with no slots) it is a no-op.
#[test]
fn prefetching_a_key_on_an_empty_device_changes_nothing() {
    let mut dev = KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    );
    for key in [&b"user.0000"[..], b"\xff\xff\xff\xff\xff\xff\xff\xff"] {
        dev.prefetch_key(key, key_hash(key));
    }
    assert!(dev.is_empty());
    let l = dev.retrieve(SimTime::ZERO, b"user.0000").expect("retrieve");
    assert_eq!(l.value, None);
}

/// Bloom filters never produce false negatives, for any insert set and
/// any bits-per-key setting.
#[test]
fn bloom_no_false_negatives() {
    let mut rng = DeterministicRng::seed_from(0xB100);
    for case in 0..256 {
        let n = rng.between(1, 300);
        let hashes: Vec<u64> = (0..n)
            .map(|_| key_hash(&rng.next_u64().to_le_bytes()))
            .collect();
        let mut f = BloomFilter::new(n, 2 + case % 14);
        hashes.iter().for_each(|&h| f.insert(h));
        assert!(hashes.iter().all(|&h| f.may_contain(h)));
    }
}

/// Iterator buckets return exactly the live keys of a prefix, for any
/// interleaving of inserts and removals.
fn buckets_track_live_keys(ops: &[(u8, bool)]) -> Result<(), String> {
    let mut ib = IterBuckets::new(true);
    let mut live = [false; 256];
    for &(k, insert) in ops {
        // Like the device: insert only absent keys, remove only live ones.
        match (insert, std::mem::replace(&mut live[k as usize], insert)) {
            (true, false) => ib.insert(&[b'p', b'f', b'x', b'.', k]),
            (false, true) => ib.remove(&[b'p', b'f', b'x', b'.', k]),
            _ => {}
        }
    }
    let handle = ib.open(*b"pfx.");
    let keys = ib.next(handle, usize::MAX).expect("open handle");
    let mut got: Vec<u8> = keys.iter().map(|k| k[4]).collect();
    got.sort_unstable();
    let want: Vec<u8> = (0..=255).filter(|&k| live[k as usize]).collect();
    assert_eq!(got, want);
    Ok(())
}

#[test]
fn iter_buckets_track_live_keys() {
    check(0..48, key_steps(150), |_| None, buckets_track_live_keys);
}

/// After any sequence of stores, every blob reads back, no two live
/// segments overlap within a flash page and no page holds more than its
/// payload budget.
fn pages_respect_their_budget(sizes: &[u32]) -> Result<(), String> {
    let cfg = KvConfig::small();
    let mut dev = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
    let key = |i: usize| format!("pack.{i:06}").into_bytes();
    let mut t = SimTime::ZERO;
    for (i, &v) in sizes.iter().enumerate() {
        let value = Payload::synthetic(v, i as u64);
        t = dev.store(t, &key(i), value).expect("store");
    }
    let mut pages: PrehashedMap<(BlockId, u32), Vec<(u32, u32)>> = PrehashedMap::default();
    for (i, &v) in sizes.iter().enumerate() {
        let l = dev.retrieve(t, &key(i)).expect("retrieve");
        assert_eq!(l.value, Some(Payload::synthetic(v, i as u64)));
        t = l.at;
        for s in dev.segments_of(&key(i)).expect("live key") {
            let page = pages.entry((s.block, s.page)).or_default();
            page.push((s.offset, s.alloc));
        }
    }
    for (page, mut segs) in pages {
        segs.sort_unstable();
        let mut cursor = 0u32;
        for (off, alloc) in segs {
            assert!(off >= cursor, "segments overlap in {page:?}");
            cursor = off + alloc;
        }
        assert!(cursor <= cfg.page_payload_bytes, "{page:?}: {cursor} B");
    }
    Ok(())
}

#[test]
fn no_page_overflows_its_payload_budget() {
    let sizes = |rng: &mut DeterministicRng| -> Vec<u32> {
        let n = rng.between(1, 79);
        (0..n).map(|_| rng.below(60_000) as u32).collect()
    };
    let halve = |&v: &u32| (v > 0).then_some(v / 2);
    check(0..48, sizes, halve, pages_respect_their_budget);
    // Split blobs whose continuation pages interleave with small
    // shared-page blobs: a case the retired proptest suite had recorded.
    let recorded = [
        25046, 25046, 25046, 50118, 25046, 25046, 12758, 25046, 12182, 50118, 22358, 2582, 50118,
        25046, 2070, 22870, 2070, 25046, 50118, 25046, 25046, 25046, 0, 25046, 25046, 25046,
    ];
    pages_respect_their_budget(&recorded).unwrap();
}

/// Blob layout planning conserves bytes and respects page budgets for
/// arbitrary shapes.
#[test]
fn blob_layout_conserves_bytes() {
    let cfg = KvConfig::pm983_scaled();
    let mut rng = DeterministicRng::seed_from(0xB10B);
    for _ in 0..2_000 {
        let (key_len, value_len) = (rng.between(4, 255), rng.below(2 << 20));
        let l = BlobLayout::plan(&cfg, key_len as usize, value_len);
        assert_eq!(l.user_bytes, key_len + value_len);
        assert!(l.allocated_bytes() >= l.user_bytes);
        for (&a, &r) in l.segment_alloc.iter().zip(&l.segment_raw) {
            assert!(a >= r && r <= cfg.page_payload_bytes);
            assert!(a >= cfg.alloc_unit || l.segments() == 1);
        }
        // Raw bytes across segments carry the value exactly once.
        let raw: u64 = l.segment_raw.iter().map(|&r| r as u64).sum();
        let headers = (l.segments() as u64 - 1) * cfg.seg_header_bytes as u64;
        assert_eq!(raw, value_len + cfg.meta_bytes as u64 + key_len + headers);
    }
}

/// Sustained overwrite churn: the hash-scattered log plus greedy GC
/// wear blocks within a bounded spread, not one corner of the device.
#[test]
fn gc_spreads_wear_across_blocks() {
    let cfg = KvConfig::small();
    let mut dev = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
    let mut t = SimTime::ZERO;
    for round in 0..6u64 {
        for i in 0..700u64 {
            let key = format!("wear.{i:06}");
            let value = Payload::synthetic(4096, round);
            t = dev.store(t, key.as_bytes(), value).unwrap();
        }
    }
    let (_, mean, max) = dev.flash().wear_summary();
    assert!(mean > 1.0, "churn must have erased blocks (mean {mean})");
    let bound = mean * 6.0 + 4.0;
    assert!(
        (max as f64) < bound,
        "wear concentrated: {max} vs {mean:.1}"
    );
}
