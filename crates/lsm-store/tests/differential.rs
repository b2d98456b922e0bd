//! Always-on differential test: `LsmStore` against a `BTreeMap` oracle
//! over seeded random put / delete / get / scan sequences (in-repo
//! xoshiro PRNG, no external dependency). The tiny configuration
//! flushes every few dozen puts and compacts through L1 into L2, so
//! every answer crosses the memtable, L0 newest-first ranking, the
//! consuming compaction merge and the per-level candidate choice.
//! A third of the keys are longer than `KeyBuf::INLINE` and each has a
//! short key as a strict prefix, so heap-spilled keys must order
//! correctly against inline ones at every one of those steps.

use std::collections::BTreeMap;
use std::ops::Bound;

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_core::{KeyBuf, Payload};
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_host_stack::ExtFs;
use kvssd_lsm_store::{LsmConfig, LsmStore};
use kvssd_sim::{DeterministicRng, SimTime};

const KEYS: u64 = 600;
const OPS: u64 = 20_000;

fn store() -> LsmStore {
    let g = Geometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 16,
        pages_per_block: 16,
        page_bytes: 32 * 1024,
    };
    let dev = BlockSsd::new(g, FlashTiming::pm983_like(), BlockFtlConfig::pm983_like());
    LsmStore::new(ExtFs::format(dev), LsmConfig::tiny())
}

/// Key `i` of the population: every third id spills to the heap and
/// extends its neighbour's inline key.
fn key(i: u64) -> Vec<u8> {
    if i.is_multiple_of(3) {
        format!("key{:04}/spilled-beyond-the-inline-buffer", i + 1).into_bytes()
    } else {
        format!("key{i:04}").into_bytes()
    }
}

fn check_scan(
    db: &mut LsmStore,
    model: &BTreeMap<Vec<u8>, Payload>,
    t: SimTime,
    from: &[u8],
    limit: usize,
) -> SimTime {
    let (done, got) = db.scan(t, from, limit);
    let want: Vec<(&[u8], &Payload)> = model
        .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
        .take(limit)
        .map(|(k, v)| (k.as_slice(), v))
        .collect();
    let got: Vec<(&[u8], &Payload)> = got.iter().map(|(k, v)| (k.as_ref(), v)).collect();
    assert_eq!(got, want, "scan from {:?}", String::from_utf8_lossy(from));
    done
}

fn run(seed: u64) {
    let mut rng = DeterministicRng::seed_from(seed);
    let mut db = store();
    let mut model: BTreeMap<Vec<u8>, Payload> = BTreeMap::new();
    let mut t = SimTime::ZERO;
    for op in 0..OPS {
        let k = key(rng.below(KEYS));
        match rng.below(100) {
            0..=44 => {
                let v = Payload::synthetic(rng.between(256, 2048) as u32, op);
                t = db.put(t, &k, v.clone());
                model.insert(k, v);
            }
            45..=59 => {
                t = db.delete(t, &k);
                model.remove(&k);
            }
            60..=89 => {
                let (done, got) = db.get(t, &k);
                t = done;
                assert_eq!(got.as_ref(), model.get(&k), "seed {seed} op {op}");
            }
            _ => t = check_scan(&mut db, &model, t, &k, rng.between(1, 25) as usize),
        }
        assert_eq!(db.len(), model.len() as u64, "seed {seed} op {op}");
        let bytes: u64 = model.iter().map(|(k, v)| k.len() as u64 + v.len()).sum();
        assert_eq!(db.user_bytes(), bytes, "seed {seed} op {op}");
    }
    let stats = db.stats();
    assert!(
        stats.flushes > 50 && stats.compactions > 10,
        "the run must cross flush and compaction: {stats:?}"
    );
    // Everything again once the memtable is empty and compaction idle.
    t = db.flush_all(t);
    for i in 0..KEYS {
        let (done, got) = db.get(t, &key(i));
        t = done;
        assert_eq!(got.as_ref(), model.get(&key(i)), "seed {seed} key {i}");
    }
    check_scan(&mut db, &model, t, b"", KEYS as usize + 1);
}

#[test]
fn population_mixes_inline_and_spilled_keys() {
    let spilled = (0..KEYS)
        .filter(|&i| matches!(KeyBuf::new(&key(i)), KeyBuf::Heap(_)))
        .count();
    assert_eq!(spilled as u64, KEYS / 3);
    // A spilled key sorts directly after the inline key it extends.
    assert!(key(1) < key(0) && key(0) < key(2));
    assert!(KeyBuf::new(&key(1)) < KeyBuf::new(&key(0)));
}

#[test]
fn lsm_store_matches_btreemap_oracle_seed_1() {
    run(1);
}

#[test]
fn lsm_store_matches_btreemap_oracle_seed_2() {
    run(2);
}

#[test]
fn lsm_store_matches_btreemap_oracle_seed_3() {
    run(3);
}
