//! The LSM store's pinned reference history.
//!
//! Zipfian puts, gets and deletes, a few scans and a final `flush_all`
//! on `LsmConfig::tiny()` with a 32-page page cache and a 4-block block
//! cache, so both caches evict throughout every run. Every completion
//! instant, every answer, every `LsmStats` and `FsStats` counter and the
//! store's `len`, `user_bytes` and `disk_bytes` are folded into one word
//! per seed. The pins were computed on the store as it stood before its
//! memtable, caches and table search were rebuilt, and are never
//! re-pinned: a host-side change to any of them must reproduce this
//! history bit for bit, cache hit/miss order included.

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_core::Payload;
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_host_stack::ExtFs;
use kvssd_lsm_store::{LsmConfig, LsmStore};
use kvssd_sim::{digest64, mix64, DeterministicRng, SimDuration, SimTime, ZipfianDistribution};

/// Keys in the population.
const KEYS: u64 = 900;
/// Operations per run.
const OPS: u64 = 6_000;

/// Key of rank `i`: a shared prefix, every third key spilled past the
/// 22 B inline limit, and every seventh cut to six bytes and extended by
/// `i`'s eight big-endian bytes (zero bytes included).
fn key(i: u64) -> Vec<u8> {
    let mut k = format!("user{:06}", mix64(i) % 1_000_000).into_bytes();
    if i.is_multiple_of(3) {
        k.extend_from_slice(b"-spilled-past-inline");
    }
    if i.is_multiple_of(7) {
        k.truncate(6);
        k.extend_from_slice(&i.to_be_bytes());
    }
    k
}

fn answer(v: Option<&Payload>) -> u64 {
    match v {
        None => u64::MAX,
        Some(Payload::Synthetic { len, tag }) => mix64(*tag) ^ u64::from(*len),
        Some(Payload::Bytes(b)) => digest64(b),
    }
}

/// Runs one seed's history and folds it.
fn history(seed: u64) -> u64 {
    let geometry = Geometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 16,
        pages_per_block: 16,
        page_bytes: 32 * 1024,
    };
    let device = BlockSsd::new(
        geometry,
        FlashTiming::pm983_like(),
        BlockFtlConfig::pm983_like(),
    );
    let tiny = LsmConfig::tiny();
    let config = LsmConfig {
        page_cache_bytes: 32 * 4096,
        block_cache_bytes: 4 * tiny.block_bytes,
        stall_lag: SimDuration::from_micros(300),
        host_cores: 32,
        ..tiny
    };
    let mut db = LsmStore::new(ExtFs::format(device), config);
    let zipf = ZipfianDistribution::new(KEYS, 0.9);
    let mut rng = DeterministicRng::seed_from(seed);
    let mut fold = seed;
    let mut mix = |v: u64| fold = mix64(fold ^ v);
    // Open loop: ops issue on their own clock, in bursts that outrun the
    // background worker (write stalls) between idle gaps.
    let mut issue = SimTime::ZERO;
    for op in 0..OPS {
        let gap = if op % 2_000 < 1_200 { 200 } else { 60_000 };
        issue += SimDuration::from_nanos(rng.below(gap));
        let k = key(zipf.sample(&mut rng));
        let done = match rng.below(20) {
            0..=9 => {
                let len = [0, 24, 200, 900, 3_000][rng.below(5) as usize];
                db.put(issue, &k, Payload::synthetic(len, op))
            }
            10 => db.put(issue, &k, Payload::from_bytes(op.to_le_bytes().to_vec())),
            11 | 12 => db.delete(issue, &k),
            _ if op % 997 == 0 => {
                let (done, got) = db.scan(issue, &k, 1 + rng.below(30) as usize);
                mix(got.len() as u64);
                for (key, value) in &got {
                    mix(digest64(key));
                    mix(answer(Some(value)));
                }
                done
            }
            _ => {
                let (done, got) = db.get(issue, &k);
                mix(answer(got.as_ref()));
                done
            }
        };
        mix(done.as_nanos());
        if op % 1_500 == 1_499 {
            mix(db.len() ^ db.user_bytes() << 20 ^ db.disk_bytes() << 40);
        }
    }
    let end = db.flush_all(issue);
    mix(end.as_nanos());
    let (st, fs) = (db.stats(), db.fs().stats());
    // The history is meant to flush, compact, stall and evict from both
    // caches in every run.
    assert!(
        st.flushes > 20 && st.compactions > 5 && st.stalls > 0,
        "{} / {} / {}",
        st.flushes,
        st.compactions,
        st.stalls
    );
    assert!(st.block_cache_misses > 100 * 4 && fs.cache_misses > 10 * 32);
    let store = [db.len(), db.user_bytes(), db.disk_bytes()];
    for v in st.values().into_iter().chain(fs.values()).chain(store) {
        mix(v);
    }
    fold
}

/// `history` per seed, computed before the store's host-side rebuild.
const LSM_REFERENCE_HISTORY: [(u64, u64); 3] = [
    (5, 0x4104_08AF_08AF_7743),
    (17, 0xD13B_4A99_B301_E91C),
    (0x15A, 0x86EF_B711_3889_3088),
];

#[test]
fn lsm_store_matches_pinned_reference_history() {
    for (seed, want) in LSM_REFERENCE_HISTORY {
        let got = history(seed);
        assert_eq!(
            got, want,
            "LSM history diverged at seed {seed}: {got:#018X}"
        );
    }
}
