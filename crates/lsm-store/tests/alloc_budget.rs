//! Heap-allocation budget of the LSM store's host paths.
//!
//! The repo benchmark's `allocs_per_kop` on `lsm_block_mixed` is the
//! number a claim is held to, but it lives in a frozen workspace of its
//! own; this is the same count inside the crate, so a regression fails
//! `cargo test` next to the code that caused it. One test function on
//! purpose: the counter is process-wide, and libtest runs separate tests
//! on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_core::Payload;
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_host_stack::ExtFs;
use kvssd_lsm_store::{LsmConfig, LsmStore};
use kvssd_sim::{DeterministicRng, SimTime};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a count of every allocation request
/// (`benchmark/benches/alloc.rs` is the same wrapper).
struct CountingAlloc;

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged, so `System`'s `GlobalAlloc` guarantees carry over; the
// counter is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: the counter publishes no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, as
        // `dealloc`'s contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // and `new_size` is non-zero, per `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// 16 B keys written into a caller-owned buffer (no allocation).
fn key(buf: &mut [u8; 16], i: u64) -> &[u8] {
    let mut n = i;
    for b in buf.iter_mut().rev() {
        *b = b'0' + (n % 10) as u8;
        n /= 10;
    }
    buf
}

/// Keys in the store.
const KEYS: u64 = 20_000;
/// Operations per measured window.
const OPS: u64 = 20_000;

#[test]
fn lsm_store_host_paths_stay_off_the_heap() {
    let geometry = Geometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 32,
        pages_per_block: 16,
        page_bytes: 32 * 1024,
    };
    let device = BlockSsd::new(
        geometry,
        FlashTiming::pm983_like(),
        BlockFtlConfig::pm983_like(),
    );
    let mut db = LsmStore::new(ExtFs::format(device), LsmConfig::tiny());
    let mut t = SimTime::ZERO;
    let mut kb = [0u8; 16];
    for i in 0..KEYS {
        t = db.put(t, key(&mut kb, i), Payload::synthetic(200, i));
    }
    let mut rng = DeterministicRng::seed_from(41);
    let mut update = |db: &mut LsmStore, t: &mut SimTime| {
        let i = rng.below(KEYS);
        *t = db.put(*t, key(&mut kb, i), Payload::synthetic(200, i));
    };
    // Warm up: caches full, every recycled buffer at its working size.
    for _ in 0..OPS {
        update(&mut db, &mut t);
    }

    // Each update on its own, so the ones that flush (and compact) can
    // be told from the ones that only append to the WAL and memtable.
    let (flushes, compactions) = (db.stats().flushes, db.stats().compactions);
    let (mut total, mut quiet, mut quiet_ops) = (0, 0, 0);
    for _ in 0..OPS {
        let before = db.stats().flushes;
        let allocs = allocs_during(|| update(&mut db, &mut t));
        total += allocs;
        if db.stats().flushes == before {
            quiet += allocs;
            quiet_ops += 1;
        }
    }
    let stats = db.stats();
    let (flushed, compacted) = (stats.flushes - flushes, stats.compactions - compactions);
    assert!(
        flushed > 20 && compacted > 5 && quiet_ops > OPS * 9 / 10,
        "the measured updates must flush and compact: {flushed} / {compacted}"
    );
    assert_eq!(quiet, 0, "an update that does not flush must not allocate");
    // Measured: 34 (1.7 per 1 000 updates), all of them in flushes and
    // compactions, which take their buffers from the tables compaction
    // consumed: where a compaction needs more than its bounded spare
    // lists hold, and the level and cache vectors' growth steps. Before
    // the buffers were recycled: 8 368. The tiny config flushes every
    // ~280 updates.
    assert!(
        total * 1_000 <= 3 * OPS,
        "{total} allocations in {OPS} updates with {flushed} flushes and {compacted} \
         compactions (budget: 3 per 1 000)"
    );

    // Uniform reads over 1.1x the keys: memtable hits, table hits and
    // Bloom-answered misses. The first window grows the caches' page
    // vectors to the pages reads reach; after it, nothing allocates.
    let mut rng = DeterministicRng::seed_from(43);
    let mut kb = [0u8; 16];
    let mut hits = 0u64;
    let mut reads = |db: &mut LsmStore, t: &mut SimTime| {
        allocs_during(|| {
            for _ in 0..OPS {
                let i = rng.below(KEYS + KEYS / 10);
                let (done, got) = db.get(*t, key(&mut kb, i));
                *t = done;
                hits += got.is_some() as u64;
            }
        })
    };
    reads(&mut db, &mut t);
    let read_allocs = reads(&mut db, &mut t);
    assert!(0 < hits && hits < 2 * OPS, "hits and misses both occur");
    // Measured: 1 (a page vector reaching a page no read had reached).
    assert!(
        read_allocs <= 2,
        "{read_allocs} allocations in {OPS} warm reads (budget: 2)"
    );
}
