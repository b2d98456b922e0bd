//! Heap-allocation budget of the hash store's write path: a write block
//! reserves its key list once, on its first record, instead of growing
//! it by doubling as records arrive. One test function on purpose: the
//! counter is process-wide, and libtest runs separate tests on parallel
//! threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_core::Payload;
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_hash_store::{HashStore, HashStoreConfig};
use kvssd_sim::SimTime;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a count of every allocation request (the
/// same wrapper as `crates/core/tests/alloc_budget.rs`).
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

/// Keys per fill: 4 KiB values, 31 records to a 128 KiB write block.
const KEYS: u64 = 2_000;

/// A fill of 16 B keys allocates one key list per write block it opens,
/// each reserved whole when the block takes its first record; growing
/// each list by doubling would cost four per block instead (capacity 4,
/// 8, 16, 32). Index keys and key-list entries are inline `KeyBuf`s,
/// so the keys themselves allocate nothing. The measured fill goes into a
/// store that held the same keys twice and deleted them, so the index
/// table is already at size and the device's write buffer too; defrag is
/// off, so every block the fill opens is one never used before. What
/// else may allocate is one growth of the device's victim heap, which
/// keeps a snapshot per sector rewrite until GC pops it.
#[test]
fn a_fill_allocates_one_key_list_per_new_write_block() {
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
    let config = HashStoreConfig {
        defrag_threshold: 0.0,
        ..HashStoreConfig::aerospike_like()
    };
    let mut db = HashStore::new(device, config);
    let mut t = SimTime::ZERO;
    let mut kb = [0u8; 16];
    let mut fill = |db: &mut HashStore, t: &mut SimTime| {
        for i in 0..KEYS {
            *t = db.put(*t, key(&mut kb, i), Payload::synthetic(4096, i));
        }
    };
    for _ in 0..2 {
        fill(&mut db, &mut t);
        for i in 0..KEYS {
            (t, _) = db.delete(t, key(&mut [0; 16], i));
        }
    }
    let opened_before = db.stats().blocks_flushed;
    let allocs = allocs_during(|| fill(&mut db, &mut t));
    let opened = db.stats().blocks_flushed - opened_before;
    assert_eq!(db.stats().defrag_copies, 0);
    assert!(opened >= KEYS / 31 - 1, "{opened} write blocks opened");
    assert!(
        allocs <= opened + 1,
        "{allocs} allocations for {KEYS} keys and {opened} write blocks"
    );
}
