//! Heap-allocation budget of the KV-FTL's host hot paths.
//!
//! The repo benchmark's `allocs_per_kop` is the number a claim is held
//! to, but it lives in a frozen workspace of its own; this is the same
//! count inside the crate, so a regression fails `cargo test` next to the
//! code that caused it. One test function on purpose: the counters are
//! process-wide, and libtest runs separate tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use kvssd_core::index::{GlobalStore, IndexEntry, SegList, SEGMENT_SLOTS};
use kvssd_core::inline_vec::InlineVec;
use kvssd_core::{KvConfig, KvSsd, Payload};
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_sim::rng::mix64;
use kvssd_sim::{DeterministicRng, SimDuration, SimTime};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE` since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Notes `bytes` more live bytes and raises the high-water mark to match.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The system allocator plus a count of every allocation request
/// (`benchmark/benches/alloc.rs` is the same wrapper) and of live bytes.
struct CountingAlloc;

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged, so `System`'s `GlobalAlloc` guarantees carry over; the
// counter is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: the counters publish no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, as
        // `dealloc`'s contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Counted as the new block arriving before the old one leaves,
        // which is what a realloc that moves the block holds.
        grew(new_size);
        shrank(layout.size());
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

/// The live bytes `f` adds, and the most it held above the start at
/// any moment while it ran.
fn live_and_peak_during(f: impl FnOnce()) -> (u64, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    let (live, peak) = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
    (live.saturating_sub(before), peak - before)
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

fn inline_vec_spill_costs_one_allocation_per_growth_step() {
    let mut v: InlineVec<u64, 1> = InlineVec::new();
    assert_eq!(allocs_during(|| v.push(1)), 0, "first element is inline");
    assert_eq!(allocs_during(|| v.push(2)), 1, "the spill itself");
    // Capacity 2 -> 4 -> 8: one allocation each time it runs out.
    assert_eq!(allocs_during(|| v.push(3)), 1);
    assert_eq!(allocs_during(|| v.push(4)), 0);
    assert_eq!(allocs_during(|| (5..=8).for_each(|x| v.push(x))), 1);
    assert_eq!(v.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    let from_vec = vec![1u64, 2, 3];
    assert_eq!(
        allocs_during(|| drop(InlineVec::<u64, 1>::from(from_vec))),
        0,
        "adopting a Vec reuses its buffer"
    );
    let mut copy = None;
    assert_eq!(allocs_during(|| copy = Some(v.clone())), 1);
    assert_eq!(copy, Some(v));
}

/// The global index grows one segment at a time and never holds two
/// copies of itself. Its first segment doubles up to 8 MiB; from there
/// a full segment splits in place, into itself and one new segment. So
/// at no moment while 300 000 keys go in (four segments, 32 MiB) does
/// the heap hold more than the finished index plus one segment. A table
/// that grows by doubling whole peaks at 1.5 times its final size
/// instead: the old table beside the new one, twice its size.
fn global_index_never_holds_two_copies_of_itself() {
    let segment = (SEGMENT_SLOTS * size_of::<((u64, u64), IndexEntry)>()) as u64;
    let mut index = GlobalStore::new();
    let (live, peak) = live_and_peak_during(|| {
        for i in 0..300_000u64 {
            let entry = IndexEntry {
                key_len: 16,
                payload: Payload::synthetic(4096, i),
                segs: SegList::new(),
            };
            index.insert(mix64(i), i, entry);
        }
    });
    assert_eq!(index.len(), 300_000);
    assert!(live >= 4 * segment, "{live} B live: four segments");
    assert!(
        peak <= live + segment,
        "peak {peak} B > {live} B live + one {segment} B segment"
    );
}

/// One 4 KiB update of a uniformly chosen key among `pairs`.
fn update(d: &mut KvSsd, t: &mut SimTime, pairs: u64, rng: &mut DeterministicRng) {
    let i = rng.below(pairs);
    let mut kb = [0u8; 16];
    *t = d
        .store(*t, key(&mut kb, i), Payload::synthetic(4096, i))
        .unwrap();
}

/// One checked uniform read over 1.1x the `pairs` stored keys; true on a
/// hit.
fn read(d: &mut KvSsd, t: &mut SimTime, pairs: u64, rng: &mut DeterministicRng) -> bool {
    let i = rng.below(pairs + pairs / 10);
    let mut kb = [0u8; 16];
    let got = d.retrieve(*t, key(&mut kb, i)).unwrap();
    *t = got.at;
    match got.value {
        Some(v) => assert_eq!(v, Payload::synthetic(4096, i)),
        None => assert!(i >= pairs, "key {i} lost"),
    }
    i < pairs
}

/// Reverse-map buffers change hands between blocks (while the collector
/// is idle, a fully invalid closed block's buffer goes to a spare list
/// that opening blocks draw from) but are never freed, and a buffer lent
/// to a block opening for the first time comes back once GC runs. So once
/// the device is at steady GC, overwriting its 1 KiB values allocates
/// nothing, erase cycle after erase cycle. Pages are only ever programmed
/// full (no partial-flush timeout), so every block takes the same number
/// of refs and a buffer that changes hands never has to grow.
fn ref_buffers_are_recycled_not_reallocated() {
    // 128 blocks of 16 pages (120 for data) under the scaled firmware
    // constants, two thirds full of keys written in random order.
    let geometry = Geometry {
        blocks_per_plane: 16,
        pages_per_block: 16,
        ..Geometry::small()
    };
    let config = KvConfig {
        iterator_buckets: false,
        partial_flush_timeout: SimDuration::from_secs(3_600),
        ..KvConfig::pm983_scaled()
    };
    let mut d = KvSsd::new(geometry, FlashTiming::pm983_like(), config);
    let data_blocks = d.free_blocks() as u64;
    let pairs = d.space().capacity_bytes / 3 * 2 / 1088;
    let mut rng = DeterministicRng::seed_from(29);
    let mut t = SimTime::ZERO;
    let mut overwrite = |d: &mut KvSsd, t: &mut SimTime| {
        let i = rng.below(pairs);
        let mut kb = [0u8; 16];
        *t = d
            .store(*t, key(&mut kb, i), Payload::synthetic(1024, i))
            .unwrap();
    };
    // The first erase cycle fills the device and starts GC; the second is
    // the first at steady GC, in which the write buffer's residency map
    // (it also holds the keys GC is copying) reaches its working size.
    while d.stats().gc_erases < 2 * data_blocks {
        overwrite(&mut d, &mut t);
    }
    let allocs = allocs_during(|| {
        while d.stats().gc_erases < 8 * data_blocks {
            overwrite(&mut d, &mut t);
        }
    });
    assert_eq!(allocs, 0, "allocations in six erase cycles at steady GC");
}

/// A block that opens with no ref buffer to take over (on a device being
/// filled nothing has died yet, so the spare list stays empty) reserves
/// one in one allocation, sized to the longest ref list a closed block
/// has held, and never grows it as it fills. Grown by doubling instead,
/// a block's buffer cost nine reallocations.
fn a_block_opening_without_a_buffer_allocates_once() {
    let geometry = Geometry {
        blocks_per_plane: 16,
        pages_per_block: 16,
        ..Geometry::small()
    };
    let config = KvConfig {
        iterator_buckets: false,
        partial_flush_timeout: SimDuration::from_secs(3_600),
        ..KvConfig::pm983_scaled()
    };
    let mut d = KvSsd::new(geometry, FlashTiming::pm983_like(), config);
    let data_blocks = d.free_blocks();
    let (mut t, mut kb) = (SimTime::ZERO, [0u8; 16]);
    let (mut opened, mut opening_allocs, mut other_allocs) = (0u32, 0u64, 0u64);
    for i in 0u64.. {
        // Stop short of the soft watermark, where GC starts.
        let free = d.free_blocks();
        if free <= 24 {
            break;
        }
        let allocs = allocs_during(|| {
            t = d
                .store(t, key(&mut kb, i), Payload::synthetic(1024, i))
                .unwrap();
        });
        // Skip the first two stripes of blocks: none of them opens after
        // a block has closed, and the index grows fastest meanwhile.
        if data_blocks - free < 16 {
            continue;
        }
        match free - d.free_blocks() {
            0 => other_allocs += allocs,
            n => {
                opened += n;
                opening_allocs += allocs;
            }
        }
    }
    assert!(opened > 50, "{opened} blocks opened");
    assert!(
        opening_allocs <= u64::from(opened),
        "{opening_allocs} allocations in the stores that opened {opened} blocks"
    );
    // Measured: 8, the other structures' growth steps; with the ref
    // buffers grown by doubling, 628.
    assert!(
        other_allocs <= 8,
        "{other_allocs} allocations in stores that opened no block"
    );
}

#[test]
fn kv_ftl_hot_paths_stay_off_the_heap() {
    inline_vec_spill_costs_one_allocation_per_growth_step();
    a_block_opening_without_a_buffer_allocates_once();
    ref_buffers_are_recycled_not_reallocated();
    global_index_never_holds_two_copies_of_itself();

    // Fig. 6's tiny device, filled to 80 % with 4 KiB values and then
    // updated uniformly: a regime whose foreground GC runs real reclaim
    // rounds. (On the paper's geometry the updates reach foreground GC
    // only through a trigger whose loop finds nothing to do.)
    let config = KvConfig {
        iterator_buckets: false,
        ..KvConfig::small()
    };
    let mut d = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), config);
    let pairs = d.space().capacity_bytes * 8 / 10 / (4096 + 64);
    let mut t = SimTime::ZERO;
    let mut kb = [0u8; 16];
    for i in 0..pairs {
        t = d
            .store(t, key(&mut kb, i), Payload::synthetic(4096, i))
            .unwrap();
    }
    let mut rng = DeterministicRng::seed_from(17);

    // Warm up until both collectors are at work.
    let mut warmup = 0u64;
    while warmup < 20_000
        || d.stats().foreground_gc_events == 0
        || d.stats().gc_copied_segments == 0
    {
        update(&mut d, &mut t, pairs, &mut rng);
        warmup += 1;
        assert!(warmup < 2_000_000, "GC never started");
    }

    const OPS: u64 = 50_000;
    let (copied, foreground) = (d.stats().gc_copied_segments, d.stats().foreground_gc_events);
    let update_allocs = allocs_during(|| {
        for _ in 0..OPS {
            update(&mut d, &mut t, pairs, &mut rng);
        }
    });
    assert!(
        d.stats().gc_copied_segments > copied && d.stats().foreground_gc_events > foreground,
        "the measured updates must include background and foreground GC"
    );
    assert!(
        update_allocs * 1_000 <= 5 * OPS,
        "{update_allocs} allocations in {OPS} updates (budget: 5 per 1 000)"
    );

    // Hits, and misses the Bloom filters mostly answer.
    for _ in 0..1_000 {
        read(&mut d, &mut t, pairs, &mut rng);
    }
    let mut hits = 0;
    let read_allocs = allocs_during(|| {
        for _ in 0..OPS {
            hits += read(&mut d, &mut t, pairs, &mut rng) as u64;
        }
    });
    assert!(0 < hits && hits < OPS, "hits and misses both occur");
    assert_eq!(read_allocs, 0, "retrieve must not allocate");
}
