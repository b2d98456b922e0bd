//! Heap-allocation budget of the workload runner: `run_phase` sizes its
//! op batch once, so a phase allocates the same whatever its op count.
//! One test function on purpose: the counter is process-wide, and
//! libtest runs separate tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kvssd_kvbench::{run_phase, AccessPattern, KvStore, OpMix, SpaceUsage, WorkloadSpec};
use kvssd_sim::{SimDuration, SimTime};

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

/// A store that keeps nothing: every op takes 1 µs and reads hit, so
/// whatever a phase allocates is the runner's own.
struct Null;

impl KvStore for Null {
    fn name(&self) -> &'static str {
        "null"
    }

    fn insert(&mut self, now: SimTime, _key: &[u8], _value_len: u32, _tag: u64) -> SimTime {
        now + SimDuration::from_micros(1)
    }

    fn read(&mut self, now: SimTime, _key: &[u8]) -> (SimTime, bool) {
        (now + SimDuration::from_micros(1), true)
    }

    fn delete(&mut self, now: SimTime, _key: &[u8]) -> SimTime {
        now + SimDuration::from_micros(1)
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        now
    }

    fn host_cpu_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: 0,
            stored_bytes: 0,
        }
    }
}

/// One `run_phase` call allocates a fixed count, whether it plans one op,
/// one full batch or eighty: the op batch is sized once, up front, for
/// the most it will hold, and reused batch after batch. A batch grown by
/// doubling allocates more the more ops its first batch plans. (Every
/// phase here ends inside one 100 ms bandwidth window, so the series
/// never grows.) Short keys have a base-36 body and 32 B keys a decimal
/// one; neither form allocates per key.
#[test]
fn a_phase_allocates_the_same_whatever_its_op_count() {
    for key_bytes in [16, 32] {
        let allocs = |ops: u64| {
            let spec = WorkloadSpec::new("budget", ops, 10_000)
                .pattern(AccessPattern::Uniform)
                .mix(OpMix::Mixed { read_pct: 50 })
                .key_bytes(key_bytes)
                .queue_depth(4)
                .seed(48);
            allocs_during(|| drop(run_phase(&mut Null, &spec, SimTime::ZERO)))
        };
        let one_batch = allocs(256);
        for ops in [1, 7, 100, 257, 5_000, 20_480] {
            assert_eq!(allocs(ops), one_batch, "{key_bytes} B keys, {ops} ops");
        }
    }
}
