//! The controller DRAM both firmwares share: the volatile write buffer's
//! bookkeeping and the read cache. Policy stays in each firmware: how it
//! admits, what a hit costs, and how it counts stalls.
//!
//! [`WriteBuffer`] counts the units it holds (bytes under the KV
//! firmware, clusters under the block firmware) and which keys (`(hash,
//! fingerprint)` pairs, or LCNs) a read can still be served from. A
//! segment holds its units from admission until its page's program
//! completes (`leave`), or until a failed program hands it back. A key is
//! resident from [`WriteBuffer::hold`] until its latest program leaves.
//!
//! Segments leave in `(leave, units, key)` order, the order a stalled
//! writer frees space in, and all segments of one program share its
//! `leave`. So `Departures` keeps one heap entry per program (per 16
//! segments of one), keyed by its smallest remaining segment, over a
//! recycled group of the program's segments sorted descending: a drain
//! pops whole groups, a single pop takes a group's last segment and
//! re-keys it in place. The pop order is exactly that of one heap entry
//! per segment, ties included.
//!
//! [`ReadCache`] is the FIFO of the last eight pages read.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::hash::Hash;

use kvssd_sim::{PrehashedMap, SimTime};

use crate::device::{FlashDevice, FlashError};
use crate::geometry::{BlockId, PageAddr};

/// Segments one group holds. A program with more spreads over several
/// groups with the same `leave`, which the heap orders as one.
const GROUP_SEGS: usize = 16;

/// A group's departure: `(leave, units, key)` of its smallest remaining
/// segment, then the group.
type GroupKey<K> = (SimTime, u64, K, u32);

/// One program's remaining `(units, key)` segments, `segs[..len]`,
/// sorted descending so the next to leave is last.
#[derive(Debug)]
struct Group<K> {
    len: usize,
    segs: [(u64, K); GROUP_SEGS],
}

impl<K> Group<K> {
    fn live(&self) -> &[(u64, K)] {
        self.segs.get(..self.len).unwrap_or_default()
    }
}

/// Buffered segments by departure time (see the module docs). Groups
/// live in one slab and are recycled, so it grows like one heap would.
#[derive(Debug)]
struct Departures<K> {
    heap: BinaryHeap<Reverse<GroupKey<K>>>,
    groups: Vec<Group<K>>,
    /// Groups with no segments left, ready for the next program.
    idle: Vec<u32>,
}

impl<K: Copy + Ord + Hash + Default> Departures<K> {
    /// An empty queue with room for `groups` groups before it reallocates.
    fn with_capacity(groups: usize) -> Self {
        Departures {
            heap: BinaryHeap::with_capacity(groups),
            groups: Vec::with_capacity(groups),
            idle: Vec::with_capacity(groups),
        }
    }

    /// Queues one program's segments, all leaving at `leave`.
    fn push_program(&mut self, leave: SimTime, segs: impl IntoIterator<Item = (u64, K)>) {
        let mut segs = segs.into_iter().peekable();
        while segs.peek().is_some() {
            let g = self.idle.pop().unwrap_or_else(|| {
                self.groups.push(Group {
                    len: 0,
                    segs: [(0, K::default()); GROUP_SEGS],
                });
                self.groups.len() as u32 - 1
            });
            let Some(group) = self.groups.get_mut(g as usize) else {
                return;
            };
            group.len = group
                .segs
                .iter_mut()
                .zip(segs.by_ref())
                .map(|(slot, seg)| *slot = seg)
                .count();
            let live = group.segs.get_mut(..group.len).unwrap_or_default();
            // Descending, so the next to leave is last. Sorted ascending
            // first: programs usually queue their segments so (the block
            // FTL's LCNs), which the small-slice insertion sort passes
            // with one comparison a segment and no move.
            live.sort_unstable();
            live.reverse();
            if let Some(&(units, key)) = live.last() {
                self.heap.push(Reverse((leave, units, key, g)));
            }
        }
    }

    /// Takes the next segment to leave, `(leave, units, key)`.
    fn pop(&mut self) -> Option<(SimTime, u64, K)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((leave, _, _, g)) = *top;
        let group = self.groups.get_mut(g as usize)?;
        group.len = group.len.checked_sub(1)?;
        let &(units, key) = group.segs.get(group.len)?;
        match group.live().last() {
            // Re-key the group in place; the heap re-sifts it on drop.
            Some(&(next_units, next_key)) => top.0 = (leave, next_units, next_key, g),
            None => {
                PeekMut::pop(top);
                self.idle.push(g);
            }
        }
        Some((leave, units, key))
    }

    /// Removes every segment that has left by `now`, whole groups at a
    /// time, handing each to `gone` as `(leave, units, key)`.
    fn drain(&mut self, now: SimTime, mut gone: impl FnMut((SimTime, u64, K))) {
        while let Some(top) = self.heap.peek_mut() {
            let Reverse((leave, _, _, g)) = *top;
            if leave > now {
                break;
            }
            PeekMut::pop(top);
            if let Some(group) = self.groups.get_mut(g as usize) {
                for &(units, key) in group.live() {
                    gone((leave, units, key));
                }
                group.len = 0;
            }
            self.idle.push(g);
        }
    }
}

/// Units held in the volatile write buffer, and the keys resident in it
/// (see the module docs).
#[derive(Debug)]
pub struct WriteBuffer<K> {
    /// Units admitted and not yet departed or released.
    used: u64,
    departures: Departures<K>,
    /// Key -> the `leave` of its latest program, or `SimTime` max while
    /// its newest segments still wait for theirs.
    resident: PrehashedMap<K, SimTime>,
}

impl<K: Copy + Ord + Hash + Default> WriteBuffer<K> {
    /// An empty buffer whose departure queue holds `programs` programs of
    /// up to 16 segments before it reallocates.
    pub fn with_capacity(programs: usize) -> Self {
        WriteBuffer {
            used: 0,
            departures: Departures::with_capacity(programs),
            resident: PrehashedMap::default(),
        }
    }

    /// Units currently held.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Claims `units` for a segment just admitted.
    pub fn admit(&mut self, units: u64) {
        self.used += units;
    }

    /// Gives back `units` of segments a failed program or a torn-down
    /// unit hands back for re-admission.
    pub fn release(&mut self, units: u64) {
        self.used -= units;
    }

    /// Marks `key` readable from the buffer until a program of it leaves.
    pub fn hold(&mut self, key: K) {
        self.resident.insert(key, SimTime::from_nanos(u64::MAX));
    }

    /// Ends `key`'s residency now, whatever program it waits on.
    pub fn evict(&mut self, key: K) {
        self.resident.remove(&key);
    }

    /// Whether a read of `key` is served from the buffer.
    pub fn is_resident(&self, key: K) -> bool {
        self.resident.contains_key(&key)
    }

    /// Records one program: its `(units, key)` segments leave at `leave`,
    /// and each key stays resident until then.
    pub fn program(&mut self, leave: SimTime, segs: impl IntoIterator<Item = (u64, K)>) {
        let resident = &mut self.resident;
        self.departures.push_program(
            leave,
            segs.into_iter().inspect(|&(_, key)| {
                resident.insert(key, leave);
            }),
        );
    }

    /// Lets every segment that has left by `now` go.
    pub fn drain(&mut self, now: SimTime) {
        let (used, resident) = (&mut self.used, &mut self.resident);
        self.departures
            .drain(now, |seg| Self::depart(used, resident, seg));
    }

    /// Lets the next segment go, however far in the future it leaves;
    /// returns its `leave` and key, or `None` with nothing programmed.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        let seg @ (leave, _, key) = self.departures.pop()?;
        Self::depart(&mut self.used, &mut self.resident, seg);
        Some((leave, key))
    }

    /// Empties the buffer (power loss after the capacitor flush).
    pub fn clear(&mut self) {
        self.departures.drain(SimTime::from_nanos(u64::MAX), |_| {});
        self.used = 0;
        self.resident.clear();
    }

    fn depart(used: &mut u64, resident: &mut PrehashedMap<K, SimTime>, seg: (SimTime, u64, K)) {
        let (leave, units, key) = seg;
        *used -= units;
        // Only the key's latest program ends its residency.
        if resident.get(&key) == Some(&leave) {
            resident.remove(&key);
        }
    }
}

/// The controller's read cache: the last eight pages read, FIFO.
#[derive(Debug, Default)]
pub struct ReadCache {
    /// `(block, page)` pairs, not `PageAddr`s: scanning pairs measured
    /// faster on the block firmware's cache-hit reads.
    pages: VecDeque<(BlockId, u32)>,
}

impl ReadCache {
    /// Pages the cache holds.
    const PAGES: usize = 8;

    /// Reads `bytes` of `addr` from flash at `t` unless the page is
    /// cached: `Ok(None)` on a hit (the firmware charges its own hit
    /// latency), else the read's completion, with the page cached.
    #[inline]
    pub fn read(
        &mut self,
        flash: &mut FlashDevice,
        t: SimTime,
        addr: PageAddr,
        bytes: u64,
    ) -> Result<Option<SimTime>, FlashError> {
        let page = (addr.block, addr.page);
        if self.pages.contains(&page) {
            return Ok(None);
        }
        let done = flash.read_page(t, addr, bytes)?;
        self.pages.push_back(page);
        if self.pages.len() > Self::PAGES {
            self.pages.pop_front();
        }
        Ok(Some(done))
    }

    /// Drops every cached page (power loss).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    /// `(hash, fingerprint)`, the KV firmware's key.
    type KvKey = (u64, u64);

    #[derive(Debug, Clone)]
    enum Op {
        /// One program: its `leave` (ns) and `(units, key)` segments.
        Program(u64, Vec<(u64, u64)>),
        Pop,
        Drain(u64),
    }

    /// Interleavings over few distinct `leave` times (so programs tie),
    /// few sizes and keys (so segments within and across programs tie,
    /// duplicates included), empty programs, and programs that spread
    /// over several groups.
    fn ops(rng: &mut DeterministicRng) -> Vec<Op> {
        (0..rng.between(1, 120))
            .map(|_| match rng.below(10) {
                0..=4 => {
                    let n = match rng.below(4) {
                        0 => rng.below(3 * GROUP_SEGS as u64),
                        _ => rng.below(7),
                    };
                    let segs = (0..n)
                        .map(|_| (1024 * rng.between(1, 3), rng.below(8)))
                        .collect();
                    Op::Program(100 * rng.between(1, 12), segs)
                }
                5..=7 => Op::Pop,
                _ => Op::Drain(100 * rng.below(14)),
            })
            .collect()
    }

    /// Pops come out in the per-segment heap's exact order; a drain takes
    /// exactly the segments that heap would pop up to `now`.
    fn matches_a_per_segment_heap(ops: &[Op]) -> Result<(), String> {
        let key = |k: u64| (k / 2, k % 2);
        let mut d = Departures::<KvKey>::with_capacity(0);
        let mut reference: BinaryHeap<Reverse<(SimTime, u64, KvKey)>> = BinaryHeap::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Program(leave, segs) => {
                    let leave = SimTime::from_nanos(*leave);
                    let segs = segs.iter().map(|&(u, k)| (u, key(k)));
                    d.push_program(leave, segs.clone());
                    reference.extend(segs.map(|(u, k)| Reverse((leave, u, k))));
                }
                Op::Pop => {
                    let want = reference.pop().map(|Reverse(s)| s);
                    assert_eq!(d.pop(), want, "step {step}");
                }
                Op::Drain(now) => {
                    let now = SimTime::from_nanos(*now);
                    let mut got = Vec::new();
                    d.drain(now, |seg| got.push(seg));
                    let mut want = Vec::new();
                    while reference.peek().is_some_and(|Reverse(s)| s.0 <= now) {
                        want.extend(reference.pop().map(|Reverse(s)| s));
                    }
                    got.sort_unstable();
                    assert_eq!(got, want, "step {step}");
                }
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(d.pop(), Some(want));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.idle.len(), d.groups.len(), "every group returns to idle");
        Ok(())
    }

    #[test]
    fn departures_pop_in_per_segment_heap_order() {
        check(0..256, ops, |_| None, matches_a_per_segment_heap);
    }

    #[test]
    fn groups_are_recycled_not_reallocated() {
        let mut d = Departures::with_capacity(0);
        for round in 0..100u64 {
            let t = SimTime::from_nanos(round);
            d.push_program(t, [(1024, (round, 0)), (2048, (round, 1))]);
            d.push_program(t, [(1024, (round, 2))]);
            d.drain(t, |_| {});
        }
        assert_eq!(d.groups.len(), 2);
    }

    #[derive(Debug, Clone)]
    enum BufOp {
        Admit(u64),
        /// Releases up to this many of the admitted, unprogrammed units.
        Release(u64),
        Hold(u64),
        Evict(u64),
        /// Admits each segment, then programs them all at `leave` (ns).
        Program(u64, Vec<(u64, u64)>),
        Drain(u64),
        Pop,
        Clear,
    }

    /// Keys `0..KEYS`: few enough that programs overwrite each other's
    /// residency.
    const KEYS: u64 = 6;

    fn buf_ops(rng: &mut DeterministicRng) -> Vec<BufOp> {
        (0..rng.between(1, 150))
            .map(|_| match rng.below(16) {
                0 | 1 => BufOp::Admit(rng.between(1, 3)),
                2 => BufOp::Release(rng.between(1, 3)),
                3..=5 => BufOp::Hold(rng.below(KEYS)),
                6 => BufOp::Evict(rng.below(KEYS)),
                7..=10 => {
                    let most = if rng.below(4) == 0 { 40 } else { 5 };
                    let n = rng.below(most);
                    let segs = (0..n)
                        .map(|_| (rng.between(1, 3), rng.below(KEYS)))
                        .collect();
                    BufOp::Program(100 * rng.between(1, 12), segs)
                }
                11 | 12 => BufOp::Drain(100 * rng.below(14)),
                13 | 14 => BufOp::Pop,
                _ => BufOp::Clear,
            })
            .collect()
    }

    /// The naive buffer: every programmed `(leave, units, key)` segment in
    /// a list, each resident key's latest `leave` (max while held), and
    /// the admitted units no program has taken yet.
    #[derive(Default)]
    struct Model {
        segs: Vec<(SimTime, u64, u64)>,
        latest: PrehashedMap<u64, SimTime>,
        unprogrammed: u64,
    }

    impl Model {
        fn used(&self) -> u64 {
            self.unprogrammed + self.segs.iter().map(|s| s.1).sum::<u64>()
        }

        /// Takes segment `i` out; returns its `(leave, key)`.
        fn depart(&mut self, i: usize) -> (SimTime, u64) {
            let (leave, _, key) = self.segs.swap_remove(i);
            if self.latest.get(&key) == Some(&leave) {
                self.latest.remove(&key);
            }
            (leave, key)
        }
    }

    /// Replays `ops` on a `WriteBuffer<K>` and the model; `used`, every
    /// key's residency and every pop must agree after each op.
    fn matches_the_model<K: Copy + Ord + Hash + Default + std::fmt::Debug>(
        ops: &[BufOp],
        key: impl Fn(u64) -> K,
    ) -> Result<(), String> {
        let mut b = WriteBuffer::<K>::with_capacity(0);
        let mut m = Model::default();
        let held = SimTime::from_nanos(u64::MAX);
        for (step, op) in ops.iter().enumerate() {
            match op {
                BufOp::Admit(u) => {
                    b.admit(*u);
                    m.unprogrammed += u;
                }
                BufOp::Release(u) => {
                    let u = (*u).min(m.unprogrammed);
                    b.release(u);
                    m.unprogrammed -= u;
                }
                BufOp::Hold(k) => {
                    b.hold(key(*k));
                    m.latest.insert(*k, held);
                }
                BufOp::Evict(k) => {
                    b.evict(key(*k));
                    m.latest.remove(k);
                }
                BufOp::Program(leave, segs) => {
                    let leave = SimTime::from_nanos(*leave);
                    for &(u, k) in segs {
                        b.admit(u);
                        m.segs.push((leave, u, k));
                        m.latest.insert(k, leave);
                    }
                    b.program(leave, segs.iter().map(|&(u, k)| (u, key(k))));
                }
                BufOp::Drain(now) => {
                    let now = SimTime::from_nanos(*now);
                    b.drain(now);
                    while let Some(i) = m.segs.iter().position(|s| s.0 <= now) {
                        let _gone = m.depart(i);
                    }
                }
                BufOp::Pop => {
                    let next = (0..m.segs.len()).min_by_key(|&i| {
                        let (leave, units, k) = m.segs[i];
                        (leave, units, key(k))
                    });
                    let want = next.map(|i| m.depart(i)).map(|(l, k)| (l, key(k)));
                    assert_eq!(b.pop(), want, "step {step}: pop");
                }
                BufOp::Clear => {
                    b.clear();
                    m = Model::default();
                }
            }
            assert_eq!(b.used(), m.used(), "step {step}: used");
            for k in 0..KEYS {
                let want = m.latest.contains_key(&k);
                assert_eq!(b.is_resident(key(k)), want, "step {step}: key {k}");
            }
        }
        Ok(())
    }

    #[test]
    fn write_buffer_matches_a_naive_model_for_either_key() {
        check(
            0..256,
            buf_ops,
            |_| None,
            |ops| {
                matches_the_model(ops, |k| k as u32)?;
                matches_the_model(ops, |k| (k.wrapping_mul(0x9E37_79B9), k % 2))
            },
        );
    }

    #[test]
    fn read_cache_keeps_the_last_eight_pages() {
        use crate::{BlockId, FlashTiming, Geometry};
        let mut flash = FlashDevice::new(Geometry::small(), FlashTiming::pm983_like());
        // Nine pages: all eight of block 0, then block 1's first.
        let addr = |i: u32| PageAddr {
            block: BlockId(i / 8),
            page: i % 8,
        };
        for i in 0..9 {
            flash.program_page(SimTime::ZERO, addr(i), 4096).unwrap();
        }
        let mut cache = ReadCache::default();
        let mut read = |i| {
            cache
                .read(&mut flash, SimTime::ZERO, addr(i), 4096)
                .unwrap()
        };
        for i in 0..9 {
            assert!(read(i).is_some(), "page {i} misses first");
        }
        assert!(read(8).is_none() && read(1).is_none());
        assert!(read(0).is_some(), "page 0 was the first out");
    }
}
