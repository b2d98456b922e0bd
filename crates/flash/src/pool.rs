//! The block layer both firmwares share.
//!
//! [`BlockPool`] is mechanism: every block's state and valid bytes, the
//! per-die-plane free queues, greedy GC victim selection, erase-and-free
//! and retirement. Policy stays in each firmware: which queue to allocate
//! from, what a block holds, and when and how hard to collect.
//!
//! Valid space is counted in bytes. Each written page counts
//! `page_payload` bytes, so a closed block's reclaimable gain is its
//! written payload less its valid bytes. Selection is served from a
//! `VictimQueue`; debug builds check every selection against the
//! O(blocks) reference scan, so every test of either firmware doubles as
//! a differential test of the queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use kvssd_sim::SimTime;

use crate::device::{FlashDevice, FlashError};
use crate::geometry::{BlockId, Geometry};

/// Lifecycle of one erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Erased, in its die-plane's free queue.
    Free,
    /// Handed out and being programmed.
    Open,
    /// Closed to programs: a victim candidate.
    Closed,
    /// Retired for good after a failed program or erase.
    Dead,
    /// Held back at construction for the firmware's own use.
    Reserved,
}

/// Per-block state, free queues and GC victims (see module docs).
#[derive(Debug)]
pub struct BlockPool {
    // One vector per per-block field: `dec_valid` and the victim
    // queue's revalidation read only `state` and `valid`, kept dense.
    state: Vec<BlockState>,
    valid: Vec<u64>,
    free: Vec<VecDeque<BlockId>>,
    /// Blocks across the `free` queues, read several times per op.
    free_count: u32,
    victims: VictimQueue,
    /// The closed block GC is draining, if any.
    victim: Option<BlockId>,
    page_payload: u64,
    /// The smallest gain any selection asks for (see
    /// [`VictimQueue::pop_best`]).
    floor: u64,
}

impl BlockPool {
    /// Every block of `geometry`, free except the first
    /// `reserved_per_plane` of each die-plane, which are reserved.
    pub fn new(g: &Geometry, page_payload: u64, floor: u64, reserved_per_plane: u32) -> Self {
        let blocks = g.total_blocks() as usize;
        let mut pool = BlockPool {
            state: vec![BlockState::Free; blocks],
            valid: vec![0; blocks],
            free: vec![VecDeque::new(); (g.dies() * g.planes_per_die) as usize],
            free_count: 0,
            victims: VictimQueue::default(),
            victim: None,
            page_payload,
            floor,
        };
        // Block ids run die-plane by die-plane, `blocks_per_plane` each.
        for (id, state) in (0..).zip(&mut pool.state) {
            if id % g.blocks_per_plane < reserved_per_plane {
                *state = BlockState::Reserved;
            } else if let Some(q) = pool.free.get_mut((id / g.blocks_per_plane) as usize) {
                q.push_back(BlockId(id));
                pool.free_count += 1;
            }
        }
        pool
    }

    /// Free (erased) blocks across all die-planes.
    pub fn free_blocks(&self) -> u32 {
        debug_assert_eq!(
            self.free_count,
            self.free.iter().map(|q| q.len() as u32).sum::<u32>(),
            "free-block counter drifted from the queues"
        );
        self.free_count
    }

    /// `b`'s state, or `None` outside the device.
    pub fn state(&self, b: BlockId) -> Option<BlockState> {
        self.state.get(b.0 as usize).copied()
    }

    /// Valid bytes in `b`.
    pub fn valid(&self, b: BlockId) -> u64 {
        self.valid.get(b.0 as usize).copied().unwrap_or(0)
    }

    /// Valid bytes across the device.
    pub fn valid_bytes(&self) -> u64 {
        self.valid.iter().sum()
    }

    /// True when die-plane `q`'s free queue holds a block.
    pub fn has_free(&self, q: usize) -> bool {
        self.free.get(q).is_some_and(|q| !q.is_empty())
    }

    /// Opens the next free block of die-plane `q`.
    pub fn pop_free_at(&mut self, q: usize) -> Option<BlockId> {
        let b = self.free.get_mut(q)?.pop_front()?;
        self.free_count -= 1;
        *self.state.get_mut(b.0 as usize)? = BlockState::Open;
        Some(b)
    }

    /// Opens a block from the first non-empty free queue at or after
    /// `from` (wrapping); returns the queue after that one too.
    pub fn pop_free_from(&mut self, from: usize) -> Option<(usize, BlockId)> {
        let n = self.free.len();
        let q = (0..n).map(|i| (from + i) % n).find(|&q| self.has_free(q))?;
        Some(((q + 1) % n, self.pop_free_at(q)?))
    }

    /// Counts `bytes` more valid data in `b`.
    pub fn add_valid(&mut self, b: BlockId, bytes: u64) {
        if let Some(v) = self.valid.get_mut(b.0 as usize) {
            *v += bytes;
        }
    }

    /// Counts `bytes` of `b`'s data as dead. A closed block's accounting
    /// tuple changed, so the victim queue gets the fresh snapshot (the
    /// old one goes stale in place), unless it is the held victim. True
    /// when `b` is closed and now holds no valid data.
    pub fn dec_valid(&mut self, b: BlockId, bytes: u64, flash: &FlashDevice) -> bool {
        let Some(valid) = self.valid.get_mut(b.0 as usize) else {
            return false;
        };
        *valid -= bytes;
        let valid = *valid;
        if self.state(b) != Some(BlockState::Closed) {
            return false;
        }
        if self.victim == Some(b) {
            // No selection runs while a victim is held, and abandoning
            // one re-notes it, so a snapshot now could only go stale.
            return valid == 0;
        }
        self.victims.note(b, valid, flash.erase_count(b));
        // Each call strands the block's previous snapshot in the
        // queue: sweep once they outnumber the blocks 8:1 (amortised O(1)).
        if self.victims.len() > 8 * self.state.len() {
            let current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
            self.victims.drop_stale(current);
        }
        valid == 0
    }

    /// Closes open block `b`, making it a victim candidate; true when it
    /// holds no valid data. Leaves any other state (a retired block stays
    /// dead).
    pub fn close(&mut self, b: BlockId, flash: &FlashDevice) -> bool {
        let Some(state) = self.state.get_mut(b.0 as usize) else {
            return false;
        };
        if *state != BlockState::Open {
            return false;
        }
        *state = BlockState::Closed;
        let valid = self.valid(b);
        self.victims.note(b, valid, flash.erase_count(b));
        valid == 0
    }

    /// Retires `b` for good (a program on it failed).
    pub fn retire(&mut self, b: BlockId) {
        if let Some(s) = self.state.get_mut(b.0 as usize) {
            *s = BlockState::Dead;
        }
    }

    /// The closed block GC is draining, if any.
    pub fn victim(&self) -> Option<BlockId> {
        self.victim
    }

    /// Greedy victim selection among closed blocks, held until erased or
    /// abandoned: fewest valid bytes, then least worn, then lowest id,
    /// among blocks whose erase would gain at least `min_gain` bytes
    /// (copying a fully live block around is pure churn). Call only while
    /// no victim is held.
    pub fn select_victim(&mut self, min_gain: u64, flash: &FlashDevice) -> Option<BlockId> {
        debug_assert!(self.victim.is_none() && min_gain >= self.floor);
        let current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
        let picked = self.victims.pop_best(self.floor, min_gain, current);
        debug_assert_eq!(
            picked,
            self.select_victim_reference(min_gain, flash),
            "victim queue diverged from the reference greedy scan"
        );
        self.victim = picked;
        picked
    }

    /// The O(blocks) greedy scan, kept as the executable specification
    /// debug builds check every selection against.
    fn select_victim_reference(&self, min_gain: u64, flash: &FlashDevice) -> Option<BlockId> {
        let mut current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
        let mut best: Option<(u64, u32, BlockId)> = None;
        for b in (0..self.state.len() as u32).map(BlockId) {
            let Some((valid, wear, gain)) = current(b) else {
                continue;
            };
            if gain >= min_gain
                && best.is_none_or(|(bv, bw, _)| valid < bv || (valid == bv && wear < bw))
            {
                best = Some((valid, wear, b));
            }
        }
        best.map(|(_, _, b)| b)
    }

    /// Gives up the held victim without erasing it. Its queue entry was
    /// consumed at selection, so it is noted again with the accounting
    /// the drain left.
    pub fn abandon_victim(&mut self, flash: &FlashDevice) {
        if let Some(v) = self.victim.take() {
            self.victims.note(v, self.valid(v), flash.erase_count(v));
        }
    }

    /// Erases the held victim if it is still closed, `on_erase` seeing it
    /// first; returns when the erase finished.
    pub fn erase_victim(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
        mut on_erase: impl FnMut(BlockId),
    ) -> Result<Option<SimTime>, FlashError> {
        match self.victim.take() {
            Some(v) => self.erase(v, now, flash, &mut on_erase),
            None => Ok(None),
        }
    }

    /// Erases every closed block holding no valid data (zero-copy
    /// reclaim) in ascending block order, `on_erase` seeing each first.
    /// Returns the last erase's completion and how many were erased.
    pub fn erase_zero_valid(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
        mut on_erase: impl FnMut(BlockId),
    ) -> Result<(SimTime, u64), FlashError> {
        let held = self.victim.take();
        let (state, valid) = (&self.state, &self.valid);
        let zero = |b: BlockId| {
            let i = b.0 as usize;
            state.get(i) == Some(&BlockState::Closed) && valid.get(i) == Some(&0)
        };
        let candidates = self.victims.take_zero_valid(held, zero);
        debug_assert_eq!(
            candidates,
            (0..self.state.len() as u32)
                .filter(|&b| zero(BlockId(b)))
                .collect::<Vec<u32>>(),
            "zero-valid sweep diverged from reference scan"
        );
        let (mut t, mut erased) = (now, 0);
        for &id in &candidates {
            if let Some(done) = self.erase(BlockId(id), t, flash, &mut on_erase)? {
                (t, erased) = (done, erased + 1);
            }
        }
        self.victims.recycle_zero_buf(candidates);
        // Hold the in-progress victim again only if this sweep did not
        // erase it — a stale handle would later erase whatever block
        // reuses that id.
        self.victim = held.filter(|&v| self.state(v) == Some(BlockState::Closed));
        Ok((t, erased))
    }

    /// Erases closed block `b` and frees it, or retires it when the
    /// erase fails. Does nothing unless `b` is closed: a stale victim
    /// handle must never take down a live block.
    ///
    /// # Panics
    ///
    /// Panics if `b` still holds valid data: erasing it would lose data,
    /// i.e. a GC bug.
    fn erase(
        &mut self,
        b: BlockId,
        now: SimTime,
        flash: &mut FlashDevice,
        on_erase: &mut impl FnMut(BlockId),
    ) -> Result<Option<SimTime>, FlashError> {
        let i = b.0 as usize;
        let Some(state) = self.state.get_mut(i).filter(|s| **s == BlockState::Closed) else {
            return Ok(None);
        };
        let valid = self.valid.get(i).copied().unwrap_or(0);
        assert_eq!(valid, 0, "erasing block b{} with valid data", b.0);
        on_erase(b);
        let r = flash.erase_block(now, b)?;
        if r.failed {
            *state = BlockState::Dead;
            return Ok(Some(r.done));
        }
        *state = BlockState::Free;
        let die_plane = (b.0 / flash.geometry().blocks_per_plane) as usize;
        if let Some(q) = self.free.get_mut(die_plane) {
            q.push_back(b);
            self.free_count += 1;
        }
        Ok(Some(r.done))
    }

    /// What the victim queue revalidates snapshots against: a closed
    /// block's `(valid bytes, erase count, reclaimable bytes)`, else
    /// `None`. Borrows the blocks, not `self`, so the queue stays
    /// borrowable. The gain saturates: a unit the block firmware tears
    /// down after a failed program closes with fewer pages written than
    /// it was assigned.
    fn accounting<'a>(
        state: &'a [BlockState],
        valid: &'a [u64],
        flash: &'a FlashDevice,
        payload: u64,
    ) -> impl FnMut(BlockId) -> Option<(u64, u32, u64)> + 'a {
        move |b| {
            let i = b.0 as usize;
            let v = *valid
                .get(i)
                .filter(|_| state.get(i) == Some(&BlockState::Closed))?;
            let written = flash.written_pages(b) as u64 * payload;
            Some((v, flash.erase_count(b), written.saturating_sub(v)))
        }
    }
}

/// One pushed accounting snapshot: (valid bytes, erase count, block id),
/// min-ordered exactly like the reference scan's preference order.
type Entry = (u64, u32, u32);

/// Min-heap of GC victim candidates with **lazy invalidation**.
///
/// A snapshot `(valid_bytes, erase_count, block)` is pushed whenever a
/// block closes and whenever a closed block's valid bytes drop, so the
/// heap always holds every closed block's *current* snapshot (plus stale
/// ones), except the held victim's. Popped snapshots are revalidated: one
/// is discarded unless its block is still closed with the same
/// `(valid_bytes, erase_count)`. The smallest survivor is therefore
/// exactly the block the greedy scan would choose. A victim given up
/// without an erase must be noted again ([`BlockPool::abandon_victim`]).
///
/// Snapshots with no valid bytes sort first, so the zero-copy sweep
/// drains them off the top.
#[derive(Debug, Default)]
struct VictimQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Current snapshots one selection passed over for too small a gain,
    /// pushed back when it ends (reused: selection does not allocate).
    set_aside: Vec<Entry>,
    /// Reusable drain buffer for the zero-valid sweep.
    zero_scratch: Vec<u32>,
}

impl VictimQueue {
    /// Records the current accounting of a closed block.
    fn note(&mut self, block: BlockId, valid_bytes: u64, erase_count: u32) {
        self.heap.push(Reverse((valid_bytes, erase_count, block.0)));
    }

    /// Pops the smallest `(valid, wear, id)` snapshot that `current`
    /// (`Some((valid, wear, gain))` for a closed block) still confirms
    /// and whose gain is at least `min_gain`.
    ///
    /// A confirmed snapshot whose gain is below `floor` is discarded: no
    /// selection asks for less, and any later change re-notes the block.
    /// That is safe only because `floor` is the smallest ask. The block
    /// firmware asks for a cluster in foreground GC and a page in
    /// background GC: dropping a block whose gain lies between the two
    /// would hide it from a later foreground selection, which would then
    /// diverge from the scan. So snapshots from `floor` up to `min_gain`
    /// are set aside and pushed back when the selection ends. The KV
    /// firmware always asks for `floor` and never sets one aside.
    fn pop_best(
        &mut self,
        floor: u64,
        min_gain: u64,
        mut current: impl FnMut(BlockId) -> Option<(u64, u32, u64)>,
    ) -> Option<BlockId> {
        let mut picked = None;
        while let Some(Reverse(entry @ (valid, wear, id))) = self.heap.pop() {
            match current(BlockId(id)) {
                Some((v, w, gain)) if (v, w) == (valid, wear) && gain >= floor => {
                    if gain >= min_gain {
                        picked = Some(BlockId(id));
                        break;
                    }
                    self.set_aside.push(entry);
                }
                _ => {} // stale, or tightly packed: pure churn to copy
            }
        }
        self.heap.extend(self.set_aside.drain(..).map(Reverse));
        picked
    }

    /// Drops every snapshot `cur` (`pop_best`'s `current`) no longer
    /// confirms: what `pop_best` would discard one by one, so selection
    /// is unchanged.
    fn drop_stale(&mut self, mut cur: impl FnMut(BlockId) -> Option<(u64, u32, u64)>) {
        self.heap.retain(|&Reverse((valid, wear, id))| {
            cur(BlockId(id)).is_some_and(|(v, w, _)| (v, w) == (valid, wear))
        });
    }

    /// Pops every snapshot with no valid bytes and returns, in ascending
    /// block-id order and deduplicated, the blocks `still_zero` confirms
    /// (closed, still empty), the held victim `held` among them if it
    /// qualifies: its snapshot was consumed when it was selected. A
    /// confirmed block always has a current snapshot here, because its
    /// gain (a full block's payload) clears any floor. The buffer is the
    /// queue's scratch: hand it back with [`VictimQueue::recycle_zero_buf`]
    /// so the GC loop stays allocation-free.
    fn take_zero_valid(
        &mut self,
        held: Option<BlockId>,
        mut still_zero: impl FnMut(BlockId) -> bool,
    ) -> Vec<u32> {
        let mut buf = std::mem::take(&mut self.zero_scratch);
        buf.clear();
        buf.extend(held.map(|b| b.0));
        while let Some(Reverse((0, _, id))) = self.heap.peek().copied() {
            self.heap.pop();
            buf.push(id);
        }
        buf.sort_unstable();
        buf.dedup();
        buf.retain(|&id| still_zero(BlockId(id)));
        buf
    }

    fn recycle_zero_buf(&mut self, buf: Vec<u32>) {
        self.zero_scratch = buf;
    }

    /// Snapshots held, stale ones included.
    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PageAddr;
    use crate::timing::FlashTiming;

    /// A tiny accounting model: (valid, wear, closed) per block.
    struct Model {
        blocks: Vec<(u64, u32, bool)>,
        full_bytes: u64,
    }

    impl Model {
        fn current(&self, b: BlockId) -> Option<(u64, u32, u64)> {
            let (v, w, closed) = self.blocks[b.0 as usize];
            closed.then(|| (v, w, self.full_bytes - v))
        }
    }

    #[test]
    fn picks_fewest_valid_then_least_worn_then_lowest_id() {
        let model = Model {
            blocks: vec![(50, 0, true), (10, 5, true), (10, 2, true), (10, 2, true)],
            full_bytes: 100,
        };
        let mut q = VictimQueue::default();
        for (i, &(v, w, _)) in model.blocks.iter().enumerate() {
            q.note(BlockId(i as u32), v, w);
        }
        let got = q.pop_best(1, 1, |b| model.current(b));
        assert_eq!(got, Some(BlockId(2)), "ties: wear 2 beats 5, id 2 beats 3");
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut model = Model {
            blocks: vec![(40, 0, true), (60, 0, true)],
            full_bytes: 100,
        };
        let mut q = VictimQueue::default();
        q.note(BlockId(0), 40, 0);
        q.note(BlockId(1), 60, 0);
        // Block 0's count drops to 30: re-note (the 40-entry goes stale).
        model.blocks[0].0 = 30;
        q.note(BlockId(0), 30, 0);
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), Some(BlockId(0)));
        // The stale 40-entry must not resurface; block 1 is next.
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), Some(BlockId(1)));
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), None);
    }

    #[test]
    fn ineligible_gain_is_filtered() {
        let model = Model {
            blocks: vec![(95, 0, true)],
            full_bytes: 100,
        };
        let mut q = VictimQueue::default();
        q.note(BlockId(0), 95, 0);
        // Gain 5 < min_gain 10: not a victim.
        assert_eq!(q.pop_best(10, 10, |b| model.current(b)), None);
    }

    #[test]
    fn reopened_blocks_fail_revalidation() {
        let mut model = Model {
            blocks: vec![(0, 1, true)],
            full_bytes: 100,
        };
        let mut q = VictimQueue::default();
        q.note(BlockId(0), 0, 1);
        // Erased and re-closed with the same valid count: wear differs.
        model.blocks[0] = (0, 2, true);
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), None);
        q.note(BlockId(0), 0, 2);
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), Some(BlockId(0)));
    }

    #[test]
    fn zero_valid_drains_sorted_deduped_held_and_revalidated() {
        let mut q = VictimQueue::default();
        q.note(BlockId(7), 0, 0);
        q.note(BlockId(3), 0, 0);
        q.note(BlockId(7), 0, 1); // duplicate id
        q.note(BlockId(5), 0, 0);
        q.note(BlockId(9), 10, 0); // not empty: stays queued
        let got = q.take_zero_valid(Some(BlockId(1)), |b| b.0 != 5);
        assert_eq!(got, vec![1, 3, 7], "sorted, deduped, 5 filtered out");
        assert_eq!(q.len(), 1);
        q.recycle_zero_buf(got);
        // Drained: a second sweep sees nothing.
        assert!(q.take_zero_valid(None, |_| true).is_empty());
    }

    #[test]
    fn dropping_stale_entries_never_changes_a_selection() {
        // Two queues fed the same random accounting history; one sweeps
        // its stale snapshots every few steps. Every selection, and the
        // drain at the end, must agree — and the swept queue must hold
        // no more than one snapshot per block plus what arrived since.
        use kvssd_sim::DeterministicRng;
        const BLOCKS: u64 = 24;
        let mut rng = DeterministicRng::seed_from(11);
        let mut model = Model {
            blocks: (0..BLOCKS).map(|_| (100, 0, true)).collect(),
            full_bytes: 100,
        };
        let (mut plain, mut swept) = (VictimQueue::default(), VictimQueue::default());
        for b in 0..BLOCKS as u32 {
            plain.note(BlockId(b), 100, 0);
            swept.note(BlockId(b), 100, 0);
        }
        for step in 0..4_000 {
            let b = rng.below(BLOCKS) as usize;
            let (valid, wear, closed) = &mut model.blocks[b];
            match rng.below(8) {
                // Overwrites chip at a closed block's valid bytes.
                0..=5 if *closed && *valid > 0 => {
                    *valid -= rng.between(1, *valid);
                    plain.note(BlockId(b as u32), *valid, *wear);
                    swept.note(BlockId(b as u32), *valid, *wear);
                }
                // GC takes the best victim; it is erased, refilled and
                // closes again one erase older.
                6 => {
                    let got = plain.pop_best(10, 10, |b| model.current(b));
                    assert_eq!(
                        swept.pop_best(10, 10, |b| model.current(b)),
                        got,
                        "step {step}"
                    );
                    if let Some(v) = got {
                        let w = model.blocks[v.0 as usize].1 + 1;
                        model.blocks[v.0 as usize] = (100, w, true);
                        plain.note(v, 100, w);
                        swept.note(v, 100, w);
                    }
                }
                _ => {}
            }
            if step % 16 == 0 {
                swept.drop_stale(|b| model.current(b));
                assert!(swept.len() <= BLOCKS as usize);
            }
        }
        assert!(plain.len() > 4 * swept.len(), "the unswept queue piles up");
        loop {
            let got = plain.pop_best(10, 10, |b| model.current(b));
            assert_eq!(swept.pop_best(10, 10, |b| model.current(b)), got);
            let Some(v) = got else { break };
            model.blocks[v.0 as usize].2 = false; // erased, not reused
        }
    }

    #[test]
    fn gains_between_the_floor_and_the_ask_survive_a_selection() {
        let model = Model {
            blocks: vec![(95, 0, true), (98, 0, true)],
            full_bytes: 100,
        };
        let mut q = VictimQueue::default();
        q.note(BlockId(0), 95, 0);
        q.note(BlockId(1), 98, 0);
        // Gains 5 and 2 are below an ask of 10 but above the floor of 1:
        // set aside, not dropped, so an ask at the floor still sees both.
        assert_eq!(q.pop_best(1, 10, |b| model.current(b)), None);
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), Some(BlockId(0)));
        assert_eq!(q.pop_best(1, 1, |b| model.current(b)), Some(BlockId(1)));
    }

    /// A pool over `Geometry::small()` counting 4 KiB per written page,
    /// with one fully written, closed block holding `valid` bytes.
    fn pool_with_closed_block(valid: u64) -> (BlockPool, FlashDevice, BlockId) {
        let g = Geometry::small();
        let mut flash = FlashDevice::new(g, FlashTiming::pm983_like());
        let mut pool = BlockPool::new(&g, 4096, 4096, 0);
        let (_, b) = pool.pop_free_from(0).unwrap();
        for page in 0..g.pages_per_block {
            let _programmed = flash
                .program_page(SimTime::ZERO, PageAddr { block: b, page }, 4096)
                .unwrap();
        }
        pool.add_valid(b, valid);
        pool.close(b, &flash);
        (pool, flash, b)
    }

    #[test]
    fn a_drained_victim_returns_to_its_free_queue() {
        let (mut pool, mut flash, b) = pool_with_closed_block(8192);
        let free = pool.free_blocks();
        assert_eq!(pool.select_victim(4096, &flash), Some(b));
        assert!(!pool.dec_valid(b, 4096, &flash));
        assert!(pool.dec_valid(b, 4096, &flash), "closed and now empty");
        let mut seen = Vec::new();
        let done = pool.erase_victim(SimTime::ZERO, &mut flash, |v| seen.push(v));
        assert!(done.unwrap().is_some());
        assert_eq!(seen, [b]);
        assert_eq!(pool.state(b), Some(BlockState::Free));
        assert_eq!(pool.free_blocks(), free + 1);
        assert_eq!(pool.victim(), None);
    }

    #[test]
    #[should_panic(expected = "valid data")]
    fn erase_with_valid_data_panics() {
        let (mut pool, mut flash, b) = pool_with_closed_block(4096);
        assert_eq!(pool.select_victim(4096, &flash), Some(b));
        let _ = pool.erase_victim(SimTime::ZERO, &mut flash, |_| {});
    }

    #[test]
    fn stale_snapshots_are_swept_not_hoarded() {
        let blocks = Geometry::small().total_blocks() as usize;
        let full = Geometry::small().pages_per_block as u64 * 4096;
        let (mut pool, flash, b) = pool_with_closed_block(full);
        for _ in 0..64 * blocks {
            pool.dec_valid(b, 4, &flash);
        }
        assert!(
            pool.victims.len() <= 8 * blocks + 1,
            "{}",
            pool.victims.len()
        );
        assert_eq!(pool.select_victim(4096, &flash), Some(b));
    }
}
