//! Incremental GC victim selection.
//!
//! The KV-FTL's greedy victim policy — among closed blocks whose erase
//! would gain at least one page's payload, take the one with the fewest
//! valid bytes, breaking ties toward the least-worn block and then the
//! lowest block id — used to be a linear scan over *every* block on every
//! foreground-GC cycle. [`VictimQueue`] replaces the scan with a min-heap
//! under **lazy invalidation**:
//!
//! * An entry `(valid_bytes, erase_count, block)` is pushed whenever a
//!   block closes and whenever a closed block's `valid_bytes` drops
//!   (overwrite, delete, GC copy). The heap therefore always contains the
//!   *current* accounting tuple of every closed block (plus any number of
//!   stale ones) — except the victim GC holds: selection never runs while
//!   a victim is held, so its drain pushes nothing (a snapshot per copied
//!   segment would be stale by the next copy).
//! * Popped entries are revalidated against current accounting before
//!   use: an entry is discarded unless the block is still closed and its
//!   `(valid_bytes, erase_count)` still match. Since a block's current
//!   tuple is always present, the smallest entry that survives
//!   revalidation is exactly the block the greedy scan would have chosen
//!   — same ordering key, same tie-breaks.
//!
//! The one behavioral subtlety is *abandonment*: when the device selects
//! a victim (consuming its heap entry) but later gives the block up
//! without erasing it, the caller must [`VictimQueue::note`] it again, or
//! the invariant above breaks. `BlockTable::abandon_victim` is the only
//! such path, and the re-note carries the block's accounting as the
//! drain left it. `BlockTable` owns the queue and all three push points.
//!
//! The queue also tracks **zero-valid closed blocks** (the zero-copy
//! erase sweep): candidates accumulate as valid counts hit zero and are
//! drained in ascending block-id order — the order the old full scan
//! erased them in — after the same revalidation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kvssd_flash::BlockId;

/// One pushed accounting snapshot: (valid bytes, erase count, block id),
/// min-ordered exactly like the reference scan's preference order.
type Entry = (u64, u32, u32);

/// Min-heap of GC victim candidates with lazy invalidation (see module
/// docs).
#[derive(Debug, Default)]
pub struct VictimQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Blocks whose valid count hit zero while closed (zero-copy erase
    /// candidates). May hold duplicates and stale ids; drained sorted and
    /// revalidated.
    zero: Vec<u32>,
    /// Reusable drain buffer for the zero-valid sweep.
    zero_scratch: Vec<u32>,
}

impl VictimQueue {
    /// Records the current accounting of a *closed* block. Call on every
    /// open→closed transition and on every `valid_bytes` change of a
    /// closed block (including re-noting an abandoned victim).
    pub fn note(&mut self, block: BlockId, valid_bytes: u64, erase_count: u32) {
        self.heap.push(Reverse((valid_bytes, erase_count, block.0)));
        if valid_bytes == 0 {
            self.note_zero_valid(block);
        }
    }

    /// Records only that a closed block's valid bytes reached zero: a
    /// zero-copy erase candidate, with no heap snapshot. For the victim
    /// being drained, which no selection can pick while it is held.
    pub fn note_zero_valid(&mut self, block: BlockId) {
        // Only a foreground sweep drains the list, and GC running in the
        // background alone never sweeps: before it would grow, drop the
        // duplicates the sweep drops anyway, so it holds at most one
        // entry per block.
        if self.zero.len() == self.zero.capacity() {
            self.zero.sort_unstable();
            self.zero.dedup();
        }
        self.zero.push(block.0);
    }

    /// Pops the best victim: the smallest `(valid, wear, id)` entry whose
    /// snapshot still matches current accounting and whose reclaimable
    /// gain is at least one page payload.
    ///
    /// `current` returns `Some((valid_bytes, erase_count, gain_bytes))`
    /// for blocks that are still closed, `None` otherwise. Entries that
    /// fail revalidation are discarded (a fresher entry for the same
    /// block is already in the heap); current-but-ineligible entries
    /// (gain below `min_gain`) are discarded too — any future accounting
    /// change re-notes them.
    pub fn pop_best(
        &mut self,
        min_gain: u64,
        mut current: impl FnMut(BlockId) -> Option<(u64, u32, u64)>,
    ) -> Option<BlockId> {
        while let Some(Reverse((valid, wear, id))) = self.heap.pop() {
            let block = BlockId(id);
            let Some((cur_valid, cur_wear, gain)) = current(block) else {
                continue; // no longer closed: stale
            };
            if cur_valid != valid || cur_wear != wear {
                continue; // superseded by a fresher entry
            }
            if gain < min_gain {
                continue; // tightly packed: pure churn to copy
            }
            return Some(block);
        }
        None
    }

    /// Drops every snapshot `cur` (`pop_best`'s `current`) no
    /// longer confirms — exactly what `pop_best` would discard one by one,
    /// so selection is unchanged. Each overwrite of a closed block's data
    /// leaves one behind, and those that sort last are never popped.
    pub(crate) fn drop_stale(&mut self, mut cur: impl FnMut(BlockId) -> Option<(u64, u32, u64)>) {
        self.heap.retain(|&Reverse((valid, wear, id))| {
            cur(BlockId(id)).is_some_and(|(v, w, _)| (v, w) == (valid, wear))
        });
    }

    /// Drains the zero-valid candidates in ascending block-id order,
    /// deduplicated, keeping only blocks `still_zero` confirms (closed
    /// with zero valid bytes). The ascending order reproduces the old
    /// full scan's erase order byte-for-byte. The returned buffer is the
    /// queue's reusable scratch — hand it back with
    /// [`VictimQueue::recycle_zero_buf`] after the sweep so the GC loop
    /// stays allocation-free.
    pub fn take_zero_valid(&mut self, mut still_zero: impl FnMut(BlockId) -> bool) -> Vec<u32> {
        let mut buf = std::mem::take(&mut self.zero_scratch);
        buf.clear();
        buf.append(&mut self.zero);
        buf.sort_unstable();
        buf.dedup();
        buf.retain(|&id| still_zero(BlockId(id)));
        buf
    }

    /// Returns the scratch buffer handed out by
    /// [`VictimQueue::take_zero_valid`].
    pub fn recycle_zero_buf(&mut self, buf: Vec<u32>) {
        self.zero_scratch = buf;
    }

    /// Entries currently held (live + stale).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let got = q.pop_best(1, |b| model.current(b));
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
        assert_eq!(q.pop_best(1, |b| model.current(b)), Some(BlockId(0)));
        // The stale 40-entry must not resurface; block 1 is next.
        assert_eq!(q.pop_best(1, |b| model.current(b)), Some(BlockId(1)));
        assert_eq!(q.pop_best(1, |b| model.current(b)), None);
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
        assert_eq!(q.pop_best(10, |b| model.current(b)), None);
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
        assert_eq!(q.pop_best(1, |b| model.current(b)), None);
        q.note(BlockId(0), 0, 2);
        assert_eq!(q.pop_best(1, |b| model.current(b)), Some(BlockId(0)));
    }

    #[test]
    fn zero_valid_drains_sorted_deduped_and_revalidated() {
        let mut q = VictimQueue::default();
        q.note(BlockId(7), 0, 0);
        q.note(BlockId(3), 0, 0);
        q.note(BlockId(7), 0, 1); // duplicate id
        q.note(BlockId(5), 0, 0);
        let got = q.take_zero_valid(|b| b.0 != 5);
        assert_eq!(got, vec![3, 7], "sorted, deduped, 5 filtered out");
        q.recycle_zero_buf(got);
        // Drained: a second sweep sees nothing.
        assert!(q.take_zero_valid(|_| true).is_empty());
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
                    let got = plain.pop_best(10, |b| model.current(b));
                    assert_eq!(swept.pop_best(10, |b| model.current(b)), got, "step {step}");
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
            let got = plain.pop_best(10, |b| model.current(b));
            assert_eq!(swept.pop_best(10, |b| model.current(b)), got);
            let Some(v) = got else { break };
            model.blocks[v.0 as usize].2 = false; // erased, not reused
        }
    }
}
