//! The KV-FTL's block accounting: every block's state, valid bytes,
//! reverse map and trapped page-tail waste, the per-die-plane free
//! queues, and the GC victim queue. [`BlockTable`] owns all of it, so
//! the queue's three push points (a block closing, a closed block's
//! valid bytes dropping, an abandoned victim) sit in this module.

use std::collections::VecDeque;

use kvssd_flash::{BlockId, FlashDevice};
use kvssd_sim::SimTime;

use crate::config::KvConfig;
use crate::error::KvError;
use crate::victim::VictimQueue;

/// Lifecycle of one erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BState {
    Free,
    Open,
    Closed,
    Dead,
    IndexReserved,
}

/// A compact reverse-map record: segment `seg_no` of the key whose
/// 64-bit hash is `hash` was appended to this block. The fingerprint is
/// left out; [`crate::index::GlobalStore::find_segment`] recovers the
/// full key.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
pub(crate) struct BlobRef {
    pub(crate) hash: u64,
    pub(crate) seg_no: u32,
}

// One per segment ever appended to a block until its erase, for every
// block: the largest host structure after the index itself.
const _: () = assert!(std::mem::size_of::<BlobRef>() == 12);

/// Ref buffers of fully invalid closed blocks, kept for blocks opened
/// later (see [`BlockTable::retire_refs`]).
const SPARE_REF_BUFFERS: usize = 64;

/// Per-block accounting, free blocks and GC victims (see module docs).
#[derive(Debug)]
pub(crate) struct BlockTable {
    // One vector per per-block field: `dec_valid` and the victim
    // queue's revalidation read only `state` and `valid`, kept dense.
    state: Vec<BState>,
    valid: Vec<u64>,
    refs: Vec<Vec<BlobRef>>,
    /// Page-tail bytes lost to internal fragmentation (reclaimed when
    /// GC erases the block).
    waste_per_block: Vec<u64>,
    /// Cleared ref buffers handed over by closed blocks whose valid bytes
    /// reached zero, for blocks that open without one. Reserved at
    /// construction and never over-filled, so it never reallocates.
    spare_refs: Vec<Vec<BlobRef>>,
    waste: u64,
    free: Vec<VecDeque<BlockId>>,
    /// Blocks across the `free` queues: the per-op GC-band checks read
    /// this instead of summing the per-plane queues.
    free_count: u32,
    alloc_cursor: usize,
    victims: VictimQueue,
    /// The closed block GC is draining, if any.
    victim: Option<BlockId>,
    page_payload: u64,
    soft_free: u32,
}

impl BlockTable {
    /// Every block of `flash`, free except the first `index_reserve_pct`
    /// of each die-plane: those are preprogrammed and returned as the
    /// index region, so index traffic spreads across dies.
    pub(crate) fn new(flash: &mut FlashDevice, config: &KvConfig) -> (Self, Vec<BlockId>) {
        let g = *flash.geometry();
        let per_dp_reserve = (g.blocks_per_plane * config.index_reserve_pct)
            .div_ceil(100)
            .max(1);
        let mut table = BlockTable {
            state: vec![BState::Free; g.total_blocks() as usize],
            valid: vec![0; g.total_blocks() as usize],
            refs: vec![Vec::new(); g.total_blocks() as usize],
            waste_per_block: vec![0; g.total_blocks() as usize],
            spare_refs: Vec::with_capacity(SPARE_REF_BUFFERS),
            waste: 0,
            free: vec![VecDeque::new(); (g.dies() * g.planes_per_die) as usize],
            free_count: 0,
            alloc_cursor: 0,
            victims: VictimQueue::default(),
            victim: None,
            page_payload: config.page_payload_bytes as u64,
            soft_free: config.gc_soft_free_blocks,
        };
        let mut reserved = Vec::new();
        // Block ids run die-plane by die-plane, `blocks_per_plane` each.
        for (id, state) in (0..).zip(&mut table.state) {
            let b = BlockId(id);
            if id % g.blocks_per_plane < per_dp_reserve {
                *state = BState::IndexReserved;
                flash.preprogram_block(b);
                reserved.push(b);
            } else if let Some(q) = table.free.get_mut((id / g.blocks_per_plane) as usize) {
                q.push_back(b);
                table.free_count += 1;
            }
        }
        (table, reserved)
    }

    pub(crate) fn free_blocks(&self) -> u32 {
        debug_assert_eq!(
            self.free_count,
            self.free.iter().map(|q| q.len() as u32).sum::<u32>(),
            "free-block counter drifted from the queues"
        );
        self.free_count
    }

    /// Page-tail bytes trapped across all blocks.
    pub(crate) fn waste_bytes(&self) -> u64 {
        self.waste
    }

    pub(crate) fn state(&self, b: BlockId) -> Option<BState> {
        self.state.get(b.0 as usize).copied()
    }

    pub(crate) fn valid(&self, b: BlockId) -> u64 {
        self.valid.get(b.0 as usize).copied().unwrap_or(0)
    }

    pub(crate) fn refs(&self, b: BlockId) -> &[BlobRef] {
        self.refs.get(b.0 as usize).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn refs_mut(&mut self, b: BlockId) -> Option<&mut Vec<BlobRef>> {
        self.refs.get_mut(b.0 as usize)
    }

    /// Opens the next free block, round-robin across die-planes, giving
    /// it a spare ref buffer if it has none of its own.
    pub(crate) fn open_free(&mut self) -> Option<BlockId> {
        let n = self.free.len();
        let (q, b) = (0..n)
            .map(|i| (self.alloc_cursor + i) % n)
            .find_map(|q| Some((q, self.free.get_mut(q)?.pop_front()?)))?;
        self.free_count -= 1;
        self.alloc_cursor = (q + 1) % n;
        let i = b.0 as usize;
        let (state, refs) = (self.state.get_mut(i)?, self.refs.get_mut(i)?);
        *state = BState::Open;
        if refs.capacity() == 0 {
            *refs = self.spare_refs.pop().unwrap_or_default();
        }
        Some(b)
    }

    /// Retires `b` for good (its program failed).
    pub(crate) fn retire(&mut self, b: BlockId) -> Result<(), KvError> {
        *self.state.get_mut(b.0 as usize).ok_or(KvError::Internal {
            what: "program failed on a block outside the device",
        })? = BState::Dead;
        Ok(())
    }

    /// Counts segment `seg_no` (`alloc` bytes) of the key hashing to
    /// `hash` as appended to `b`.
    pub(crate) fn append(
        &mut self,
        b: BlockId,
        hash: u64,
        seg_no: u32,
        alloc: u32,
    ) -> Result<(), KvError> {
        let i = b.0 as usize;
        let (Some(valid), Some(refs)) = (self.valid.get_mut(i), self.refs.get_mut(i)) else {
            return Err(KvError::Internal {
                what: "segment appended to a block outside the device",
            });
        };
        *valid += alloc as u64;
        refs.push(BlobRef { hash, seg_no });
        Ok(())
    }

    pub(crate) fn add_waste(&mut self, b: BlockId, bytes: u64) {
        if let Some(waste) = self.waste_per_block.get_mut(b.0 as usize) {
            *waste += bytes;
            self.waste += bytes;
        }
    }

    /// Closes `b` once all its pages are written; true when it is full.
    /// A block becomes a victim candidate the moment it closes.
    pub(crate) fn close_if_full(&mut self, b: BlockId, flash: &FlashDevice) -> bool {
        if flash.written_pages(b) < flash.geometry().pages_per_block {
            return false;
        }
        if let Some(state) = self.state.get_mut(b.0 as usize) {
            if *state == BState::Open {
                *state = BState::Closed;
                let valid = self.valid(b);
                self.victims.note(b, valid, flash.erase_count(b));
                if valid == 0 {
                    self.retire_refs(b);
                }
            }
        }
        true
    }

    /// Decrements a block's valid-byte count. When the block is closed,
    /// its accounting tuple changed, so the victim queue gets the fresh
    /// snapshot (lazy invalidation: the old entry goes stale in place) —
    /// unless the block is the victim GC is draining.
    pub(crate) fn dec_valid(&mut self, b: BlockId, bytes: u64, flash: &FlashDevice) {
        let Some(valid) = self.valid.get_mut(b.0 as usize) else {
            return;
        };
        *valid -= bytes;
        let valid = *valid;
        if self.state(b) != Some(BState::Closed) {
            return;
        }
        if valid == 0 {
            self.retire_refs(b);
        }
        if self.victim == Some(b) {
            // No selection runs while a victim is held, and abandoning
            // one re-notes it, so a snapshot now could only go stale.
            // The zero-valid sweep must still see it: it erases in
            // ascending block order, the victim included.
            if valid == 0 {
                self.victims.note_zero_valid(b);
            }
            return;
        }
        self.victims.note(b, valid, flash.erase_count(b));
        // Each call strands the block's previous snapshot in the
        // queue: sweep once they outnumber the blocks 8:1 (amortised O(1)).
        if self.victims.len() > 8 * self.state.len() {
            let current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
            self.victims.drop_stale(current);
        }
    }

    /// A closed block's valid bytes reached zero, so every ref in it is
    /// stale: clear them. While the collector is idle (free blocks at or
    /// above the soft watermark) the block will sit closed until GC needs
    /// it, so its buffer goes to the spare list for a block opening in the
    /// meantime. Under GC, blocks die and reopen at the same pace, and each
    /// keeps its own buffer. No buffer is ever freed.
    fn retire_refs(&mut self, b: BlockId) {
        let Some(refs) = self.refs.get_mut(b.0 as usize) else {
            return;
        };
        refs.clear();
        if refs.capacity() > 0
            && self.free_count >= self.soft_free
            && self.spare_refs.len() < SPARE_REF_BUFFERS
        {
            self.spare_refs.push(std::mem::take(refs));
        }
    }

    /// The closed block GC is draining, if any.
    pub(crate) fn victim(&self) -> Option<BlockId> {
        self.victim
    }

    /// Greedy victim selection among closed blocks, held until erased or
    /// abandoned: fewest valid bytes first, and only blocks whose erase
    /// would actually gain space (dead bytes + trapped waste of at least
    /// one page's payload) — copying a fully live block around is pure
    /// churn. Served from the [`VictimQueue`]; debug builds check every
    /// selection against the reference scan, so the whole test suite
    /// doubles as a differential test.
    pub(crate) fn select_victim(&mut self, flash: &FlashDevice) -> Option<BlockId> {
        let current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
        let picked = self.victims.pop_best(self.page_payload, current);
        debug_assert_eq!(
            picked,
            self.select_victim_reference(flash),
            "victim queue diverged from the reference greedy scan"
        );
        self.victim = picked;
        picked
    }

    /// The original O(blocks) greedy scan, kept as the executable
    /// specification: debug builds compare every queue selection
    /// against it, and `gc_workload_matches_pinned_reference_history`
    /// pins the end-to-end history it produced when it ran for real.
    /// Preference order: fewest valid bytes, then least-worn, then
    /// lowest block id.
    fn select_victim_reference(&self, flash: &FlashDevice) -> Option<BlockId> {
        let mut current = Self::accounting(&self.state, &self.valid, flash, self.page_payload);
        let mut best: Option<(u64, u32, BlockId)> = None;
        for b in (0..self.state.len() as u32).map(BlockId) {
            let Some((valid, wear, gain)) = current(b) else {
                continue;
            };
            if gain >= self.page_payload
                && best.is_none_or(|(bv, bw, _)| valid < bv || (valid == bv && wear < bw))
            {
                best = Some((valid, wear, b));
            }
        }
        best.map(|(_, _, b)| b)
    }

    /// Gives up the held victim without erasing it. Its queue entry was
    /// consumed at selection, so it is noted again with the accounting
    /// the drain left: the queue must keep every closed block's current
    /// snapshot for the lazy-invalidation invariant to hold.
    pub(crate) fn abandon_victim(&mut self, flash: &FlashDevice) {
        if let Some(v) = self.victim.take() {
            self.victims.note(v, self.valid(v), flash.erase_count(v));
        }
    }

    /// Erases the held victim, if it is still closed; returns when the
    /// erase finished.
    pub(crate) fn erase_victim(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
    ) -> Result<Option<SimTime>, KvError> {
        match self.victim.take() {
            Some(v) => self.erase(v, now, flash),
            None => Ok(None),
        }
    }

    /// Erases every closed block holding no valid data (zero-copy
    /// reclaim) in ascending block order, the order the old full scan
    /// erased them in. Returns the last erase's completion and how many
    /// blocks were erased.
    pub(crate) fn erase_zero_valid(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
    ) -> Result<(SimTime, u64), KvError> {
        let held = self.victim.take();
        let (state, valid) = (&self.state, &self.valid);
        let zero = |b: BlockId| {
            let i = b.0 as usize;
            state.get(i) == Some(&BState::Closed) && valid.get(i) == Some(&0)
        };
        let candidates = self.victims.take_zero_valid(zero);
        debug_assert_eq!(
            candidates,
            (0..self.state.len() as u32)
                .filter(|&b| zero(BlockId(b)))
                .collect::<Vec<u32>>(),
            "zero-valid sweep diverged from reference scan"
        );
        let (mut t, mut erased) = (now, 0);
        for &id in &candidates {
            if let Some(done) = self.erase(BlockId(id), t, flash)? {
                (t, erased) = (done, erased + 1);
            }
        }
        self.victims.recycle_zero_buf(candidates);
        // Hold the in-progress victim again only if this sweep did not
        // erase it — a stale handle would later erase whatever block
        // reuses that id.
        self.victim = held.filter(|&v| self.state(v) == Some(BState::Closed));
        Ok((t, erased))
    }

    /// Erases closed block `b`, reclaiming its trapped waste, and hands
    /// it back to its die-plane's free queue — or retires it when the
    /// erase fails. Does nothing unless `b` is closed: a stale victim
    /// handle must never take down a live block.
    fn erase(
        &mut self,
        b: BlockId,
        now: SimTime,
        flash: &mut FlashDevice,
    ) -> Result<Option<SimTime>, KvError> {
        let i = b.0 as usize;
        let (Some(state), Some(refs), Some(waste)) = (
            self.state.get_mut(i).filter(|s| **s == BState::Closed),
            self.refs.get_mut(i),
            self.waste_per_block.get_mut(i),
        ) else {
            return Ok(None);
        };
        debug_assert_eq!(self.valid.get(i), Some(&0));
        refs.clear();
        self.waste -= std::mem::take(waste);
        let r = flash.erase_block(now, b).map_err(|_| KvError::Internal {
            what: "erase rejected on a closed victim block",
        })?;
        if r.failed {
            *state = BState::Dead;
            return Ok(Some(r.done));
        }
        *state = BState::Free;
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
    /// borrowable.
    fn accounting<'a>(
        state: &'a [BState],
        valid: &'a [u64],
        flash: &'a FlashDevice,
        payload: u64,
    ) -> impl FnMut(BlockId) -> Option<(u64, u32, u64)> + 'a {
        move |b| {
            let i = b.0 as usize;
            let v = *valid
                .get(i)
                .filter(|_| state.get(i) == Some(&BState::Closed))?;
            let written = flash.written_pages(b) as u64;
            Some((v, flash.erase_count(b), written * payload - v))
        }
    }
}

#[cfg(test)]
impl BlockTable {
    pub(crate) fn spare_ref_buffers(&self) -> usize {
        self.spare_refs.len()
    }

    /// Victim-queue snapshots held, stale ones included.
    pub(crate) fn victim_snapshots(&self) -> usize {
        self.victims.len()
    }
}
