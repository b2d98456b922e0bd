//! The KV-FTL's share of block accounting: every block's reverse map
//! and trapped page-tail waste, on top of the [`BlockPool`] both
//! firmwares share (block states, valid bytes, free queues, the GC victim
//! queue). [`BlockTable`] owns both, so every accounting change passes
//! through this module.

use kvssd_flash::{BlockId, BlockPool, BlockState, FlashDevice};
use kvssd_sim::SimTime;

use crate::config::KvConfig;
use crate::error::KvError;

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

/// The KV firmware's block accounting (see module docs).
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Block states, valid bytes, free queues and the GC victim.
    pub(crate) pool: BlockPool,
    refs: Vec<Vec<BlobRef>>,
    /// Cleared ref buffers handed over by closed blocks whose valid bytes
    /// reached zero, for blocks that open without one. Reserved at
    /// construction and never over-filled, so it never reallocates.
    spare_refs: Vec<Vec<BlobRef>>,
    waste: Waste,
    alloc_cursor: usize,
    soft_free: u32,
}

/// The error every erase the flash rejects maps to.
const ERASE_REJECTED: KvError = KvError::Internal {
    what: "erase rejected on a closed victim block",
};

impl BlockTable {
    /// Every block of `flash`, free except the first `index_reserve_pct`
    /// of each die-plane: those are preprogrammed and returned as the
    /// index region, so index traffic spreads across dies.
    pub(crate) fn new(flash: &mut FlashDevice, config: &KvConfig) -> (Self, Vec<BlockId>) {
        let g = *flash.geometry();
        let per_dp_reserve = (g.blocks_per_plane * config.index_reserve_pct)
            .div_ceil(100)
            .max(1);
        let payload = config.page_payload_bytes as u64;
        let pool = BlockPool::new(&g, payload, payload, per_dp_reserve);
        let reserved: Vec<BlockId> = (0..g.total_blocks())
            .map(BlockId)
            .filter(|&b| pool.state(b) == Some(BlockState::Reserved))
            .collect();
        for &b in &reserved {
            flash.preprogram_block(b);
        }
        let table = BlockTable {
            pool,
            refs: vec![Vec::new(); g.total_blocks() as usize],
            spare_refs: Vec::with_capacity(SPARE_REF_BUFFERS),
            waste: Waste {
                per_block: vec![0; g.total_blocks() as usize],
                total: 0,
            },
            alloc_cursor: 0,
            soft_free: config.gc_soft_free_blocks,
        };
        (table, reserved)
    }

    /// Page-tail bytes trapped across all blocks.
    pub(crate) fn waste_bytes(&self) -> u64 {
        self.waste.total
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
        let (next, b) = self.pool.pop_free_from(self.alloc_cursor)?;
        self.alloc_cursor = next;
        let refs = self.refs.get_mut(b.0 as usize)?;
        if refs.capacity() == 0 {
            *refs = self.spare_refs.pop().unwrap_or_default();
        }
        Some(b)
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
        let Some(refs) = self.refs.get_mut(b.0 as usize) else {
            return Err(KvError::Internal {
                what: "segment appended to a block outside the device",
            });
        };
        self.pool.add_valid(b, alloc as u64);
        refs.push(BlobRef { hash, seg_no });
        Ok(())
    }

    pub(crate) fn add_waste(&mut self, b: BlockId, bytes: u64) {
        if let Some(waste) = self.waste.per_block.get_mut(b.0 as usize) {
            *waste += bytes;
            self.waste.total += bytes;
        }
    }

    /// Closes `b` once all its pages are written; true when it is full.
    /// A block becomes a victim candidate the moment it closes.
    pub(crate) fn close_if_full(&mut self, b: BlockId, flash: &FlashDevice) -> bool {
        if flash.written_pages(b) < flash.geometry().pages_per_block {
            return false;
        }
        if self.pool.close(b, flash) {
            self.retire_refs(b);
        }
        true
    }

    /// Counts `bytes` of `b`'s data as dead (the pool notes the victim
    /// queue).
    pub(crate) fn dec_valid(&mut self, b: BlockId, bytes: u64, flash: &FlashDevice) {
        if self.pool.dec_valid(b, bytes, flash) {
            self.retire_refs(b);
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
            && self.pool.free_blocks() >= self.soft_free
            && self.spare_refs.len() < SPARE_REF_BUFFERS
        {
            self.spare_refs.push(std::mem::take(refs));
        }
    }

    /// Erases the held victim, if it is still closed; returns when the
    /// erase finished. Its refs went when its valid bytes reached zero.
    pub(crate) fn erase_victim(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
    ) -> Result<Option<SimTime>, KvError> {
        let waste = &mut self.waste;
        let erased = self.pool.erase_victim(now, flash, |b| waste.reclaim(b));
        erased.map_err(|_| ERASE_REJECTED)
    }

    /// Erases every closed block holding no valid data (zero-copy
    /// reclaim). Returns the last erase's completion and how many blocks
    /// were erased.
    pub(crate) fn erase_zero_valid(
        &mut self,
        now: SimTime,
        flash: &mut FlashDevice,
    ) -> Result<(SimTime, u64), KvError> {
        let waste = &mut self.waste;
        let erased = self.pool.erase_zero_valid(now, flash, |b| waste.reclaim(b));
        erased.map_err(|_| ERASE_REJECTED)
    }
}

/// Page-tail bytes lost to internal fragmentation, per block and in
/// total; a block's are reclaimed when GC erases it.
#[derive(Debug)]
struct Waste {
    per_block: Vec<u64>,
    total: u64,
}

impl Waste {
    fn reclaim(&mut self, b: BlockId) {
        self.total -= self
            .per_block
            .get_mut(b.0 as usize)
            .map_or(0, std::mem::take);
    }
}

#[cfg(test)]
impl BlockTable {
    pub(crate) fn spare_ref_buffers(&self) -> usize {
        self.spare_refs.len()
    }
}
