//! The KV-FTL's share of block accounting: every block's reverse map
//! (in one [`RefPool`]) and trapped page-tail waste, on top of the
//! [`BlockPool`] both firmwares share (block states, valid bytes, free
//! queues, the GC victim queue). [`BlockTable`] owns both, so every
//! accounting change passes through this module.

mod ref_pool;

use kvssd_flash::{BlockId, BlockPool, BlockState, FlashDevice};
use kvssd_sim::SimTime;

use crate::config::{KvConfig, INDEX_RESERVE_PCT};
use crate::error::KvError;
use ref_pool::RefPool;

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

/// The KV firmware's block accounting (see module docs).
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Block states, valid bytes, free queues and the GC victim.
    pub(crate) pool: BlockPool,
    /// Every block's refs, in append order. Appends and retirement go
    /// through this table; GC pops and pushes back directly.
    pub(crate) refs: RefPool,
    waste: Waste,
    alloc_cursor: usize,
}

/// The error every erase the flash rejects maps to.
const ERASE_REJECTED: KvError = KvError::Internal {
    what: "erase rejected on a closed victim block",
};

impl BlockTable {
    /// Every block of `flash`, free except the first `INDEX_RESERVE_PCT`
    /// of each die-plane: those are preprogrammed and returned as the
    /// index region, so index traffic spreads across dies.
    pub(crate) fn new(flash: &mut FlashDevice, config: &KvConfig) -> (Self, Vec<BlockId>) {
        let g = *flash.geometry();
        let per_dp_reserve = (g.blocks_per_plane * INDEX_RESERVE_PCT)
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
            refs: RefPool::new(g.total_blocks() as usize),
            waste: Waste {
                per_block: vec![0; g.total_blocks() as usize],
                total: 0,
            },
            alloc_cursor: 0,
        };
        (table, reserved)
    }

    /// Page-tail bytes trapped across all blocks.
    pub(crate) fn waste_bytes(&self) -> u64 {
        self.waste.total
    }

    /// Opens the next free block, round-robin across die-planes.
    pub(crate) fn open_free(&mut self) -> Option<BlockId> {
        let (next, b) = self.pool.pop_free_from(self.alloc_cursor)?;
        self.alloc_cursor = next;
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
        let outside = KvError::Internal {
            what: "segment appended to a block outside the device",
        };
        self.refs.push(b, BlobRef { hash, seg_no }).ok_or(outside)?;
        self.pool.add_valid(b, alloc as u64);
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
    /// stale: its chunks go back to the pool.
    fn retire_refs(&mut self, b: BlockId) {
        self.refs.clear(b);
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
