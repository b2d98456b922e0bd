//! Cluster-granularity mapping table.
//!
//! Maps logical cluster numbers (LCN, 4 KiB units) to physical slots
//! (block, page, slot-within-page) and keeps the reverse maps garbage
//! collection needs. Valid-data counts are the shared block pool's: every
//! change of a cluster's location returns the slot it left. The whole
//! structure models the FTL's DRAM-resident tables; its *timing* cost is
//! charged by the device (`BlockFtlConfig::map_op`), its *behavior* is
//! exact.

use kvssd_flash::{BlockId, Geometry};

/// A physical cluster slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysLoc {
    /// The erase block.
    pub block: BlockId,
    /// Page within the block.
    pub page: u32,
    /// Cluster slot within the page.
    pub slot: u32,
}

/// Logical-to-physical mapping plus GC reverse maps (see module docs).
#[derive(Debug)]
pub struct MappingTable {
    forward: Vec<Option<PhysLoc>>,
    /// For each block: reverse map slot-index -> LCN (None = invalid/pad).
    reverse: Vec<Vec<Option<u32>>>,
    /// For each block: no slot below this index is live. GC drains a
    /// victim lowest slot first, so the scan in [`Self::first_live`]
    /// resumes here instead of at slot 0.
    live_floor: Vec<u32>,
    clusters_per_page: u32,
}

impl MappingTable {
    /// Creates an empty table for `logical_clusters` LCNs over `geometry`.
    pub fn new(logical_clusters: u64, geometry: &Geometry, clusters_per_page: u32) -> Self {
        let slots_per_block = geometry.pages_per_block * clusters_per_page;
        MappingTable {
            clusters_per_page,
            forward: vec![None; logical_clusters as usize],
            reverse: vec![vec![None; slots_per_block as usize]; geometry.total_blocks() as usize],
            live_floor: vec![0; geometry.total_blocks() as usize],
        }
    }

    /// Current physical location of `lcn`, if mapped.
    pub fn lookup(&self, lcn: u32) -> Option<PhysLoc> {
        self.forward[lcn as usize]
    }

    /// Points `lcn` at a new location, invalidating the old one, which
    /// it returns.
    pub fn update(&mut self, lcn: u32, loc: PhysLoc) -> Option<PhysLoc> {
        let old = self.invalidate(lcn);
        self.forward[lcn as usize] = Some(loc);
        let slot = self.slot_index(loc);
        let rev = &mut self.reverse[loc.block.0 as usize];
        debug_assert!(rev[slot].is_none(), "slot written twice without erase");
        rev[slot] = Some(lcn);
        let floor = &mut self.live_floor[loc.block.0 as usize];
        *floor = (*floor).min(slot as u32);
        old
    }

    /// Unmaps `lcn` (overwrite or TRIM), returning where it was.
    /// Idempotent.
    pub fn invalidate(&mut self, lcn: u32) -> Option<PhysLoc> {
        let old = self.forward[lcn as usize].take()?;
        let slot = self.slot_index(old);
        self.reverse[old.block.0 as usize][slot] = None;
        Some(old)
    }

    /// The valid cluster in the lowest slot of `block` (GC's next copy),
    /// or `None` when the block holds no valid data. Amortized O(1)
    /// while a block drains: the scan never revisits a dead slot.
    pub fn first_live(&mut self, block: BlockId) -> Option<(u32, PhysLoc)> {
        let b = block.0 as usize;
        let rev = &self.reverse[b];
        let from = self.live_floor[b] as usize;
        let found = rev[from..].iter().position(Option::is_some);
        let i = found.map_or(rev.len(), |off| from + off);
        self.live_floor[b] = i as u32;
        let lcn = (*rev.get(i)?)?;
        let loc = PhysLoc {
            block,
            page: i as u32 / self.clusters_per_page,
            slot: i as u32 % self.clusters_per_page,
        };
        Some((lcn, loc))
    }

    /// Clears all reverse-map entries of `block` at its erase (the pool
    /// checks it holds no valid data).
    pub fn on_erase(&mut self, block: BlockId) {
        for s in &mut self.reverse[block.0 as usize] {
            *s = None;
        }
        self.live_floor[block.0 as usize] = 0;
    }

    fn slot_index(&self, loc: PhysLoc) -> usize {
        debug_assert!(loc.slot < self.clusters_per_page);
        (loc.page * self.clusters_per_page + loc.slot) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MappingTable {
        let g = Geometry::small();
        MappingTable::new(1024, &g, 8)
    }

    fn loc(block: u32, page: u32, slot: u32) -> PhysLoc {
        PhysLoc {
            block: BlockId(block),
            page,
            slot,
        }
    }

    #[test]
    fn update_then_lookup() {
        let mut t = table();
        assert_eq!(t.update(7, loc(1, 2, 3)), None);
        assert_eq!(t.lookup(7), Some(loc(1, 2, 3)));
    }

    #[test]
    fn overwrite_invalidates_old_location() {
        let mut t = table();
        t.update(7, loc(1, 0, 0));
        assert_eq!(t.update(7, loc(2, 0, 0)), Some(loc(1, 0, 0)));
        assert_eq!(t.first_live(BlockId(1)), None);
        assert_eq!(t.lookup(7), Some(loc(2, 0, 0)));
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut t = table();
        t.update(3, loc(0, 0, 0));
        assert_eq!(t.invalidate(3), Some(loc(0, 0, 0)));
        assert_eq!(t.invalidate(3), None);
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    fn first_live_skips_invalidated_slots() {
        let mut t = table();
        t.update(1, loc(0, 0, 0));
        t.update(2, loc(0, 0, 1));
        t.update(3, loc(0, 1, 0));
        assert_eq!(t.first_live(BlockId(0)), Some((1, loc(0, 0, 0))));
        t.invalidate(1);
        t.invalidate(2);
        assert_eq!(t.first_live(BlockId(0)), Some((3, loc(0, 1, 0))));
        t.invalidate(3);
        assert_eq!(t.first_live(BlockId(0)), None);
    }

    #[test]
    fn first_live_matches_a_full_scan_under_random_churn() {
        use kvssd_sim::DeterministicRng;
        let g = Geometry::small();
        let (cpp, blocks) = (8u32, 4u32);
        let slots = g.pages_per_block * cpp;
        for seed in [1u64, 2, 3] {
            let mut rng = DeterministicRng::seed_from(seed);
            let mut t = MappingTable::new(1024, &g, cpp);
            for _ in 0..20_000 {
                let b = rng.below(blocks as u64) as u32;
                match rng.below(16) {
                    // Erase (after unmapping whatever the block holds).
                    0 => {
                        while let Some((lcn, _)) = t.first_live(BlockId(b)) {
                            t.invalidate(lcn);
                        }
                        t.on_erase(BlockId(b));
                    }
                    1..=6 => {
                        t.invalidate(rng.below(1024) as u32);
                    }
                    // Map an LCN to a random slot, below the floor too.
                    _ => {
                        let i = rng.below(slots as u64) as u32;
                        if t.reverse[b as usize][i as usize].is_none() {
                            t.update(rng.below(1024) as u32, loc(b, i / cpp, i % cpp));
                        }
                    }
                }
                for b in 0..blocks {
                    let scan = t.reverse[b as usize]
                        .iter()
                        .enumerate()
                        .find_map(|(i, &lcn)| Some((lcn?, loc(b, i as u32 / cpp, i as u32 % cpp))));
                    assert_eq!(t.first_live(BlockId(b)), scan, "seed {seed} block {b}");
                }
            }
        }
    }
}
