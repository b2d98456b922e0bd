//! Cluster-granularity mapping table.
//!
//! Maps logical cluster numbers (LCN, 4 KiB units) to physical slots
//! (block, page, slot-within-page) and keeps the reverse map garbage
//! collection needs. Valid-data counts are the shared block pool's: every
//! change of a cluster's location returns the slot it left. The whole
//! structure models the FTL's DRAM-resident tables; its *timing* cost is
//! charged by the device (`config::MAP_OP`), its *behavior* is
//! exact.
//!
//! Layout: two flat `u32` arrays at a real FTL's density, 4 B per cluster
//! each way. `forward[lcn]` is the device-wide index of the slot the LCN
//! lives in (`block * slots_per_block + page * clusters_per_page +
//! slot`) plus one; `reverse[slot]` is the LCN the slot holds plus one.
//! Zero means none, so both arrays start as zeroed allocations and only
//! the pages of LCNs and blocks ever mapped become resident host memory.
//! [`MappingTable::new`] rejects a geometry whose counts plus one do not
//! fit a `u32`.

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

/// Logical-to-physical mapping plus the GC reverse map (see module docs).
#[derive(Debug)]
pub struct MappingTable {
    /// Per LCN: its slot's device-wide index plus one (0 = unmapped).
    forward: Vec<u32>,
    /// Per device-wide slot: the LCN it holds plus one (0 = invalid/pad).
    reverse: Vec<u32>,
    /// For each block: no slot below this index is live. GC drains a
    /// victim lowest slot first, so the scan in [`Self::first_live`]
    /// resumes here instead of at slot 0.
    live_floor: Vec<u32>,
    clusters_per_page: u32,
    slots_per_block: u32,
}

impl MappingTable {
    /// Creates an empty table for `logical_clusters` LCNs over `geometry`.
    ///
    /// # Panics
    ///
    /// If `logical_clusters + 1` or the number of physical slots plus one
    /// does not fit a `u32` (checked in `u64`, before anything is
    /// allocated).
    pub fn new(logical_clusters: u64, geometry: &Geometry, clusters_per_page: u32) -> Self {
        let g = geometry;
        let factors = [
            g.channels,
            g.dies_per_channel,
            g.planes_per_die,
            g.blocks_per_plane,
            g.pages_per_block,
        ];
        let slots = factors
            .into_iter()
            .try_fold(clusters_per_page as u64, |n, f| n.checked_mul(f as u64));
        let slots = match slots {
            Some(n) if n < u32::MAX as u64 && logical_clusters < u32::MAX as u64 => n,
            _ => panic!(
                "mapping table: {logical_clusters} logical clusters over {g:?} at \
                 {clusters_per_page} clusters per page; the logical clusters and the \
                 physical slots, each plus one, must fit a u32"
            ),
        };
        MappingTable {
            forward: vec![0; logical_clusters as usize],
            reverse: vec![0; slots as usize],
            live_floor: vec![0; g.total_blocks() as usize],
            clusters_per_page,
            slots_per_block: g.pages_per_block * clusters_per_page,
        }
    }

    /// Current physical location of `lcn`, if mapped.
    pub fn lookup(&self, lcn: u32) -> Option<PhysLoc> {
        let slot = self.forward[lcn as usize].checked_sub(1)?;
        Some(self.loc_of(slot))
    }

    /// Points `lcn` at a new location, invalidating the old one, which
    /// it returns.
    pub fn update(&mut self, lcn: u32, loc: PhysLoc) -> Option<PhysLoc> {
        let old = self.invalidate(lcn);
        let in_block = loc.page * self.clusters_per_page + loc.slot;
        debug_assert!(loc.slot < self.clusters_per_page && in_block < self.slots_per_block);
        let slot = self.block_slots(loc.block).start + in_block as usize;
        let rev = &mut self.reverse[slot];
        debug_assert_eq!(*rev, 0, "slot written twice without erase");
        *rev = lcn + 1;
        // `new` keeps every slot index below `u32::MAX`.
        self.forward[lcn as usize] = slot as u32 + 1;
        let floor = &mut self.live_floor[loc.block.0 as usize];
        *floor = (*floor).min(in_block);
        old
    }

    /// Unmaps `lcn` (overwrite or TRIM), returning where it was.
    /// Idempotent.
    pub fn invalidate(&mut self, lcn: u32) -> Option<PhysLoc> {
        let slot = std::mem::take(&mut self.forward[lcn as usize]).checked_sub(1)?;
        self.reverse[slot as usize] = 0;
        Some(self.loc_of(slot))
    }

    /// The valid cluster in the lowest slot of `block` (GC's next copy),
    /// or `None` when the block holds no valid data. Amortized O(1)
    /// while a block drains: the scan never revisits a dead slot.
    pub fn first_live(&mut self, block: BlockId) -> Option<(u32, PhysLoc)> {
        let slots = self.block_slots(block);
        let floor = &mut self.live_floor[block.0 as usize];
        let rev = &self.reverse[slots.start + *floor as usize..slots.end];
        let found = rev.iter().position(|&held| held != 0);
        *floor += found.unwrap_or(rev.len()) as u32;
        let lcn = rev[found?] - 1;
        let at = slots.start as u32 + *floor;
        Some((lcn, self.loc_of(at)))
    }

    /// Resets `block`'s scan floor at its erase. Its reverse entries are
    /// already clear: the pool erases only a block holding no valid data,
    /// and every cluster leaves through [`Self::invalidate`].
    pub fn on_erase(&mut self, block: BlockId) {
        debug_assert!(
            self.reverse[self.block_slots(block)]
                .iter()
                .all(|&held| held == 0),
            "erasing {block:?} while it holds a mapped cluster"
        );
        self.live_floor[block.0 as usize] = 0;
    }

    /// The device-wide slot indices of `block`.
    fn block_slots(&self, block: BlockId) -> std::ops::Range<usize> {
        let start = block.0 as usize * self.slots_per_block as usize;
        start..start + self.slots_per_block as usize
    }

    /// The location of device-wide slot index `slot`.
    fn loc_of(&self, slot: u32) -> PhysLoc {
        let in_block = slot % self.slots_per_block;
        PhysLoc {
            block: BlockId(slot / self.slots_per_block),
            page: in_block / self.clusters_per_page,
            slot: in_block % self.clusters_per_page,
        }
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

    /// Every mapped slot of the first `blocks` blocks of `slots` slots,
    /// found through `lookup` alone (device-wide slot index -> LCN).
    fn held_slots(t: &MappingTable, blocks: u32, slots: u32, cpp: u32) -> Vec<Option<u32>> {
        let mut held = vec![None; (blocks * slots) as usize];
        for lcn in 0..t.forward.len() as u32 {
            if let Some(l) = t.lookup(lcn) {
                held[(l.block.0 * slots + l.page * cpp + l.slot) as usize] = Some(lcn);
            }
        }
        held
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
            let mut held = held_slots(&t, blocks, slots, cpp);
            for _ in 0..20_000 {
                let b = rng.below(blocks as u64) as u32;
                match rng.below(16) {
                    // Erase (after unmapping whatever the block holds).
                    0 => {
                        for _ in 0..slots {
                            let Some((lcn, _)) = t.first_live(BlockId(b)) else {
                                break;
                            };
                            t.invalidate(lcn);
                        }
                        t.on_erase(BlockId(b));
                    }
                    1..=6 => {
                        t.invalidate(rng.below(1024) as u32);
                    }
                    // Map an LCN to a random free slot, below the floor too.
                    _ => {
                        let i = rng.below(slots as u64) as u32;
                        if held[(b * slots + i) as usize].is_none() {
                            t.update(rng.below(1024) as u32, loc(b, i / cpp, i % cpp));
                        }
                    }
                }
                held = held_slots(&t, blocks, slots, cpp);
                for b in 0..blocks {
                    let block = &held[(b * slots) as usize..((b + 1) * slots) as usize];
                    let scan = block
                        .iter()
                        .enumerate()
                        .find_map(|(i, &lcn)| Some((lcn?, loc(b, i as u32 / cpp, i as u32 % cpp))));
                    assert_eq!(t.first_live(BlockId(b)), scan, "seed {seed} block {b}");
                }
            }
        }
    }

    /// Below `n`, and `n - 1` one time in eight (the last LCN, block or
    /// slot is where an off-by-one in the packing would show).
    fn edge_biased(rng: &mut kvssd_sim::DeterministicRng, n: u32) -> u32 {
        if rng.below(8) == 0 {
            n - 1
        } else {
            rng.below(n as u64) as u32
        }
    }

    /// The packed table against a naive one: an `Option<PhysLoc>` per LCN
    /// and an `Option<u32>` per slot of each block, under seeded updates
    /// (below a block's floor too), invalidations, `first_live` probes and
    /// erases of drained blocks, over the whole of `Geometry::small()`.
    #[test]
    fn packed_table_matches_a_naive_model() {
        use kvssd_sim::DeterministicRng;
        let g = Geometry::small();
        let cpp = 8u32;
        let (blocks, slots) = (g.total_blocks(), g.pages_per_block * cpp);
        let lcns = blocks * slots * 88 / 100;
        let naive_first_live = |rev: &[Option<u32>], b: u32| {
            rev.iter()
                .enumerate()
                .find_map(|(i, &lcn)| Some((lcn?, loc(b, i as u32 / cpp, i as u32 % cpp))))
        };
        for seed in [4u64, 5, 6] {
            let mut rng = DeterministicRng::seed_from(seed);
            let mut t = MappingTable::new(lcns as u64, &g, cpp);
            let mut forward: Vec<Option<PhysLoc>> = vec![None; lcns as usize];
            let mut reverse: Vec<Vec<Option<u32>>> =
                vec![vec![None; slots as usize]; blocks as usize];
            let mut edges = [false; 2];
            for step in 0..40_000 {
                let (b, i) = (edge_biased(&mut rng, blocks), edge_biased(&mut rng, slots));
                match rng.below(16) {
                    // Erase, after unmapping whatever the block holds.
                    0 => {
                        for lcn in reverse[b as usize].iter_mut().filter_map(Option::take) {
                            let old = forward[lcn as usize].take();
                            assert_eq!(t.invalidate(lcn), old, "seed {seed} step {step}");
                        }
                        assert_eq!(t.first_live(BlockId(b)), None, "seed {seed} step {step}");
                        t.on_erase(BlockId(b));
                    }
                    1..=5 => {
                        let lcn = edge_biased(&mut rng, lcns);
                        let old = forward[lcn as usize].take();
                        if let Some(o) = old {
                            reverse[o.block.0 as usize][(o.page * cpp + o.slot) as usize] = None;
                        }
                        assert_eq!(t.invalidate(lcn), old, "seed {seed} step {step}");
                    }
                    6..=8 => {
                        let want = naive_first_live(&reverse[b as usize], b);
                        assert_eq!(t.first_live(BlockId(b)), want, "seed {seed} step {step}");
                    }
                    // Map an LCN to a free slot, below the floor too.
                    _ if reverse[b as usize][i as usize].is_none() => {
                        let lcn = edge_biased(&mut rng, lcns);
                        let at = loc(b, i / cpp, i % cpp);
                        let old = forward[lcn as usize].replace(at);
                        if let Some(o) = old {
                            reverse[o.block.0 as usize][(o.page * cpp + o.slot) as usize] = None;
                        }
                        reverse[b as usize][i as usize] = Some(lcn);
                        edges[0] |= lcn == lcns - 1;
                        edges[1] |= b == blocks - 1 && i == slots - 1;
                        assert_eq!(t.update(lcn, at), old, "seed {seed} step {step}");
                    }
                    _ => {}
                }
                if step % 1_000 == 999 {
                    for lcn in 0..lcns {
                        assert_eq!(
                            t.lookup(lcn),
                            forward[lcn as usize],
                            "seed {seed} lcn {lcn}"
                        );
                    }
                    for (b, rev) in (0..blocks).zip(&reverse) {
                        let want = naive_first_live(rev, b);
                        assert_eq!(t.first_live(BlockId(b)), want, "seed {seed} block {b}");
                    }
                }
            }
            assert_eq!(
                edges, [true; 2],
                "seed {seed}: the last LCN and the last slot were mapped"
            );
        }
    }

    #[test]
    #[should_panic(expected = "each plus one, must fit a u32")]
    fn logical_clusters_past_u32_rejected() {
        MappingTable::new(u32::MAX as u64, &Geometry::small(), 8);
    }

    #[test]
    #[should_panic(expected = "each plus one, must fit a u32")]
    fn physical_slots_past_u32_rejected() {
        // 2^19 blocks of 1024 pages of 8 clusters: 2^32 slots.
        let g = Geometry {
            blocks_per_plane: 1 << 16,
            pages_per_block: 1 << 10,
            ..Geometry::small()
        };
        MappingTable::new(1024, &g, 8);
    }

    #[test]
    #[should_panic(expected = "each plus one, must fit a u32")]
    fn block_count_past_u32_rejected() {
        // 2^32 dies: `Geometry::total_blocks` itself would wrap a `u32`.
        let g = Geometry {
            channels: 1 << 16,
            dies_per_channel: 1 << 16,
            ..Geometry::small()
        };
        MappingTable::new(1024, &g, 8);
    }
}
