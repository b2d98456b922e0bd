//! Program-failure handling: a failed program retires its block, and
//! every live segment of the failed page is placed again.

use kvssd_flash::{BlockId, BlockState};
use kvssd_sim::{PrehashedSet, SimTime};

use super::{KeyId, KvSsd};
use crate::blocks::BlobRef;
use crate::error::KvError;
use crate::index::SegLoc;

impl KvSsd {
    /// [`Self::append_segment`] with retry: if the placement landed on a
    /// page whose program failed (block retired under our feet, and the
    /// failure handler cannot see an unpublished segment), undo the
    /// accounting and place it again.
    pub(super) fn append_segment_retry(
        &mut self,
        now: SimTime,
        key: KeyId,
        seg_no: u32,
        alloc: u32,
        raw: u32,
        dedicated: bool,
    ) -> Result<Option<(SegLoc, Option<SimTime>)>, KvError> {
        for _ in 0..16 {
            let Some((loc, done)) = self.append_segment(now, key, seg_no, alloc, raw, dedicated)?
            else {
                return Ok(None);
            };
            if self.blocks.pool.state(loc.block) != Some(BlockState::Dead) {
                return Ok(Some((loc, done)));
            }
            // The copy on the dead block is garbage now; it was counted
            // once by the append, so uncount it once and try again.
            self.blocks.dec_valid(loc.block, alloc as u64, &self.flash);
        }
        Err(KvError::Internal {
            what: "16 consecutive program failures placing one segment — \
                   fault rate too high to make progress",
        })
    }

    /// After a failed program, retire the block and re-place every
    /// segment that still maps to the failed page.
    pub(super) fn handle_program_failure(
        &mut self,
        now: SimTime,
        block: BlockId,
        page: u32,
    ) -> Result<(), KvError> {
        self.blocks.pool.retire(block);
        for s in &mut self.streams {
            s.active.retain(|&b| b != block);
            if s.open.as_ref().is_some_and(|p| p.block == block) {
                s.open = None;
                s.pending.clear();
            }
        }
        // A block's ref list may name the same (key, segment) several
        // times (stale refs from overwrites that landed in the same
        // page); each live segment must be re-placed exactly once.
        let mut seen = PrehashedSet::default();
        let on_page = |s: &SegLoc| s.block == block && u32::from(s.page) == page;
        let live = |r: BlobRef| {
            Some((
                self.index.find_segment(r.hash, r.seg_no, on_page)?.0,
                r.seg_no,
            ))
        };
        let refs = self.blocks.refs.iter(block);
        let victims: Vec<(KeyId, u32)> =
            refs.filter_map(live).filter(|v| seen.insert(*v)).collect();
        for &(key, seg_no) in &victims {
            let Some(&seg) = self
                .index
                .get(key.hash, key.fp)
                .and_then(|e| e.segs.get(seg_no as usize))
            else {
                continue;
            };
            self.blocks.dec_valid(block, seg.alloc as u64, &self.flash);
            self.stats.replaced_after_failure += 1;
            let (alloc, raw) = (seg.alloc.into(), seg.raw.into());
            let (new_loc, _) = self
                .append_segment(now, key, seg_no, alloc, raw, false)?
                .ok_or(KvError::Internal {
                    what: "no space to re-place data after a program failure",
                })?;
            if let Some(s) = self
                .index
                .get_mut(key.hash, key.fp)
                .and_then(|e| e.segs.get_mut(seg_no as usize))
            {
                *s = new_loc;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::key;
    use super::*;
    use crate::config::KvConfig;
    use crate::value::Payload;
    use kvssd_flash::{FaultPlan, FlashDevice, FlashTiming, Geometry};
    use kvssd_sim::rng::mix64;
    use kvssd_sim::DeterministicRng;

    /// `failure_campaign`'s behavior digest: final virtual time,
    /// segments re-placed after program failures, GC-copied segments,
    /// live pairs and a fold of every live key's segment locations.
    type FailureDigest = (SimTime, u64, u64, u64, u64);

    /// Fills keys `0..n`, then runs `ops` random deletes, retrieves and
    /// stores (1 : 1 : 6) with keys from `pick` and values from `value`
    /// (given the key and, after the fill, the op), on 64 blocks of
    /// flash that fail one program in `fail_one_in`, while GC runs.
    fn failure_campaign(
        seed: u64,
        fail_one_in: u64,
        (n, ops): (u64, u64),
        pick: impl Fn(&mut DeterministicRng) -> u64,
        value: impl Fn(&mut DeterministicRng, u64, Option<u64>) -> Payload,
    ) -> FailureDigest {
        let geometry = Geometry {
            blocks_per_plane: 8,
            pages_per_block: 16,
            ..Geometry::small()
        };
        let faults = FaultPlan {
            program_fail_one_in: Some(fail_one_in),
            erase_fail_one_in: None,
        };
        let flash = FlashDevice::with_faults(geometry, FlashTiming::pm983_like(), faults);
        let mut d = KvSsd::over(flash, KvConfig::small());
        let mut rng = DeterministicRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = d.store(t, &key(i), value(&mut rng, i, None)).unwrap();
        }
        for op in 0..ops {
            let i = pick(&mut rng);
            match rng.below(8) {
                0 => t = d.delete(t, &key(i)).unwrap().0,
                1 => t = d.retrieve(t, &key(i)).unwrap().at,
                _ => t = d.store(t, &key(i), value(&mut rng, i, Some(op))).unwrap(),
            }
        }
        t = d.flush(t).unwrap();
        let s = d.stats();
        assert!(s.replaced_after_failure > 0 && s.gc_copied_segments > 0);
        let mut fold = 0u64;
        for i in 0..n {
            for seg in d.segments_of(&key(i)).unwrap_or_default() {
                let at = (seg.block.0 as u64) << 40 | (seg.page as u64) << 20 | seg.offset as u64;
                fold = mix64(fold ^ at) ^ ((seg.alloc as u64) << 32) ^ seg.raw as u64;
            }
        }
        let live = d.len();
        (
            t,
            s.replaced_after_failure,
            s.gc_copied_segments,
            live,
            fold,
        )
    }

    /// 1 KiB-value overwrites concentrated on a few hot keys, on flash
    /// failing one program in 300: a page whose program fails holds
    /// stale duplicate refs to the same `(key, segment)` beside live ones.
    fn failure_workload_digest(seed: u64) -> FailureDigest {
        let n = 4_000;
        let hot = |rng: &mut DeterministicRng| match rng.below(2) {
            0 => rng.below(12),
            _ => rng.below(n),
        };
        let value = |_: &mut DeterministicRng, i, op: Option<u64>| {
            Payload::synthetic(1024, op.map_or(i, |op| i ^ op))
        };
        failure_campaign(seed, 300, (n, 4 * n), hot, value)
    }

    /// `failure_workload_digest` per seed, computed on the code as it
    /// stood before refs named a key by its 64-bit hash alone, and never
    /// re-pinned since.
    const FAILURE_REFERENCE_HISTORY: [(u64, FailureDigest); 3] = [
        (
            3,
            (
                SimTime::from_nanos(3_053_744_670),
                57,
                3_045,
                3_535,
                0xD6E8_6535_D289_8AC8,
            ),
        ),
        (
            1931,
            (
                SimTime::from_nanos(2_985_896_800),
                73,
                3_025,
                3_554,
                0x091C_FC9B_D05F_4DD3,
            ),
        ),
        (
            0xFA11,
            (
                SimTime::from_nanos(2_976_464_205),
                61,
                2_910,
                3_525,
                0xAB4D_BAA6_DB20_9FCF,
            ),
        ),
    ];

    #[test]
    fn failure_workload_matches_pinned_reference_history() {
        // Program failures re-place exactly the live segments of the
        // failed page, once each, whatever stale refs the page carries.
        for (seed, want) in FAILURE_REFERENCE_HISTORY {
            assert_eq!(
                failure_workload_digest(seed),
                want,
                "failure history diverged at seed {seed}"
            );
        }
    }

    /// Values on both sides of the 25 040 / 50 112 B spill boundaries
    /// (one, two and three segments, and six), beside 1 and 2 KiB ones,
    /// on flash failing one program in 250: split blobs' dedicated pages
    /// are programmed, and fail, next to shared pages.
    fn split_failure_workload_digest(seed: u64) -> FailureDigest {
        const SIZES: [u32; 8] = [1_024, 2_048, 25_040, 25_041, 50_112, 50_113, 131_072, 1_024];
        let n = 200;
        let value = |rng: &mut DeterministicRng, i, op: Option<u64>| {
            let len = SIZES[rng.below(SIZES.len() as u64) as usize];
            Payload::synthetic(len, op.unwrap_or(i))
        };
        failure_campaign(seed, 250, (n, 8 * n), |rng| rng.below(n), value)
    }

    /// `split_failure_workload_digest` per seed, computed on the code as
    /// it stood before dedicated pages and open pages shared one program
    /// routine, and never re-pinned since. Each seed fails 7 to 11
    /// dedicated-page programs and re-places segments of failed shared
    /// pages.
    const SPLIT_FAILURE_REFERENCE_HISTORY: [(u64, FailureDigest); 3] = [
        (
            5,
            (
                SimTime::from_nanos(1_571_492_172),
                6,
                1_058,
                173,
                0x9BE5_87D3_5D33_F3F2,
            ),
        ),
        (
            1931,
            (
                SimTime::from_nanos(1_855_000_699),
                11,
                1_632,
                175,
                0xAC8B_52A2_AD2D_22B9,
            ),
        ),
        (
            0xB10B,
            (
                SimTime::from_nanos(1_904_550_560),
                3,
                1_680,
                168,
                0xC4E0_1B1C_7BD9_62AE,
            ),
        ),
    ];

    #[test]
    fn split_failure_workload_matches_pinned_reference_history() {
        for (seed, want) in SPLIT_FAILURE_REFERENCE_HISTORY {
            assert_eq!(
                split_failure_workload_digest(seed),
                want,
                "split-blob failure history diverged at seed {seed}"
            );
        }
    }
}
