//! Garbage collection: the background copy tax a store pays below the
//! soft watermark, and the foreground reclaim writes stall on at the
//! hard one (the Fig. 6 collapse). Which block to take, and every
//! accounting change that follows, is [`crate::blocks::BlockTable`]'s
//! and the shared [`kvssd_flash::BlockPool`]'s under it.

use kvssd_flash::{foreground_reclaim, BlockId, PageAddr, Picked, Reclaim};
use kvssd_sim::SimTime;

use super::KvSsd;
use crate::error::KvError;

/// How many of the GC victim's upcoming refs have their index slots
/// prefetched ahead of the liveness probe.
const GC_PREFETCH_REFS: usize = 16;

impl KvSsd {
    /// Synchronous GC in free pages: reclaims two blocks' worth past the
    /// hard watermark; two rounds in a row with no net gain (tightly
    /// packed victims) end it. Returns when the reclamation finished.
    pub(super) fn foreground_gc(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        let steps = Reclaim {
            target: self.hard_watermark_pages() + 2 * self.flash.geometry().pages_per_block as u64,
            fruitless_rounds: 2,
            free_space: Self::free_pages,
            pool: |d| (&mut d.blocks.pool, &d.flash),
            pick_victim: Self::pick_victim,
            copy_live: Self::gc_copy_one,
            erase_drained: Self::erase_victim,
        };
        self.in_gc = true;
        // The GC flag must come back down even if the collector trips an
        // internal-invariant error on the way out.
        let reclaimed = foreground_reclaim(self, now, &steps);
        self.in_gc = false;
        let (t, ran) = reclaimed?;
        self.stats.foreground_gc_events += ran as u64;
        Ok(t)
    }

    /// Foreground GC's pick. Zero-copy wins first: erases fully dead
    /// closed blocks (the sweep also drops a victim handle that went
    /// stale), and stops if that cleared `target`.
    fn pick_victim(&mut self, now: SimTime, target: u64) -> Result<Picked, KvError> {
        let (done, erased) = self.blocks.erase_zero_valid(now, &mut self.flash)?;
        self.stats.gc_erases += erased;
        if self.free_pages() > target {
            return Ok((done, None));
        }
        let victim = self.blocks.pool.victim().or_else(|| self.select_victim());
        Ok((done, victim))
    }

    /// Picks a victim (one whose erase gains at least a page's payload,
    /// dead bytes and trapped waste together) and resets the prefetch
    /// window to its refs.
    fn select_victim(&mut self) -> Option<BlockId> {
        let page = self.config.page_payload_bytes as u64;
        let v = self.blocks.pool.select_victim(page, &self.flash)?;
        self.gc_prefetched = self.blocks.refs.len(v);
        Some(v)
    }

    /// Copies one live segment off the current victim. Returns false when
    /// there is no work.
    pub(super) fn gc_copy_one(&mut self, now: SimTime) -> Result<bool, KvError> {
        let Some(v) = self.blocks.pool.victim().or_else(|| self.select_victim()) else {
            return Ok(false);
        };
        // The liveness probes below are cold index misses, and the keys
        // they will probe are known: refs are taken from the back. Start
        // loading the slots of the next `GC_PREFETCH_REFS`, each once.
        let len = self.blocks.refs.len(v);
        let ahead = len.saturating_sub(GC_PREFETCH_REFS);
        let fresh = self.gc_prefetched.min(len).saturating_sub(ahead);
        for r in self.blocks.refs.last(v, len - ahead).take(fresh) {
            self.index.prefetch(r.hash);
        }
        self.gc_prefetched = self.gc_prefetched.min(ahead);
        // Find the next still-live ref in the victim, keeping the key and
        // segment location the liveness probe already fetched.
        let live = loop {
            let Some(r) = self.blocks.refs.pop(v) else {
                break None;
            };
            if let Some((key, seg)) = self.index.find_segment(r.hash, r.seg_no, |s| s.block == v) {
                break Some((r, key, seg));
            }
        };
        let Some((r, key, seg)) = live else {
            if self.blocks.pool.valid(v) > 0 {
                // Refs exhausted but bytes remain: accounting bug.
                return Err(KvError::Internal {
                    what: "GC victim holds valid bytes but no live refs",
                });
            }
            // The die pays: later work there queues behind the erase.
            let _erase_end = self.erase_victim(now)?;
            return Ok(false);
        };
        // The die pays for the read; the re-append starts at `now`.
        let _read_end = self
            .flash
            .read_page(
                now,
                PageAddr {
                    block: seg.block,
                    page: seg.page.into(),
                },
                seg.raw as u64,
            )
            .map_err(|_| KvError::Internal {
                what: "GC read of a live segment rejected",
            })?;
        let was_gc = self.in_gc;
        self.in_gc = true; // route the re-append to the GC stream
        let (alloc, raw) = (seg.alloc.into(), seg.raw.into());
        let appended = self.append_segment_retry(now, key, r.seg_no, alloc, raw, false);
        self.in_gc = was_gc;
        let Some((new_loc, _)) = appended? else {
            // Nowhere to move the data: put the ref back and give up.
            let outside = KvError::Internal {
                what: "GC victim outside the device",
            };
            self.blocks.refs.push(v, r).ok_or(outside)?;
            return Ok(false);
        };
        self.blocks.dec_valid(v, seg.alloc as u64, &self.flash);
        // Only install our copy if the entry still points at the victim:
        // a program-failure handler may have re-placed it while our
        // append was in flight.
        let install = match self.index.get_mut(key.hash, key.fp) {
            Some(entry) => match entry.segs.get_mut(r.seg_no as usize) {
                Some(s) if *s == seg => {
                    *s = new_loc;
                    true
                }
                _ => false,
            },
            None => true,
        };
        if !install {
            // Our freshly placed copy is redundant; uncount it.
            self.blocks
                .dec_valid(new_loc.block, new_loc.alloc as u64, &self.flash);
        }
        self.stats.gc_copied_segments += 1;
        Ok(true)
    }

    /// Erases the held victim, if it is still closed.
    fn erase_victim(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        let done = self.blocks.erase_victim(now, &mut self.flash)?;
        self.stats.gc_erases += done.is_some() as u64;
        Ok(done.unwrap_or(now))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{dev, key};
    use super::*;
    use crate::config::KvConfig;
    use crate::value::Payload;
    use kvssd_flash::{FaultPlan, FlashDevice, FlashTiming, Geometry};

    /// `gc_workload_digest`'s behavior digest: final virtual time, GC
    /// erases, GC-copied segments, foreground-GC events, live pairs and
    /// free blocks.
    type GcDigest = (SimTime, u64, u64, u64, u64, u32);

    /// Drives one device through a randomized GC-heavy workload and
    /// returns a behavior digest: final virtual time plus every piece of
    /// state the victim policy can influence.
    fn gc_workload_digest(seed: u64) -> GcDigest {
        use kvssd_sim::DeterministicRng;
        let mut d = dev();
        let mut rng = DeterministicRng::seed_from(seed);
        let cap = d.space().capacity_bytes;
        let n = (cap * 7 / 10) / (4096 + 64);
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = d.store(t, &key(i), Payload::synthetic(4096, i)).unwrap();
        }
        // Random overwrites, deletes, and re-inserts keep valid counts
        // churning so victim selection runs constantly.
        for _ in 0..n * 3 {
            let i = rng.below(n);
            match rng.below(10) {
                0..=6 => {
                    t = d
                        .store(t, &key(i), Payload::synthetic(4096, i ^ 1))
                        .unwrap();
                }
                7..=8 => {
                    t = d.delete(t, &key(i)).unwrap().0;
                }
                _ => {
                    t = d.retrieve(t, &key(i)).unwrap().at;
                }
            }
        }
        t = d.flush(t).unwrap();
        let s = d.stats();
        assert!(s.gc_erases > 0, "workload must exercise GC");
        (
            t,
            s.gc_erases,
            s.gc_copied_segments,
            s.foreground_gc_events,
            d.len(),
            d.free_blocks(),
        )
    }

    /// `gc_workload_digest` per seed as the O(blocks) reference scan
    /// produces it — computed by running the scan for real, before it
    /// stopped being a runtime mode (PR 15). Re-pinned once since, in the
    /// episode count alone (65 → 2, 104 → 6, 116 → 3), when episodes that
    /// ran no reclaim round stopped counting.
    const GC_REFERENCE_HISTORY: [(u64, GcDigest); 3] = [
        (
            7,
            (SimTime::from_nanos(1_574_470_745), 286, 10_076, 2, 594, 4),
        ),
        (
            1931,
            (SimTime::from_nanos(1_702_085_125), 295, 10_336, 6, 604, 4),
        ),
        (
            0xDEC0DE,
            (SimTime::from_nanos(1_705_425_405), 296, 10_522, 3, 613, 3),
        ),
    ];

    /// `near_full_digest`'s behavior digest: final virtual time, GC
    /// erases, GC-copied segments, failed stores, live pairs, free
    /// blocks and a fold of every store's outcome. It leaves out the
    /// foreground-GC episode count and the stall time: both are
    /// bookkeeping over the same history.
    type NearFullDigest = (SimTime, u64, u64, u64, u64, u32, u64);

    /// Fills `Geometry::small()` to 90 % with 4 KiB values, then
    /// overwrites random keys with values of 1 B to 8 KiB on flash with
    /// `faults`. Victims packed this tightly gain little, so foreground
    /// GC ends after two rounds that free nothing; with failing erases
    /// the pool shrinks until the collector has nowhere to copy a
    /// victim's data and abandons it.
    fn near_full_digest(seed: u64, faults: FaultPlan) -> NearFullDigest {
        use kvssd_sim::rng::mix64;
        use kvssd_sim::DeterministicRng;
        let flash = FlashDevice::with_faults(Geometry::small(), FlashTiming::pm983_like(), faults);
        let mut d = KvSsd::over(flash, KvConfig::small());
        let mut rng = DeterministicRng::seed_from(seed);
        let n = d.space().capacity_bytes * 9 / 10 / (4096 + 64);
        let (mut t, mut failed, mut fold) = (SimTime::ZERO, 0, 0);
        let stores = (0..n)
            .map(|i| (i, 4096))
            .chain((0..1_000).map(|_| (rng.below(n), 1 + rng.below(8192))));
        for (i, len) in stores {
            let outcome = match d.store(t, &key(i), Payload::synthetic(len as u32, i)) {
                Ok(done) => {
                    t = done;
                    done.as_nanos()
                }
                Err(e) => {
                    failed += 1;
                    assert_eq!(e, KvError::DeviceFull);
                    u64::MAX
                }
            };
            fold = mix64(fold ^ outcome);
        }
        let s = d.stats();
        (
            t,
            s.gc_erases,
            s.gc_copied_segments,
            failed,
            d.len(),
            d.free_blocks(),
            fold,
        )
    }

    /// `near_full_digest` per seed and fault plan, computed on the two
    /// firmwares' own foreground-GC loops before they became one, and
    /// never re-pinned since.
    const NEAR_FULL_REFERENCE_HISTORY: [(u64, Option<u64>, NearFullDigest); 3] = [
        (
            1,
            None,
            (
                SimTime::from_nanos(1_924_636_162),
                305,
                11_710,
                203,
                854,
                2,
                0x181B_A321_8F24_F87B,
            ),
        ),
        (
            3,
            None,
            (
                SimTime::from_nanos(1_959_534_097),
                314,
                12_072,
                200,
                857,
                2,
                0x9181_FFBF_F3E9_5483,
            ),
        ),
        (
            1,
            Some(20),
            (
                SimTime::from_nanos(636_082_204),
                130,
                5_204,
                726,
                484,
                0,
                0x3CA9_E8C3_F101_1E41,
            ),
        ),
    ];

    #[test]
    fn near_full_gc_matches_pinned_reference_history() {
        for (seed, erase_fail_one_in, want) in NEAR_FULL_REFERENCE_HISTORY {
            let faults = FaultPlan {
                program_fail_one_in: None,
                erase_fail_one_in,
            };
            assert_eq!(
                near_full_digest(seed, faults),
                want,
                "near-full GC history diverged at seed {seed}, erase faults {erase_fail_one_in:?}"
            );
        }
    }

    /// `partial_page_digest`'s behavior digest: final virtual time, GC
    /// erases, GC-copied segments, segments re-placed after program
    /// failures, live pairs and a fold of every live key's segment
    /// locations.
    type PartialPageDigest = (SimTime, u64, u64, u64, u64, u64);

    /// Overwrites of 200 B to 6 KiB values on 64 blocks, a third of them
    /// arriving after the 1 ms partial-flush timeout, so data pages are
    /// programmed part full and blocks close holding refs to stale,
    /// colliding and live segments in one order (the cluster's regime).
    /// Where each GC copy and each program-failure re-placement lands
    /// follows the order the victim's refs are read in, so the fold of
    /// segment locations pins that order.
    fn partial_page_digest(seed: u64, program_fail_one_in: Option<u64>) -> PartialPageDigest {
        use kvssd_sim::rng::mix64;
        use kvssd_sim::{DeterministicRng, SimDuration};
        let geometry = Geometry {
            blocks_per_plane: 8,
            pages_per_block: 16,
            ..Geometry::small()
        };
        let faults = FaultPlan {
            program_fail_one_in,
            erase_fail_one_in: None,
        };
        let flash = FlashDevice::with_faults(geometry, FlashTiming::pm983_like(), faults);
        let mut d = KvSsd::over(flash, KvConfig::small());
        let mut rng = DeterministicRng::seed_from(seed);
        let n = 2_000u64;
        let mut t = SimTime::ZERO;
        for op in 0..8 * n {
            if rng.below(3) == 0 {
                t += SimDuration::from_millis(2);
            }
            let i = if op < n { op } else { rng.below(n) };
            let len = rng.between(200, 6_144) as u32;
            t = d.store(t, &key(i), Payload::synthetic(len, op)).unwrap();
        }
        t = d.flush(t).unwrap();
        let s = d.stats();
        assert!(s.gc_copied_segments > 0 && s.gc_erases > 0);
        let mut fold = 0u64;
        for i in 0..n {
            for seg in d.segments_of(&key(i)).unwrap_or_default() {
                let at = (seg.block.0 as u64) << 40 | (seg.page as u64) << 20 | seg.offset as u64;
                fold = mix64(fold ^ at) ^ ((seg.alloc as u64) << 32) ^ seg.raw as u64;
            }
        }
        (
            t,
            s.gc_erases,
            s.gc_copied_segments,
            s.replaced_after_failure,
            d.len(),
            fold,
        )
    }

    /// `partial_page_digest` per seed and program-fault rate, pinned on
    /// the reverse map as one `Vec` per block.
    const PARTIAL_PAGE_HISTORY: [(u64, Option<u64>, PartialPageDigest); 3] = [
        (
            5,
            None,
            (
                SimTime::from_nanos(12_017_602_516),
                428,
                11_499,
                0,
                2_000,
                0xF32D_8DCD_A65A_30D4,
            ),
        ),
        (
            0x9A9E,
            None,
            (
                SimTime::from_nanos(12_309_837_261),
                446,
                12_044,
                0,
                2_000,
                0xDB0B_21D9_815D_9BB5,
            ),
        ),
        (
            5,
            Some(1_500),
            (
                SimTime::from_nanos(12_082_092_925),
                445,
                13_204,
                15,
                2_000,
                0xD1D5_FAE8_5DD7_591E,
            ),
        ),
    ];

    #[test]
    fn partial_page_gc_matches_pinned_history() {
        for (seed, fail, want) in PARTIAL_PAGE_HISTORY {
            assert_eq!(
                partial_page_digest(seed, fail),
                want,
                "GC or re-placement order diverged at seed {seed}, program faults {fail:?}"
            );
        }
    }

    #[test]
    fn gc_workload_matches_pinned_reference_history() {
        // The incremental victim queue must reproduce the reference
        // full scan's behavior *exactly* — same victims in the same
        // order means same erase timings, same copy traffic, and
        // therefore an identical virtual-time history. (Debug builds
        // also check every single selection against the scan.)
        for (seed, want) in GC_REFERENCE_HISTORY {
            assert_eq!(
                gc_workload_digest(seed),
                want,
                "GC history diverged from the reference scan's at seed {seed}"
            );
        }
    }
}
