//! Garbage collection: the background copy tax a store pays below the
//! soft watermark, and the foreground reclaim writes stall on at the
//! hard one (the Fig. 6 collapse). Which block to take, and every
//! accounting change that follows, is [`crate::blocks::BlockTable`]'s
//! and the shared [`kvssd_flash::BlockPool`]'s under it.

use kvssd_flash::{BlockId, PageAddr};
use kvssd_sim::SimTime;

use super::KvSsd;
use crate::error::KvError;

/// How many of the GC victim's upcoming refs have their index slots
/// prefetched ahead of the liveness probe.
const GC_PREFETCH_REFS: usize = 16;

impl KvSsd {
    /// Synchronous GC: reclaim until the hard watermark clears, or until
    /// two victim cycles produce no *net* free-page gain (fully valid,
    /// tightly packed victims cannot be compacted — the write will then
    /// consume the remaining free blocks or fail as device-full).
    /// Returns when the reclamation finished; the caller stalls until
    /// then.
    pub(super) fn foreground_gc(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        self.stats.foreground_gc_events += 1;
        self.in_gc = true;
        // The GC flag must come back down even if the collector trips an
        // internal-invariant error on the way out.
        let reclaimed = self.foreground_gc_inner(now);
        self.in_gc = false;
        let t = reclaimed?;
        if t > now {
            self.stats.stall_time += t.since(now);
        }
        Ok(t)
    }

    fn foreground_gc_inner(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        let mut t = now;
        let mut futile = 0u32;
        // Hysteresis: reclaim past the trigger so back-to-back writes do
        // not re-enter foreground GC immediately.
        let target = self.hard_watermark_pages() + 2 * self.flash.geometry().pages_per_block as u64;
        while self.free_pages() <= target && futile < 2 {
            // Zero-copy wins first: erase fully dead closed blocks. The
            // sweep also drops a victim handle that went stale.
            let (done, erased) = self.blocks.erase_zero_valid(t, &mut self.flash)?;
            self.stats.gc_erases += erased;
            t = done;
            if self.free_pages() > target {
                break;
            }
            let Some(v) = self.blocks.pool.victim().or_else(|| self.select_victim()) else {
                break;
            };
            let before = self.free_pages();
            // Drain the victim completely, then erase it.
            let mut guard = 0u32;
            while self.blocks.pool.valid(v) > 0 {
                if !self.gc_copy_one(t)? {
                    break;
                }
                guard += 1;
                if guard > 1_000_000 {
                    return Err(KvError::Internal {
                        what: "GC failed to drain its victim block",
                    });
                }
            }
            if self.blocks.pool.valid(v) > 0 {
                // Copy path exhausted (no space to move data into):
                // abandon this victim so cheaper wins can be retried.
                self.blocks.pool.abandon_victim(&self.flash);
                futile += 1;
                continue;
            }
            t = self.erase_victim(t)?;
            if self.free_pages() > before {
                futile = 0;
            } else {
                futile += 1;
            }
        }
        Ok(t)
    }

    /// Picks a victim (one whose erase gains at least a page's payload,
    /// dead bytes and trapped waste together) and resets the prefetch
    /// window to its refs.
    fn select_victim(&mut self) -> Option<BlockId> {
        let page = self.config.page_payload_bytes as u64;
        let v = self.blocks.pool.select_victim(page, &self.flash)?;
        self.gc_prefetched = self.blocks.refs(v).len();
        Some(v)
    }

    /// Copies one live segment off the current victim. Returns false when
    /// there is no work.
    pub(super) fn gc_copy_one(&mut self, now: SimTime) -> Result<bool, KvError> {
        let Some(v) = self.blocks.pool.victim().or_else(|| self.select_victim()) else {
            return Ok(false);
        };
        const OUTSIDE: KvError = KvError::Internal {
            what: "GC victim outside the device",
        };
        let refs = self.blocks.refs_mut(v).ok_or(OUTSIDE)?;
        // The liveness probes below are cold index misses, and the keys
        // they will probe are known: refs are taken from the back. Start
        // loading the slots of the next `GC_PREFETCH_REFS`, each once.
        let ahead = refs.len().saturating_sub(GC_PREFETCH_REFS);
        let fresh = refs.get(ahead..self.gc_prefetched.min(refs.len()));
        for r in fresh.into_iter().flatten() {
            self.index.prefetch(r.hash);
        }
        self.gc_prefetched = self.gc_prefetched.min(ahead);
        // Find the next still-live ref in the victim, keeping the key and
        // segment location the liveness probe already fetched.
        let live = loop {
            let Some(r) = refs.pop() else {
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
                    page: seg.page,
                },
                seg.raw as u64,
            )
            .map_err(|_| KvError::Internal {
                what: "GC read of a live segment rejected",
            })?;
        let was_gc = self.in_gc;
        self.in_gc = true; // route the re-append to the GC stream
        let appended = self.append_segment_retry(now, key, r.seg_no, seg.alloc, seg.raw, false);
        self.in_gc = was_gc;
        let Some((new_loc, _)) = appended? else {
            // Nowhere to move the data: put the ref back and give up.
            self.blocks.refs_mut(v).ok_or(OUTSIDE)?.push(r);
            return Ok(false);
        };
        self.blocks.dec_valid(v, seg.alloc as u64, &self.flash);
        // Only install our copy if the entry still points at the victim:
        // a program-failure handler may have re-placed it while our
        // append was in flight.
        let install = match self.index.get_mut(key.0, key.1) {
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
    use crate::value::Payload;

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
    /// stopped being a runtime mode (PR 15), and never re-pinned since.
    const GC_REFERENCE_HISTORY: [(u64, GcDigest); 3] = [
        (
            7,
            (SimTime::from_nanos(1_574_470_745), 286, 10_076, 65, 594, 4),
        ),
        (
            1931,
            (SimTime::from_nanos(1_702_085_125), 295, 10_336, 104, 604, 4),
        ),
        (
            0xDEC0DE,
            (SimTime::from_nanos(1_705_425_405), 296, 10_522, 116, 613, 3),
        ),
    ];

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
