//! The NAND flash device model.
//!
//! [`FlashDevice`] owns the die and channel resource timelines and
//! enforces the physical contract real FTLs live under:
//!
//! * a page must be erased before it is programmed,
//! * pages within a block are programmed strictly in order,
//! * only programmed pages can be read,
//! * dies serve one array operation at a time; transfers serialize on the
//!   die's channel,
//! * programs and erases can fail (per the device's [`FaultPlan`]),
//!   retiring the block.
//!
//! Contract violations are **errors returned to the caller** (they would
//! be firmware bugs); injected faults are expected runtime outcomes and
//! are reported in the `Ok` result so the caller still learns when the
//! operation finished occupying the hardware.

use kvssd_sim::{Resource, SimDuration, SimTime};

use crate::fault::FaultPlan;
use crate::geometry::{BlockId, Geometry, PageAddr};
use crate::timing::FlashTiming;

/// A firmware-level usage error: the caller violated the NAND contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Address outside the device geometry.
    OutOfRange(PageAddr),
    /// Programmed a page out of order within its block.
    OutOfOrderProgram {
        /// The offending address.
        addr: PageAddr,
        /// The page that must be programmed next in that block.
        expected: u32,
    },
    /// Read a page that was never programmed since the last erase.
    ReadingUnwritten(PageAddr),
    /// Operation on a retired (bad) block.
    BadBlock(BlockId),
    /// Transfer length exceeds the page size.
    TransferTooLarge {
        /// Bytes requested.
        requested: u64,
        /// Physical page size.
        page_bytes: u32,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::OutOfRange(a) => write!(f, "page {a} outside geometry"),
            FlashError::OutOfOrderProgram { addr, expected } => {
                write!(
                    f,
                    "out-of-order program of {addr}, expected page {expected}"
                )
            }
            FlashError::ReadingUnwritten(a) => write!(f, "read of unwritten page {a}"),
            FlashError::BadBlock(b) => write!(f, "operation on bad block b{}", b.0),
            FlashError::TransferTooLarge {
                requested,
                page_bytes,
            } => write!(
                f,
                "transfer of {requested} B exceeds page of {page_bytes} B"
            ),
        }
    }
}

impl std::error::Error for FlashError {}

/// Outcome of a program operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramResult {
    /// When the die finished the program.
    pub done: SimTime,
    /// True when the program failed and the block was retired; the
    /// firmware must re-place the data elsewhere.
    pub failed: bool,
}

/// Outcome of an erase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraseResult {
    /// When the die finished the erase.
    pub done: SimTime,
    /// True when the erase failed and the block was retired.
    pub failed: bool,
}

kvssd_sim::counters! {
    /// Operation and byte counters, plus failure tallies.
    #[derive(Debug, Clone, Default)]
    pub struct FlashStats {
        /// Page reads issued.
        pub reads: u64,
        /// Page programs issued (including failed ones).
        pub programs: u64,
        /// Block erases issued (including failed ones).
        pub erases: u64,
        /// Bytes transferred out on reads.
        pub bytes_read: u64,
        /// Bytes transferred in on programs.
        pub bytes_written: u64,
        /// Injected program failures.
        pub program_failures: u64,
        /// Injected erase failures.
        pub erase_failures: u64,
    }
}

#[derive(Debug, Clone, Default)]
struct BlockState {
    next_page: u32,
    erase_count: u32,
    bad: bool,
}

/// The simulated NAND array (see module docs).
#[derive(Debug)]
pub struct FlashDevice {
    geometry: Geometry,
    timing: FlashTiming,
    fault: FaultPlan,
    dies: Vec<Resource>,
    channels: Vec<Resource>,
    blocks: Vec<BlockState>,
    stats: FlashStats,
}

impl FlashDevice {
    /// Creates a device with all blocks erased and no fault injection.
    pub fn new(geometry: Geometry, timing: FlashTiming) -> Self {
        Self::with_faults(geometry, timing, FaultPlan::none())
    }

    /// Creates a device with the given fault-injection plan.
    ///
    /// # Panics
    ///
    /// Panics, before allocating anything, if the geometry's die count
    /// or block count does not fit a `u32` (counted in `u64`, since
    /// [`Geometry::dies`] and [`Geometry::total_blocks`] would wrap).
    pub fn with_faults(geometry: Geometry, timing: FlashTiming, fault: FaultPlan) -> Self {
        let g = &geometry;
        let dies = u64::from(g.channels) * u64::from(g.dies_per_channel);
        let blocks = [g.planes_per_die, g.blocks_per_plane]
            .into_iter()
            .try_fold(dies, |n, f| n.checked_mul(u64::from(f)));
        let fits = |n: u64| n <= u64::from(u32::MAX);
        assert!(
            fits(dies) && blocks.is_some_and(fits),
            "flash geometry {g:?}: the die count and the block count must fit a u32"
        );
        FlashDevice {
            dies: vec![Resource::new(); geometry.dies() as usize],
            channels: vec![Resource::new(); geometry.channels as usize],
            blocks: vec![BlockState::default(); geometry.total_blocks() as usize],
            geometry,
            timing,
            fault,
            stats: FlashStats::default(),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The device timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Next page to be programmed in `block` (== pages written since the
    /// last erase).
    pub fn written_pages(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].next_page
    }

    /// Erase cycles `block` has seen.
    pub fn erase_count(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].erase_count
    }

    /// Marks a block fully programmed without consuming simulated time.
    ///
    /// Simulation-setup helper for content that exists at mount time
    /// (e.g. the KV firmware's flash-resident index region); never use it
    /// on a block an FTL is actively filling.
    pub fn preprogram_block(&mut self, block: BlockId) {
        let st = &mut self.blocks[block.0 as usize];
        assert!(!st.bad, "cannot preprogram a bad block");
        st.next_page = self.geometry.pages_per_block;
    }

    /// Reads `bytes` from a programmed page starting at time `now`.
    ///
    /// The die is busy for command overhead + tR; the data then streams
    /// over the die's channel (transfer + ECC decode). Returns the
    /// completion time.
    pub fn read_page(
        &mut self,
        now: SimTime,
        addr: PageAddr,
        bytes: u64,
    ) -> Result<SimTime, FlashError> {
        self.check_addr(addr)?;
        self.check_transfer(bytes)?;
        // Note: reads from *bad* (retired) blocks are allowed — a grown
        // bad block only loses its ability to be programmed/erased; pages
        // programmed before retirement remain readable, which is what
        // lets firmware migrate surviving data off it.
        let st = &self.blocks[addr.block.0 as usize];
        if addr.page >= st.next_page {
            return Err(FlashError::ReadingUnwritten(addr));
        }
        let die = self.geometry.die_of(addr.block) as usize;
        let ch = self.geometry.channel_of(addr.block) as usize;
        let array = self.dies[die].acquire(now, self.timing.t_cmd_overhead + self.timing.t_read);
        let xfer =
            self.channels[ch].acquire_after(now, array.end, self.timing.read_pipeline_time(bytes));
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
        Ok(xfer.end)
    }

    /// Programs the next page of a block with `bytes` of payload.
    ///
    /// Data first streams over the channel (transfer + ECC encode), then
    /// the die is busy for tPROG. A failed program retires the block.
    pub fn program_page(
        &mut self,
        now: SimTime,
        addr: PageAddr,
        bytes: u64,
    ) -> Result<ProgramResult, FlashError> {
        let mut programmed = ProgramResult::default();
        self.program(now, &[addr], bytes, |r| programmed = r)?;
        Ok(programmed)
    }

    /// Programs one page on each of several blocks that live on *distinct
    /// planes of the same die*, paying a single tPROG (multi-plane
    /// programming). The block FTL uses this for stripe-aligned
    /// sequential writes — one of the firmware advantages sequential
    /// workloads enjoy on block-SSDs.
    ///
    /// Appends one [`ProgramResult`] per address, in order, to `results`
    /// (a buffer the caller keeps, so a program allocates nothing); on
    /// an error it appends none.
    pub fn program_multiplane(
        &mut self,
        now: SimTime,
        addrs: &[PageAddr],
        bytes_each: u64,
        results: &mut Vec<ProgramResult>,
    ) -> Result<(), FlashError> {
        self.program(now, addrs, bytes_each, |r| results.push(r))
    }

    /// [`FlashDevice::program_multiplane`], handing each address's result
    /// to `each`, in order, once every check passed.
    fn program(
        &mut self,
        now: SimTime,
        addrs: &[PageAddr],
        bytes_each: u64,
        mut each: impl FnMut(ProgramResult),
    ) -> Result<(), FlashError> {
        assert!(!addrs.is_empty(), "multiplane program of zero pages");
        let die0 = self.geometry.die_of(addrs[0].block);
        // One bit per plane of the die.
        let mut planes = 0u64;
        for &a in addrs {
            self.check_addr(a)?;
            assert_eq!(
                self.geometry.die_of(a.block),
                die0,
                "multiplane pages must share a die"
            );
            let plane = self.geometry.plane_of(a.block);
            assert!(
                plane < u64::BITS,
                "multiplane programs span at most 64 planes"
            );
            assert!(
                planes & 1 << plane == 0,
                "multiplane pages must be on distinct planes"
            );
            planes |= 1 << plane;
            let st = &self.blocks[a.block.0 as usize];
            if st.bad {
                return Err(FlashError::BadBlock(a.block));
            }
            if a.page != st.next_page {
                return Err(FlashError::OutOfOrderProgram {
                    addr: a,
                    expected: st.next_page,
                });
            }
        }
        self.check_transfer(bytes_each)?;
        let ch = self.geometry.channel_of(addrs[0].block) as usize;
        let total = bytes_each * addrs.len() as u64;
        let xfer = self.channels[ch].acquire(now, self.timing.write_pipeline_time(total));
        let prog = self.dies[die0 as usize].acquire_after(
            now,
            xfer.end,
            self.timing.t_cmd_overhead + self.timing.t_program,
        );
        self.stats.programs += addrs.len() as u64;
        self.stats.bytes_written += total;
        for &a in addrs {
            let erase_count = self.blocks[a.block.0 as usize].erase_count;
            let failed = self.fault.program_fails(a.block, a.page, erase_count);
            let st = &mut self.blocks[a.block.0 as usize];
            st.next_page += 1;
            if failed {
                st.bad = true;
                self.stats.program_failures += 1;
            }
            each(ProgramResult {
                done: prog.end,
                failed,
            });
        }
        Ok(())
    }

    /// Erases a block, making all its pages programmable again. A failed
    /// erase retires the block.
    pub fn erase_block(&mut self, now: SimTime, block: BlockId) -> Result<EraseResult, FlashError> {
        if block.0 >= self.geometry.total_blocks() {
            return Err(FlashError::OutOfRange(PageAddr { block, page: 0 }));
        }
        if self.blocks[block.0 as usize].bad {
            return Err(FlashError::BadBlock(block));
        }
        let die = self.geometry.die_of(block) as usize;
        let w = self.dies[die].acquire(now, self.timing.t_cmd_overhead + self.timing.t_erase);
        self.stats.erases += 1;
        let st = &mut self.blocks[block.0 as usize];
        st.erase_count += 1;
        let failed = self.fault.erase_fails(block, st.erase_count);
        st.next_page = 0;
        if failed {
            st.bad = true;
            self.stats.erase_failures += 1;
        }
        Ok(EraseResult {
            done: w.end,
            failed,
        })
    }

    /// Wear summary across all blocks: (min, mean, max) erase counts.
    ///
    /// The KV firmware's hash-scattered placement spreads erases fairly
    /// evenly; a skewed summary under a hot workload is the signal a
    /// wear-leveler would act on.
    pub fn wear_summary(&self) -> (u32, f64, u32) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        for b in &self.blocks {
            min = min.min(b.erase_count);
            max = max.max(b.erase_count);
            sum += b.erase_count as u64;
        }
        (min, sum as f64 / self.blocks.len() as f64, max)
    }

    /// Total die busy time (array operations) so far.
    pub fn die_busy_total(&self) -> SimDuration {
        self.dies.iter().map(Resource::busy_total).sum()
    }

    fn check_addr(&self, addr: PageAddr) -> Result<(), FlashError> {
        if self.geometry.contains(addr) {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(addr))
        }
    }

    fn check_transfer(&self, bytes: u64) -> Result<(), FlashError> {
        if bytes <= self.geometry.page_bytes as u64 {
            Ok(())
        } else {
            Err(FlashError::TransferTooLarge {
                requested: bytes,
                page_bytes: self.geometry.page_bytes,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(Geometry::small(), FlashTiming::pm983_like())
    }

    fn p(dev: &FlashDevice, die: u32, plane: u32, idx: u32, page: u32) -> PageAddr {
        PageAddr {
            block: dev.geometry().block_at(die, plane, idx),
            page,
        }
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let r = d.program_page(SimTime::ZERO, a, 32 * 1024).unwrap();
        assert!(!r.failed);
        let done = d.read_page(r.done, a, 4096).unwrap();
        assert!(done > r.done);
        assert_eq!(d.stats().programs, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn reading_unwritten_page_is_an_error() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        assert_eq!(
            d.read_page(SimTime::ZERO, a, 100),
            Err(FlashError::ReadingUnwritten(a))
        );
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 1);
        match d.program_page(SimTime::ZERO, a, 100) {
            Err(FlashError::OutOfOrderProgram { expected: 0, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn double_program_rejected_until_erase() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        d.program_page(SimTime::ZERO, a, 100).unwrap();
        assert!(matches!(
            d.program_page(SimTime::ZERO, a, 100),
            Err(FlashError::OutOfOrderProgram { .. })
        ));
        let e = d.erase_block(SimTime::ZERO, a.block).unwrap();
        assert!(!e.failed);
        d.program_page(e.done, a, 100).unwrap();
        assert_eq!(d.erase_count(a.block), 1);
    }

    #[test]
    fn erase_invalidates_reads() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let r = d.program_page(SimTime::ZERO, a, 100).unwrap();
        d.erase_block(r.done, a.block).unwrap();
        assert!(matches!(
            d.read_page(r.done, a, 100),
            Err(FlashError::ReadingUnwritten(_))
        ));
    }

    #[test]
    fn same_die_ops_serialize_different_dies_overlap() {
        let mut d = dev();
        let a0 = p(&d, 0, 0, 0, 0);
        let a1 = p(&d, 0, 0, 1, 0); // same die, different block
        let b0 = p(&d, 1, 0, 0, 0); // different die, same channel
        let ra0 = d.program_page(SimTime::ZERO, a0, 1024).unwrap();
        let ra1 = d.program_page(SimTime::ZERO, a1, 1024).unwrap();
        assert!(ra1.done > ra0.done, "same die must serialize");
        let mut d2 = dev();
        let rb0 = d2.program_page(SimTime::ZERO, b0, 1024).unwrap();
        // Fresh device: die 1 op does not wait for die 0 history.
        assert!(rb0.done <= ra0.done);
    }

    #[test]
    fn channel_contention_slows_reads_on_sibling_dies() {
        // Two dies on one channel, large transfers: second read's
        // completion is pushed by the shared channel.
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let b = p(&d, 1, 0, 0, 0);
        let wa = d.program_page(SimTime::ZERO, a, 32 * 1024).unwrap();
        let wb = d.program_page(SimTime::ZERO, b, 32 * 1024).unwrap();
        let t0 = wa.done.max(wb.done);
        let ra = d.read_page(t0, a, 32 * 1024).unwrap();
        let rb = d.read_page(t0, b, 32 * 1024).unwrap();
        let solo = d.timing().t_cmd_overhead
            + d.timing().t_read
            + d.timing().read_pipeline_time(32 * 1024);
        assert_eq!(ra.since(t0), solo);
        assert!(rb.since(t0) > solo, "second transfer queues on channel");
    }

    #[test]
    fn multiplane_program_shares_one_tprog() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let b = p(&d, 0, 1, 0, 0);
        let mut rs = vec![ProgramResult {
            done: SimTime::ZERO,
            failed: true,
        }];
        d.program_multiplane(SimTime::ZERO, &[a, b], 32 * 1024, &mut rs)
            .unwrap();
        // Appended after what the buffer held.
        assert_eq!(rs.len(), 3);
        rs.remove(0);
        assert_eq!(rs[0].done, rs[1].done);
        // Compare against two sequential single-plane programs.
        let mut d2 = dev();
        let r1 = d2.program_page(SimTime::ZERO, a, 32 * 1024).unwrap();
        let r2 = d2.program_page(SimTime::ZERO, b, 32 * 1024).unwrap();
        let _ = r1;
        assert!(
            rs[0].done < r2.done,
            "multiplane must beat two serial programs"
        );
        assert_eq!(d.written_pages(a.block), 1);
        assert_eq!(d.written_pages(b.block), 1);
    }

    #[test]
    #[should_panic(expected = "distinct planes")]
    fn multiplane_same_plane_panics() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let b = p(&d, 0, 0, 1, 0);
        let _ = d.program_multiplane(SimTime::ZERO, &[a, b], 1024, &mut Vec::new());
    }

    #[test]
    fn injected_program_failure_retires_block() {
        let fault = FaultPlan {
            program_fail_one_in: Some(1), // every program fails
            erase_fail_one_in: None,
        };
        let mut d = FlashDevice::with_faults(Geometry::small(), FlashTiming::pm983_like(), fault);
        let a = p(&d, 0, 0, 0, 0);
        let r = d.program_page(SimTime::ZERO, a, 1024).unwrap();
        assert!(r.failed);
        assert_eq!(
            d.program_page(r.done, PageAddr { page: 1, ..a }, 1024),
            Err(FlashError::BadBlock(a.block))
        );
        assert_eq!(d.stats().program_failures, 1);
    }

    #[test]
    fn transfer_larger_than_page_rejected() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        assert!(matches!(
            d.program_page(SimTime::ZERO, a, 33 * 1024),
            Err(FlashError::TransferTooLarge { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let bad = PageAddr {
            block: BlockId(d.geometry().total_blocks()),
            page: 0,
        };
        assert!(matches!(
            d.read_page(SimTime::ZERO, bad, 1),
            Err(FlashError::OutOfRange(_))
        ));
        assert!(matches!(
            d.erase_block(SimTime::ZERO, bad.block),
            Err(FlashError::OutOfRange(_))
        ));
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        let r = d.program_page(SimTime::ZERO, a, 10_000).unwrap();
        let _done = d.read_page(r.done, a, 5_000).unwrap();
        assert_eq!(d.stats().bytes_written, 10_000);
        assert_eq!(d.stats().bytes_read, 5_000);
    }

    #[test]
    #[should_panic(expected = "must fit a u32")]
    fn block_count_past_u32_rejected() {
        // 2^32 dies: `Geometry::total_blocks` would wrap (to 0 blocks in
        // a release build) and size the device by the wrapped count.
        let g = Geometry {
            channels: 1 << 16,
            dies_per_channel: 1 << 16,
            ..Geometry::small()
        };
        let _ = FlashDevice::new(g, FlashTiming::pm983_like());
    }

    #[test]
    fn wear_summary_tracks_erases() {
        let mut d = dev();
        let a = p(&d, 0, 0, 0, 0);
        assert_eq!(d.wear_summary(), (0, 0.0, 0));
        d.erase_block(SimTime::ZERO, a.block).unwrap();
        d.erase_block(SimTime::ZERO, a.block).unwrap();
        let (min, mean, max) = d.wear_summary();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!(mean > 0.0 && mean < 1.0);
    }
}
