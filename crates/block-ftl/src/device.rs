//! The block-SSD device: NVMe link + page-mapped FTL over shared NAND.
//!
//! See the crate docs for the firmware policies modeled here. The
//! implementation keeps *exact* mapping state (via [`MappingTable`]) and
//! validity state (via the shared [`BlockPool`]), while timing falls out
//! of the shared flash, link, and buffer resources.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use kvssd_flash::{
    BlockId, BlockPool, FlashDevice, FlashTiming, Geometry, PageAddr, ProgramResult,
};
use kvssd_nvme::NvmeLink;
use kvssd_sim::{PrehashedMap, SimDuration, SimTime};

use crate::config::BlockFtlConfig;
use crate::mapping::{MappingTable, PhysLoc};

/// Host-visible I/O errors (contract violations by the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockIoError {
    /// Offset or length not sector-aligned.
    Unaligned {
        /// The offending byte offset.
        offset: u64,
        /// The offending byte length.
        len: u64,
    },
    /// Access past the end of the logical address space.
    OutOfRange {
        /// Requested end offset.
        end: u64,
        /// Logical capacity in bytes.
        capacity: u64,
    },
    /// Zero-length I/O.
    ZeroLength,
}

impl std::fmt::Display for BlockIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockIoError::Unaligned { offset, len } => {
                write!(f, "unaligned access at offset {offset}, len {len}")
            }
            BlockIoError::OutOfRange { end, capacity } => {
                write!(f, "access ends at {end} past capacity {capacity}")
            }
            BlockIoError::ZeroLength => write!(f, "zero-length access"),
        }
    }
}

impl std::error::Error for BlockIoError {}

/// Device-level counters.
#[derive(Debug, Clone, Default)]
pub struct BlockSsdStats {
    /// Host write commands.
    pub host_writes: u64,
    /// Host read commands.
    pub host_reads: u64,
    /// Host bytes written.
    pub host_bytes_written: u64,
    /// Host bytes read.
    pub host_bytes_read: u64,
    /// Read-modify-write flash reads caused by sub-cluster writes.
    pub rmw_reads: u64,
    /// Clusters copied by garbage collection.
    pub gc_copied_clusters: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Synchronous (foreground) GC episodes host writes waited on.
    pub foreground_gc_events: u64,
    /// Total virtual time host writes spent stalled on buffer/GC.
    pub stall_time: SimDuration,
    /// Reads satisfied from the device read buffer (page already
    /// fetched by a neighboring cluster read).
    pub read_buffer_hits: u64,
    /// Reads satisfied from the volatile write buffer.
    pub write_buffer_hits: u64,
    /// Multi-plane stripe programs issued for sequential data.
    pub stripe_programs: u64,
    /// Clusters re-placed after an injected program failure.
    pub replaced_after_failure: u64,
}

/// The block(s) of one unit: a sibling-plane pair, one block, or none.
/// Fixed-size, so opening, parking and stealing a unit allocate nothing.
#[derive(Debug, Clone, Copy)]
struct Unit {
    blocks: [BlockId; 2],
    len: usize,
}

impl Unit {
    fn pair(a: BlockId, b: BlockId) -> Self {
        Unit {
            blocks: [a, b],
            len: 2,
        }
    }

    fn one(b: BlockId) -> Self {
        Unit {
            blocks: [b, b],
            len: 1,
        }
    }
}

impl Default for Unit {
    fn default() -> Self {
        Unit {
            blocks: [BlockId(0); 2],
            len: 0,
        }
    }
}

impl std::ops::Deref for Unit {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        self.blocks.get(..self.len).unwrap_or_default()
    }
}

#[derive(Debug, Default)]
struct Stream {
    /// Block(s) of the unit currently being filled. Sequential streams
    /// hold sibling-plane pairs for multi-plane stripes; random/GC
    /// streams hold one block per unit.
    blocks: Unit,
    next_page: u32,
    /// Clusters waiting for the current page(s): (lcn, arrival).
    pending: Vec<(u32, SimTime)>,
    first_arrival: SimTime,
    /// Partially filled units parked for round-robin striping: after
    /// each page programs, the stream moves to the next unit so
    /// consecutive pages land on different dies (the parallelism real
    /// FTL superblocks provide).
    parked: VecDeque<(Unit, u32)>,
}

/// Buffers one page program works in, kept across programs so the
/// command path does not allocate per page.
#[derive(Debug, Default)]
struct ProgramScratch {
    addrs: Vec<PageAddr>,
    results: Vec<ProgramResult>,
}

/// The simulated block-firmware SSD (see crate docs).
#[derive(Debug)]
pub struct BlockSsd {
    config: BlockFtlConfig,
    flash: FlashDevice,
    link: NvmeLink,
    map: MappingTable,
    /// Block states, valid bytes, free queues and the GC victim.
    pool: BlockPool,
    program_scratch: ProgramScratch,
    /// The write streams, indexed by [`WhichStream`].
    streams: [Stream; 3],
    /// Known departure times of buffered clusters.
    buffer_leaves: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Buffered clusters whose page has not been programmed yet.
    buffer_unassigned: u32,
    /// lcn -> time its data leaves the volatile buffer. LCNs are
    /// low-entropy integers; the pre-hashed map's multiply spreads them.
    buffer_resident: PrehashedMap<u32, SimTime>,
    /// Recently fetched physical pages (FIFO read buffer).
    read_buffer: VecDeque<(BlockId, u32)>,
    /// End byte offset of the last host write (sequential detection).
    last_written_end: Option<u64>,
    in_gc: bool,
    pair_cursor: usize,
    logical_clusters: u64,
    stats: BlockSsdStats,
    /// Every victim selection folded in order: the victim (or none), the
    /// instant it was chosen and the gain asked for.
    #[cfg(test)]
    victim_trace: u64,
}

impl BlockSsd {
    /// Creates a device over fresh flash.
    pub fn new(geometry: Geometry, timing: FlashTiming, config: BlockFtlConfig) -> Self {
        Self::over(FlashDevice::new(geometry, timing), config)
    }

    /// Creates a device over an existing flash substrate (e.g. one with a
    /// fault plan installed). GC watermarks are clamped to the geometry
    /// so small test devices do not spend their lives in the GC band.
    pub fn over(flash: FlashDevice, mut config: BlockFtlConfig) -> Self {
        let g = *flash.geometry();
        let blocks = g.total_blocks();
        config.gc_soft_free_blocks = config.gc_soft_free_blocks.min((blocks / 8).max(3));
        config.gc_hard_free_blocks = config
            .gc_hard_free_blocks
            .min((blocks / 16).max(1))
            .min(config.gc_soft_free_blocks - 1);
        let cpp = config.clusters_per_page(g.page_bytes);
        let total_clusters = g.total_blocks() as u64 * g.pages_per_block as u64 * cpp as u64;
        let logical_clusters = total_clusters * (100 - config.overprovision_pct as u64) / 100;
        let map = MappingTable::new(logical_clusters, &g, cpp);
        let cluster = config.cluster_bytes as u64;
        BlockSsd {
            config,
            // Foreground GC asks for a cluster's gain, background GC a
            // page's: the cluster is the floor.
            pool: BlockPool::new(&g, cpp as u64 * cluster, cluster, 0),
            program_scratch: ProgramScratch::default(),
            streams: Default::default(),
            buffer_leaves: BinaryHeap::new(),
            buffer_unassigned: 0,
            buffer_resident: PrehashedMap::default(),
            read_buffer: VecDeque::new(),
            last_written_end: None,
            in_gc: false,
            pair_cursor: 0,
            logical_clusters,
            map,
            flash,
            link: NvmeLink::new(config.nvme),
            stats: BlockSsdStats::default(),
            #[cfg(test)]
            victim_trace: 0,
        }
    }

    /// Logical capacity in bytes (physical minus over-provisioning).
    pub fn capacity_bytes(&self) -> u64 {
        self.logical_clusters * self.config.cluster_bytes as u64
    }

    /// Device counters.
    pub fn stats(&self) -> &BlockSsdStats {
        &self.stats
    }

    /// The underlying flash (for die-utilization reporting).
    pub fn flash(&self) -> &FlashDevice {
        &self.flash
    }

    /// The FTL configuration.
    pub fn config(&self) -> &BlockFtlConfig {
        &self.config
    }

    /// Free (erased) blocks currently available.
    pub fn free_blocks(&self) -> u32 {
        self.pool.free_blocks()
    }

    /// Reads `len` bytes at byte offset `offset`. Returns completion time.
    pub fn read(&mut self, now: SimTime, offset: u64, len: u64) -> Result<SimTime, BlockIoError> {
        self.check_range(offset, len)?;
        let t = self.link.submit(now, 1, 0);
        let t = t + self.config.per_cmd_firmware;
        let mut finish = t;
        for (lcn, _, _) in self.clusters_of(offset, len) {
            let done = self.read_cluster(t, lcn);
            finish = finish.max(done);
        }
        self.stats.host_reads += 1;
        self.stats.host_bytes_read += len;
        Ok(self.link.complete(finish, len))
    }

    /// Writes `len` bytes at byte offset `offset`. Returns completion time
    /// (data durable in the device's protected write buffer, as on real
    /// enterprise SSDs with power-loss capacitors).
    pub fn write(&mut self, now: SimTime, offset: u64, len: u64) -> Result<SimTime, BlockIoError> {
        self.check_range(offset, len)?;
        let t = self.link.submit(now, 1, len);
        let mut t = t + self.config.per_cmd_firmware;
        // Timer-driven flush: stale partial pages from *any* stream are
        // programmed out (a real FTL's flush timer; here piggybacked on
        // host activity so an idle stream cannot hold a unit hostage).
        self.flush_stale(now);
        // Full-page-sized writes need no coalescing: the FTL programs
        // them directly at full stripe parallelism even at random
        // offsets. Smaller random writes pay the reorganization path.
        let sequential =
            self.is_sequential(offset) || len >= self.flash.geometry().page_bytes as u64;
        let mut clusters = 0usize;
        for (lcn, _, bytes) in self.clusters_of(offset, len) {
            t = self.write_cluster(t, lcn, bytes, sequential);
            clusters += 1;
        }
        self.last_written_end = Some(offset + len);
        // Background GC band: a few copies off the victim per step, on
        // die time but without extending host latency. Large writes
        // consume many clusters at once, so the background effort scales
        // with the write size.
        if self.free_blocks() < self.config.gc_soft_free_blocks {
            let cpp = self
                .config
                .clusters_per_page(self.flash.geometry().page_bytes);
            for _ in 0..(1 + clusters / cpp as usize) {
                for _ in 0..self.config.gc_copies_per_write {
                    if !self.gc_copy_one(t, cpp) {
                        break;
                    }
                }
            }
        }
        self.stats.host_writes += 1;
        self.stats.host_bytes_written += len;
        Ok(self.link.complete(t, 0))
    }

    /// Deallocates (TRIMs) the given range; cluster-aligned sub-ranges are
    /// unmapped. Returns completion time.
    pub fn trim(&mut self, now: SimTime, offset: u64, len: u64) -> Result<SimTime, BlockIoError> {
        self.check_range(offset, len)?;
        let t = self.link.submit(now, 1, 0);
        let mut ops = 0u64;
        for (lcn, off_in, bytes) in self.clusters_of(offset, len) {
            if off_in == 0 && bytes == self.config.cluster_bytes as u64 {
                self.unmap(lcn);
                ops += 1;
            }
        }
        let t = t + self.config.map_op * ops.max(1);
        Ok(self.link.complete(t, 0))
    }

    /// Forces all partially filled buffer pages to flash (end-of-phase
    /// barrier for experiments). Returns when the last program completes.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        let mut end = now;
        for which in WhichStream::ALL {
            if let Some(done) = self.program_stream(now, which) {
                end = end.max(done);
            }
        }
        end
    }

    /// Bytes of valid data currently mapped (for space accounting).
    pub fn valid_bytes(&self) -> u64 {
        self.pool.valid_bytes()
    }

    // ----- internals -------------------------------------------------

    /// Unmaps `lcn`; the block it lived in loses a cluster of valid data.
    fn unmap(&mut self, lcn: u32) {
        let cluster = self.config.cluster_bytes as u64;
        if let Some(old) = self.map.invalidate(lcn) {
            self.pool.dec_valid(old.block, cluster, &self.flash);
        }
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), BlockIoError> {
        if len == 0 {
            return Err(BlockIoError::ZeroLength);
        }
        let s = self.config.sector_bytes as u64;
        if !offset.is_multiple_of(s) || !len.is_multiple_of(s) {
            return Err(BlockIoError::Unaligned { offset, len });
        }
        let cap = self.capacity_bytes();
        if offset + len > cap {
            return Err(BlockIoError::OutOfRange {
                end: offset + len,
                capacity: cap,
            });
        }
        Ok(())
    }

    /// Yields (lcn, offset-within-cluster, bytes) for a byte range.
    fn clusters_of(&self, offset: u64, len: u64) -> impl Iterator<Item = (u32, u64, u64)> {
        let cb = self.config.cluster_bytes as u64;
        let first = offset / cb;
        let last = (offset + len - 1) / cb;
        (first..=last).map(move |c| {
            let start = (offset).max(c * cb);
            let end = (offset + len).min((c + 1) * cb);
            (c as u32, start - c * cb, end - start)
        })
    }

    fn is_sequential(&self, offset: u64) -> bool {
        let cb = self.config.cluster_bytes as u64;
        // Sequential = byte-contiguous (or nearly so) with the previous
        // write. Random writes of any size go through the reorganizing
        // random stream — the "block-SSD FTL ... hold[s] data in buffer
        // much longer" behavior the paper infers (Sec. IV).
        match self.last_written_end {
            Some(end) => offset >= end && offset - end < cb,
            None => offset == 0,
        }
    }

    fn read_cluster(&mut self, t: SimTime, lcn: u32) -> SimTime {
        let t = t + self.config.map_op;
        self.drain_buffer(t);
        // Volatile write-buffer hit: data not yet drained to flash.
        if self.buffer_resident.contains_key(&lcn) {
            self.stats.write_buffer_hits += 1;
            return t + SimDuration::from_micros(1);
        }
        let Some(loc) = self.map.lookup(lcn) else {
            // Unmapped: return zeros straight from the controller.
            return t;
        };
        // Mechanical buffer check: a cluster mapped to a page that has
        // not reached flash yet is still in the volatile buffer (the
        // residency map can be clobbered by a stale overwrite's leave).
        if self.flash.written_pages(loc.block) <= loc.page {
            self.stats.write_buffer_hits += 1;
            return t + SimDuration::from_micros(1);
        }
        let page = (loc.block, loc.page);
        if self.read_buffer.contains(&page) {
            self.stats.read_buffer_hits += 1;
            return t + SimDuration::from_micros(1);
        }
        let addr = PageAddr {
            block: loc.block,
            page: loc.page,
        };
        let done = self
            .flash
            .read_page(t, addr, self.config.cluster_bytes as u64)
            .expect("FTL mapped cluster must be readable");
        self.read_buffer.push_back(page);
        if self.read_buffer.len() > self.config.read_buffer_pages as usize {
            self.read_buffer.pop_front();
        }
        done
    }

    fn write_cluster(&mut self, t: SimTime, lcn: u32, bytes: u64, sequential: bool) -> SimTime {
        let mut t = t + self.config.map_op;
        // Sub-cluster writes of mapped data pay a read-modify-write.
        if bytes < self.config.cluster_bytes as u64 && self.map.lookup(lcn).is_some() {
            let in_buffer = self.buffer_resident.contains_key(&lcn);
            if !in_buffer {
                self.stats.rmw_reads += 1;
                t = self.read_cluster(t, lcn);
            }
        }
        // Buffer admission: wait for a slot when the buffer is full.
        self.drain_buffer(t);
        let capacity = self.config.write_buffer_clusters;
        if self.occupancy() >= capacity {
            let stall_until = match self.buffer_leaves.pop() {
                Some(Reverse((leave, gone))) => {
                    self.buffer_resident.remove(&gone);
                    leave
                }
                None => {
                    // Entire buffer is pending pages: force a flush.
                    self.program_stream(t, WhichStream::Rand)
                        .or_else(|| self.program_stream(t, WhichStream::Seq))
                        .unwrap_or(t)
                }
            };
            if stall_until > t {
                self.stats.stall_time += stall_until.since(t);
                t = stall_until;
            }
        }
        // Admit into the chosen stream and assign its physical slot now.
        let which = if sequential {
            WhichStream::Seq
        } else {
            WhichStream::Rand
        };
        self.admit(t, lcn, which);
        // DRAM copy of the cluster into the buffer.
        t + SimDuration::from_micros(1)
    }

    fn occupancy(&self) -> u32 {
        self.buffer_leaves.len() as u32 + self.buffer_unassigned
    }

    fn drain_buffer(&mut self, now: SimTime) {
        while let Some(&Reverse((leave, lcn))) = self.buffer_leaves.peek() {
            if leave <= now {
                self.buffer_leaves.pop();
                if self.buffer_resident.get(&lcn) == Some(&leave) {
                    self.buffer_resident.remove(&lcn);
                }
            } else {
                break;
            }
        }
    }

    fn admit(&mut self, now: SimTime, lcn: u32, which: WhichStream) {
        self.ensure_stream_open(now, which);
        let cpp = self
            .config
            .clusters_per_page(self.flash.geometry().page_bytes) as usize;
        let stream = &mut self.streams[which as usize];
        let target_pending = match which {
            WhichStream::Seq => cpp * stream.blocks.len().max(1),
            WhichStream::Rand | WhichStream::Gc => cpp,
        };
        if stream.pending.is_empty() {
            stream.first_arrival = now;
        }
        // Assign the physical slot immediately so the mapping (and GC
        // validity accounting) is always current.
        let idx = stream.pending.len();
        let block = stream.blocks[idx / cpp];
        let loc = PhysLoc {
            block,
            page: stream.next_page,
            slot: (idx % cpp) as u32,
        };
        stream.pending.push((lcn, now));
        let cluster = self.config.cluster_bytes as u64;
        if let Some(old) = self.map.update(lcn, loc) {
            self.pool.dec_valid(old.block, cluster, &self.flash);
        }
        self.pool.add_valid(block, cluster);
        self.buffer_unassigned += 1;
        self.buffer_resident
            .insert(lcn, SimTime::from_nanos(u64::MAX));
        let full = stream.pending.len() >= target_pending;
        let first = stream.first_arrival;
        let timed_out = now.saturating_since(first) >= self.config.partial_flush_timeout;
        if full || timed_out {
            self.program_stream(now, which);
        }
    }

    /// How many units a stream stripes across. The open set is budgeted
    /// against the over-provisioning margin: partially filled open
    /// blocks are unusable capacity, and a tiny device that pins its
    /// whole OP margin in open stripes cannot absorb overwrite churn.
    fn unit_target(&self, which: WhichStream) -> usize {
        let g = self.flash.geometry();
        let budget_blocks =
            (g.total_blocks() as usize * self.config.overprovision_pct as usize / 100 / 4).max(1);
        match which {
            WhichStream::Seq => (g.dies() as usize).min((budget_blocks / 2).max(1)),
            // Random data is held and reorganized before programming;
            // the effective program parallelism is roughly halved.
            WhichStream::Rand => (g.dies() as usize / 2).max(1).min(budget_blocks),
            WhichStream::Gc => 1,
        }
    }

    /// Opens (allocates or rotates units for) a stream if needed.
    fn ensure_stream_open(&mut self, now: SimTime, which: WhichStream) {
        let g = *self.flash.geometry();
        let s = &self.streams[which as usize];
        if !s.blocks.is_empty() && s.next_page < g.pages_per_block {
            return;
        }
        // Close out a fully written unit.
        if s.next_page >= g.pages_per_block {
            for &b in s.blocks.iter() {
                self.pool.close(b, &self.flash);
            }
        }
        // Grow the striped set up to its target while blocks are
        // plentiful; otherwise rotate to the next parked unit; allocate
        // fresh only when nothing is parked; steal as a last resort.
        let grow = s.parked.len() < self.unit_target(which).saturating_sub(1)
            && self.free_blocks() > self.config.gc_soft_free_blocks;
        let want_pair = which == WhichStream::Seq && g.planes_per_die >= 2;
        let (blocks, next_page) = grow
            .then(|| self.open_fresh_unit(now, want_pair))
            .flatten()
            .or_else(|| self.streams[which as usize].parked.pop_front())
            .or_else(|| self.open_fresh_unit(now, want_pair))
            .unwrap_or_else(|| self.steal_unit(now, which));
        let s = &mut self.streams[which as usize];
        if !s.blocks.is_empty() && s.next_page < g.pages_per_block {
            // Acquiring ran foreground GC, whose copy program failed and
            // re-placed its clusters on this very stream: the nested call
            // opened a unit and assigned them slots in it. Keep that
            // unit, and park the one acquired here.
            s.parked.push_back((blocks, next_page));
            return;
        }
        s.blocks = blocks;
        s.next_page = next_page;
        debug_assert!(s.pending.is_empty());
    }

    /// Opens a fresh unit — a sibling-plane pair when `want_pair` and
    /// one is free, else a single block. Returns it with its next page
    /// (0).
    fn open_fresh_unit(&mut self, now: SimTime, want_pair: bool) -> Option<(Unit, u32)> {
        let unit = match want_pair.then(|| self.alloc_pair(now)).flatten() {
            Some((a, b)) => Unit::pair(a, b),
            None => Unit::one(self.alloc_block(now)?),
        };
        Some((unit, 0))
    }

    /// Last resort when no block is free: steal an open unit from
    /// another stream (after a fresh sequential fill, all the free page
    /// slack sits in the filler's open or parked stripes). The other
    /// streams' partial pages are pushed out first so their units become
    /// reclaimable; parked units go before idle current units (no
    /// pending data).
    fn steal_unit(&mut self, now: SimTime, which: WhichStream) -> (Unit, u32) {
        let mut others = WhichStream::ALL.into_iter().filter(move |&w| w != which);
        for w in others.clone() {
            if !self.streams[w as usize].pending.is_empty() {
                self.program_stream(now, w);
            }
        }
        let ppb = self.flash.geometry().pages_per_block;
        let idle = |s: &Stream| !s.blocks.is_empty() && s.pending.is_empty() && s.next_page < ppb;
        others
            .find_map(|w| self.streams[w as usize].parked.pop_front())
            .or_else(|| {
                let mut s = self.streams.iter_mut().zip(WhichStream::ALL);
                let (s, _) = s.find(|(s, w)| *w != which && idle(s))?;
                Some((
                    std::mem::take(&mut s.blocks),
                    std::mem::take(&mut s.next_page),
                ))
            })
            .unwrap_or_else(|| {
                let units = self
                    .streams
                    .each_ref()
                    .map(|s| (&*s.blocks, s.next_page, s.pending.len(), s.parked.len()));
                panic!(
                    "no block for {which:?} stream: free={}, (unit, next page, pending, \
                     parked) per stream {units:?}",
                    self.free_blocks()
                )
            })
    }

    /// Programs any stream's pending page whose oldest cluster has been
    /// waiting longer than the partial-flush timeout.
    fn flush_stale(&mut self, now: SimTime) {
        for which in WhichStream::ALL {
            let s = &self.streams[which as usize];
            if !s.pending.is_empty()
                && now.saturating_since(s.first_arrival) >= self.config.partial_flush_timeout
            {
                self.program_stream(now, which);
            }
        }
    }

    /// Programs the current page(s) of a stream. Returns the program
    /// completion time, or `None` if there was nothing pending.
    ///
    /// Random pages honor the coalescing hold; sequential and GC pages
    /// program immediately (sequential as multi-plane stripes when the
    /// stream holds a sibling-plane pair).
    fn program_stream(&mut self, now: SimTime, which: WhichStream) -> Option<SimTime> {
        let page_bytes = self.flash.geometry().page_bytes;
        let cpp = self.config.clusters_per_page(page_bytes) as usize;
        let s = &mut self.streams[which as usize];
        let n = s.pending.len();
        if n == 0 {
            return None;
        }
        // Taken, not borrowed: the failure handling below calls
        // `&mut self` methods while it reads these.
        let mut scratch = std::mem::take(&mut self.program_scratch);
        let ProgramScratch { addrs, results } = &mut scratch;
        addrs.clear();
        results.clear();
        let blocks = s.blocks;
        let next_page = s.next_page;
        s.next_page += 1;
        let start = match which {
            WhichStream::Rand => now.max(s.first_arrival + self.config.coalesce_hold),
            WhichStream::Seq | WhichStream::Gc => now,
        };
        let page_bytes = page_bytes as u64;
        if blocks.len() >= 2 && n > cpp {
            // Multi-plane stripe across the pair.
            addrs.extend(blocks.iter().take(n.div_ceil(cpp)).map(|&b| PageAddr {
                block: b,
                page: next_page,
            }));
            self.stats.stripe_programs += 1;
            self.flash
                .program_multiplane(start, addrs, page_bytes, results)
                .expect("stripe program on open pair");
            // Pair blocks advance in lockstep; program any skipped block
            // too so next_page stays aligned.
            for &b in blocks.iter().skip(addrs.len()) {
                let r = self
                    .flash
                    .program_page(
                        start,
                        PageAddr {
                            block: b,
                            page: next_page,
                        },
                        0,
                    )
                    .expect("pad program on open pair");
                results.push(r);
            }
        } else {
            for (i, &b) in blocks.iter().enumerate() {
                let bytes = if i * cpp < n { page_bytes } else { 0 };
                let r = self
                    .flash
                    .program_page(
                        start,
                        PageAddr {
                            block: b,
                            page: next_page,
                        },
                        bytes,
                    )
                    .expect("program on open block");
                results.push(r);
            }
        }
        // `results` is block-aligned, and every program ends after `start`.
        let done = results.iter().fold(start, |t, r| t.max(r.done));
        // Settle buffer accounting and handle injected failures.
        let mut lost: Vec<u32> = Vec::new();
        for (i, &(lcn, _)) in s.pending.iter().enumerate() {
            let (block, failed) = (blocks[i / cpp], results[i / cpp].failed);
            self.buffer_unassigned -= 1;
            if failed {
                // Data still in buffer; it must be re-placed.
                let here = |cur: PhysLoc| cur.block == block && cur.page == next_page;
                if self.map.lookup(lcn).is_some_and(here) {
                    lost.push(lcn);
                }
                continue;
            }
            // Leaves the buffer when the program completes (only if the
            // mapping still points here — it may have been overwritten
            // while pending).
            self.buffer_leaves.push(Reverse((done, lcn)));
            self.buffer_resident.insert(lcn, done);
        }
        s.pending.clear();
        for (r, &b) in results.iter().zip(blocks.iter()) {
            if r.failed {
                self.retire_block(b, &mut lost);
            }
        }
        self.program_scratch = scratch;
        // Rotate: park the unit (or close it when full) so the next page
        // lands on a different die. Before re-placing lost clusters: they
        // may open a fresh unit on this very stream, and parking that one
        // would strand them pending on a stream with no blocks.
        let ppb = self.flash.geometry().pages_per_block;
        let s = &mut self.streams[which as usize];
        if !s.blocks.is_empty() {
            let unit = std::mem::take(&mut s.blocks);
            if s.next_page < ppb {
                s.parked.push_back((unit, std::mem::take(&mut s.next_page)));
            } else {
                s.next_page = 0;
                for &b in unit.iter() {
                    self.pool.close(b, &self.flash);
                }
            }
        }
        if !lost.is_empty() {
            self.stats.replaced_after_failure += lost.len() as u64;
            for lcn in lost {
                self.unmap(lcn);
                self.admit(done, lcn, WhichStream::Rand);
            }
        }
        Some(done)
    }

    /// Retires a block whose program failed. Pulls it out of every
    /// stream so nothing programs it again, and adds the clusters still
    /// pending on a torn-down unit (their slots were assigned but never
    /// programmed; their data is still buffered) to `lost` for the
    /// caller to re-admit.
    fn retire_block(&mut self, b: BlockId, lost: &mut Vec<u32>) {
        self.pool.retire(b);
        let torn_down = lost.len();
        for s in &mut self.streams {
            if s.blocks.contains(&b) {
                // The torn-down unit closes with fewer pages written than
                // were assigned: the pool's gain saturates for it.
                for &u in s.blocks.iter() {
                    self.pool.close(u, &self.flash);
                }
                s.blocks = Unit::default();
                s.next_page = 0;
                self.buffer_unassigned -= s.pending.len() as u32;
                lost.extend(s.pending.drain(..).map(|(lcn, _)| lcn));
            } else {
                // Parked units never hold pending clusters; drop the
                // dead block's unit from the rotation if present.
                s.parked.retain(|(unit, _)| !unit.contains(&b));
            }
        }
        for &lcn in lost.iter().skip(torn_down) {
            self.unmap(lcn);
        }
    }

    /// Pops a free block. Host streams always leave one block in
    /// reserve for the collector — handing GC's working space to a data
    /// stream would deadlock relocation the moment the device fills.
    fn alloc_block(&mut self, now: SimTime) -> Option<BlockId> {
        self.gc_at_hard_watermark(now);
        let reserve = if self.in_gc { 0 } else { 1 };
        if self.free_blocks() <= reserve && !self.in_gc {
            // One more synchronous attempt before giving up; the die
            // pays for it, as in `gc_at_hard_watermark`.
            let _reclaim_end = self.foreground_gc(now);
        }
        if self.free_blocks() <= reserve {
            return None;
        }
        // Round-robin over die-planes for parallelism.
        let (_, b) = self.pool.pop_free_from(self.pair_cursor * 2)?;
        let g = self.flash.geometry();
        self.pair_cursor = (self.pair_cursor + 1) % (g.dies() * g.planes_per_die) as usize;
        Some(b)
    }

    fn alloc_pair(&mut self, now: SimTime) -> Option<(BlockId, BlockId)> {
        self.gc_at_hard_watermark(now);
        let g = *self.flash.geometry();
        let planes = g.planes_per_die as usize;
        let dies = g.dies() as usize;
        let dpc = g.dies_per_channel as usize;
        let chans = g.channels as usize;
        // Round-robin across dies channel-major, so consecutive stripes
        // land on different channels (transfer parallelism) as well as
        // different dies (program parallelism).
        for i in 0..dies {
            let c = self.pair_cursor + i;
            let die = (c % chans) * dpc + (c / chans) % dpc;
            let (p0, p1) = (die * planes, die * planes + 1);
            if !self.pool.has_free(p0) || !self.pool.has_free(p1) {
                continue;
            }
            if let (Some(a), Some(b)) = (self.pool.pop_free_at(p0), self.pool.pop_free_at(p1)) {
                self.pair_cursor = (self.pair_cursor + i + 1) % dies;
                return Some((a, b));
            }
        }
        None
    }

    /// Runs foreground GC, outside GC, once free blocks are down to the
    /// hard watermark. The die pays for the reclaim: the allocated
    /// block's first program queues behind it.
    fn gc_at_hard_watermark(&mut self, now: SimTime) {
        if !self.in_gc && self.free_blocks() <= self.config.gc_hard_free_blocks {
            let _reclaim_end = self.foreground_gc(now);
        }
    }

    /// Synchronous GC until the hard watermark clears, or until two
    /// victim cycles make no progress (nothing reclaimable — e.g. blocks
    /// retired by faults shrank the pool). Returns when the reclaim
    /// finished.
    fn foreground_gc(&mut self, now: SimTime) -> SimTime {
        self.stats.foreground_gc_events += 1;
        self.in_gc = true;
        let mut t = now;
        let mut futile = 0u32;
        // Reclaim with hysteresis so back-to-back writes do not re-enter
        // foreground GC immediately.
        let target = self.config.gc_hard_free_blocks + 2;
        while self.free_blocks() <= target && futile < 3 {
            let before = self.free_blocks();
            let Some(v) = self.pool.victim().or_else(|| self.select_victim(t, 1)) else {
                break;
            };
            let mut guard = 0u32;
            while self.pool.valid(v) > 0 && self.gc_copy_one(t, 1) {
                guard += 1;
                assert!(guard < 1_000_000, "GC failed to drain block b{}", v.0);
            }
            t = self.finish_victim(t);
            if self.free_blocks() > before {
                futile = 0;
            } else {
                futile += 1;
            }
        }
        self.in_gc = false;
        // The host write that triggered us resumes after the reclaim.
        if t > now {
            self.stats.stall_time += t.since(now);
        }
        t
    }

    /// Copies one live cluster off the current victim, first selecting
    /// one that frees at least `min_gain` clusters if none is held:
    /// foreground GC takes any gain, background GC a page's worth.
    /// Returns false when no victim work exists.
    fn gc_copy_one(&mut self, now: SimTime, min_gain: u32) -> bool {
        // Guard against reentrancy: the copy's own block allocation must
        // not trigger a nested foreground-GC episode.
        let was = std::mem::replace(&mut self.in_gc, true);
        let victim = self
            .pool
            .victim()
            .or_else(|| self.select_victim(now, min_gain));
        let live = victim.map(|v| self.map.first_live(v));
        let copied = match live {
            Some(Some((lcn, loc))) => {
                let addr = PageAddr {
                    block: loc.block,
                    page: loc.page,
                };
                let _ = self
                    .flash
                    .read_page(now, addr, self.config.cluster_bytes as u64)
                    .expect("GC read of live cluster");
                self.admit(now, lcn, WhichStream::Gc);
                self.stats.gc_copied_clusters += 1;
                true
            }
            Some(None) => {
                // The die pays: later work there queues behind the erase.
                let _erase_end = self.finish_victim(now);
                false
            }
            None => false,
        };
        self.in_gc = was;
        copied
    }

    /// Erases the drained victim and returns it to the free pool.
    fn finish_victim(&mut self, now: SimTime) -> SimTime {
        let map = &mut self.map;
        let erased = self
            .pool
            .erase_victim(now, &mut self.flash, |v| map.on_erase(v));
        let Some(done) = erased.expect("erase closed victim") else {
            return now;
        };
        self.stats.gc_erases += 1;
        done
    }

    /// Greedy victim selection (see [`BlockPool::select_victim`]): only
    /// a block whose erase would gain at least `min_gain` clusters —
    /// copying fully valid blocks around is pure write amplification.
    fn select_victim(&mut self, _now: SimTime, min_gain: u32) -> Option<BlockId> {
        let gain = min_gain as u64 * self.config.cluster_bytes as u64;
        let picked = self.pool.select_victim(gain, &self.flash);
        #[cfg(test)]
        {
            use kvssd_sim::rng::mix64;
            let id = picked.map_or(u64::MAX, |b| b.0 as u64);
            let fold = [id, _now.as_nanos(), min_gain as u64];
            self.victim_trace = fold
                .into_iter()
                .fold(self.victim_trace, |h, v| mix64(h ^ v));
        }
        picked
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WhichStream {
    Seq,
    Rand,
    Gc,
}

impl WhichStream {
    /// Every stream, in the order `flush`, the stale-page timer, block
    /// retirement and the unit steal walk them (and `streams` holds them).
    const ALL: [WhichStream; 3] = [WhichStream::Seq, WhichStream::Rand, WhichStream::Gc];
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_flash::{BlockState, FaultPlan};

    fn ssd() -> BlockSsd {
        BlockSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            BlockFtlConfig::pm983_like(),
        )
    }

    fn bigger() -> BlockSsd {
        let g = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 16,
            pages_per_block: 16,
            page_bytes: 32 * 1024,
        };
        let mut cfg = BlockFtlConfig::pm983_like();
        cfg.gc_soft_free_blocks = 12;
        cfg.gc_hard_free_blocks = 4;
        BlockSsd::new(g, FlashTiming::pm983_like(), cfg)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = ssd();
        let w = d.write(SimTime::ZERO, 0, 4096).unwrap();
        let r = d.read(w, 0, 4096).unwrap();
        assert!(r > w);
        assert_eq!(d.stats().host_writes, 1);
        assert_eq!(d.stats().host_reads, 1);
    }

    #[test]
    fn writes_complete_in_buffer_quickly() {
        let mut d = ssd();
        let w = d.write(SimTime::ZERO, 0, 4096).unwrap();
        // Buffered completion: far less than a page program (~700 us).
        assert!(
            w.since(SimTime::ZERO) < SimDuration::from_micros(100),
            "buffered write took {}",
            w.since(SimTime::ZERO)
        );
    }

    #[test]
    fn read_of_unwritten_range_returns_fast_zeros() {
        let mut d = ssd();
        let r = d.read(SimTime::ZERO, 1 << 20, 4096).unwrap();
        assert!(r.since(SimTime::ZERO) < SimDuration::from_micros(50));
    }

    #[test]
    fn buffered_data_is_readable_before_programming() {
        let mut d = ssd();
        let w = d.write(SimTime::ZERO, 0, 4096).unwrap();
        let r = d.read(w, 0, 4096).unwrap();
        assert!(r.since(w) < SimDuration::from_micros(50));
        assert!(d.stats().write_buffer_hits >= 1);
    }

    #[test]
    fn unaligned_io_rejected() {
        let mut d = ssd();
        assert!(matches!(
            d.write(SimTime::ZERO, 3, 512),
            Err(BlockIoError::Unaligned { .. })
        ));
        assert!(matches!(
            d.read(SimTime::ZERO, 0, 100),
            Err(BlockIoError::Unaligned { .. })
        ));
        assert!(matches!(
            d.read(SimTime::ZERO, 0, 0),
            Err(BlockIoError::ZeroLength)
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = ssd();
        let cap = d.capacity_bytes();
        assert!(matches!(
            d.write(SimTime::ZERO, cap - 512, 1024),
            Err(BlockIoError::OutOfRange { .. })
        ));
    }

    #[test]
    fn sub_cluster_write_of_mapped_data_pays_rmw() {
        let mut d = ssd();
        // Map the cluster with a full write, flush it to flash, drain
        // the buffer residency by advancing far in time.
        let w = d.write(SimTime::ZERO, 0, 4096).unwrap();
        let f = d.flush(w);
        let far = f + SimDuration::from_secs(1);
        d.drain_buffer(far);
        let before = d.stats().rmw_reads;
        let _done = d.write(far, 0, 512).unwrap();
        assert_eq!(d.stats().rmw_reads, before + 1);
    }

    #[test]
    fn sequential_fill_uses_stripes() {
        let mut d = ssd();
        let mut t = SimTime::ZERO;
        // 64 sequential clusters = several stripes.
        for i in 0..64u64 {
            t = d.write(t, i * 4096, 4096).unwrap();
        }
        let _done = d.flush(t);
        assert!(d.stats().stripe_programs > 0);
    }

    #[test]
    fn sequential_reads_hit_read_buffer() {
        let mut d = bigger();
        let n = 256u64;
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = d.write(t, i * 4096, 4096).unwrap();
        }
        t = d.flush(t) + SimDuration::from_secs(1);
        d.drain_buffer(t);
        d.buffer_resident.clear();
        let hits_at_start = d.stats().read_buffer_hits;
        for i in 0..n {
            t = d.read(t, i * 4096, 4096).unwrap();
        }
        let seq_hits = d.stats().read_buffer_hits - hits_at_start;
        // Eight 4 KiB clusters share a 32 KiB page: ~7/8 of sequential
        // reads should be buffer hits.
        assert!(seq_hits >= n * 3 / 4, "only {seq_hits} read-buffer hits");
        // Scattered reads across many pages mostly miss.
        let hits_mid = d.stats().read_buffer_hits;
        let mut scattered = 0u64;
        let mut idx = 5u64;
        for _ in 0..n / 2 {
            idx = idx.wrapping_mul(6364136223846793005).wrapping_add(7) % n;
            t = d.read(t, idx * 4096, 4096).unwrap();
            scattered += 1;
        }
        let rand_hits = d.stats().read_buffer_hits - hits_mid;
        assert!(
            rand_hits * 2 < scattered,
            "random reads should mostly miss ({rand_hits}/{scattered})"
        );
    }

    #[test]
    fn overwrites_reclaim_space_via_gc() {
        let mut d = bigger();
        let cap = d.capacity_bytes();
        let mut t = SimTime::ZERO;
        // Fill logical space twice over with 4 KiB writes.
        for round in 0..3u64 {
            for off in (0..cap).step_by(4096) {
                t = d.write(t, off, 4096).unwrap();
            }
            let _ = round;
        }
        assert!(d.stats().gc_erases > 0, "GC never ran");
        assert_eq!(d.valid_bytes(), cap);
    }

    #[test]
    fn random_overwrites_trigger_foreground_gc_copies() {
        let mut d = bigger();
        let cap = d.capacity_bytes();
        let clusters = cap / 4096;
        let mut t = SimTime::ZERO;
        // The maintained free-block count must track the queues through
        // allocation and GC alike: `free_blocks` checks it in debug builds.
        for off in (0..cap).step_by(4096) {
            t = d.write(t, off, 4096).unwrap();
            d.free_blocks();
        }
        // Pseudo-random overwrites: stride pattern leaves every block
        // partially valid, forcing copy work.
        let mut idx = 1u64;
        for _ in 0..clusters * 2 {
            idx = idx.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3) % clusters;
            t = d.write(t, idx * 4096, 4096).unwrap();
            d.free_blocks();
        }
        assert!(
            d.stats().gc_copied_clusters > 0,
            "random overwrites must force GC copies"
        );
    }

    #[test]
    fn trim_invalidates_and_makes_gc_cheap() {
        let mut d = bigger();
        let cap = d.capacity_bytes();
        let mut t = SimTime::ZERO;
        for off in (0..cap).step_by(4096) {
            t = d.write(t, off, 4096).unwrap();
        }
        t = d.flush(t);
        let valid_before = d.valid_bytes();
        t = d.trim(t, 0, cap / 2).unwrap();
        assert!(d.valid_bytes() < valid_before);
        // Rewriting the trimmed half should cause few or no GC copies:
        // victims are fully invalid.
        let copies_before = d.stats().gc_copied_clusters;
        for off in (0..cap / 2).step_by(4096) {
            t = d.write(t, off, 4096).unwrap();
        }
        let copies = d.stats().gc_copied_clusters - copies_before;
        assert!(
            copies < (cap / 2 / 4096) / 4,
            "trimmed rewrite caused {copies} copies"
        );
    }

    #[test]
    fn capacity_reflects_overprovisioning() {
        let d = ssd();
        let raw = d.flash().geometry().capacity_bytes();
        assert!(d.capacity_bytes() < raw);
        assert!(d.capacity_bytes() > raw / 2);
    }

    #[test]
    fn flush_programs_partial_pages() {
        let mut d = ssd();
        let w = d.write(SimTime::ZERO, 0, 4096).unwrap();
        let f = d.flush(w);
        assert!(f > w);
        assert!(d.flash().stats().programs > 0);
    }

    #[test]
    fn buffer_pressure_stalls_writes() {
        let mut d = ssd();
        // Slam many random 4 KiB writes at t=0-ish: the write buffer
        // must fill and later writes must stall.
        let mut t = SimTime::ZERO;
        let mut worst = SimDuration::ZERO;
        let cap = d.capacity_bytes();
        let clusters = cap / 4096;
        let mut idx = 7u64;
        for _ in 0..1_500 {
            idx = (idx
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % clusters;
            let done = d.write(t, idx * 4096, 4096).unwrap();
            worst = worst.max(done.since(t));
            t += SimDuration::from_nanos(100); // near-open-loop arrivals
        }
        assert!(
            d.stats().stall_time > SimDuration::ZERO,
            "no stalls recorded"
        );
        assert!(worst > SimDuration::from_micros(300), "worst {worst}");
    }

    #[test]
    fn fault_injection_replaces_lost_clusters() {
        let flash = FlashDevice::with_faults(
            Geometry::small(),
            FlashTiming::pm983_like(),
            FaultPlan {
                program_fail_one_in: Some(10),
                erase_fail_one_in: None,
            },
        );
        let mut d = BlockSsd::over(flash, BlockFtlConfig::pm983_like());
        let mut t = SimTime::ZERO;
        for i in 0..256u64 {
            t = d.write(t, (i % 128) * 4096, 4096).unwrap();
        }
        let _done = d.flush(t);
        // Some programs failed and their clusters were re-placed; all
        // logical data must still be mapped or buffered.
        assert!(d.flash().stats().program_failures > 0);
        assert!(d.stats().replaced_after_failure > 0);
    }

    /// A sequential fill to about 60 % of `Geometry::small()`, then a
    /// seeded mix of 4 KiB random overwrites, 2 KiB sub-cluster writes,
    /// 64 KiB sequential runs, trims, reads, flushes and idle gaps past
    /// the partial-flush timeout. Folds the final time, every device and
    /// flash counter, the free pool, the valid bytes and every LCN's
    /// mapping.
    fn reference_workload_digest(seed: u64, faults: FaultPlan, ops: u32) -> (SimTime, u64) {
        use kvssd_sim::rng::mix64;
        let (d, t) = reference_workload(seed, faults, ops);
        let clusters = d.capacity_bytes() / 4096;
        let (s, f) = (d.stats(), d.flash().stats());
        let counters = [
            s.host_writes,
            s.host_reads,
            s.host_bytes_written,
            s.host_bytes_read,
            s.rmw_reads,
            s.gc_copied_clusters,
            s.gc_erases,
            s.foreground_gc_events,
            s.stall_time.as_nanos(),
            s.read_buffer_hits,
            s.write_buffer_hits,
            s.stripe_programs,
            s.replaced_after_failure,
            f.reads,
            f.programs,
            f.erases,
            f.bytes_read,
            f.bytes_written,
            f.program_failures,
            f.erase_failures,
            d.free_blocks() as u64,
            d.valid_bytes(),
        ];
        let mut fold = counters.into_iter().fold(0, |h, v| mix64(h ^ v));
        for lcn in 0..clusters as u32 {
            let at = d.map.lookup(lcn).map_or(u64::MAX, |l| {
                (l.block.0 as u64) << 40 | (l.page as u64) << 20 | l.slot as u64
            });
            fold = mix64(fold ^ at);
        }
        (t, fold)
    }

    /// The device and final instant `reference_workload_digest` folds.
    fn reference_workload(seed: u64, faults: FaultPlan, ops: u32) -> (BlockSsd, SimTime) {
        use kvssd_sim::DeterministicRng;
        let flash = FlashDevice::with_faults(Geometry::small(), FlashTiming::pm983_like(), faults);
        let mut d = BlockSsd::over(flash, BlockFtlConfig::pm983_like());
        let mut rng = DeterministicRng::seed_from(seed);
        let cb = 4096u64;
        let clusters = d.capacity_bytes() / cb;
        let mut t = SimTime::ZERO;
        for c in (0..clusters * 6 / 10).step_by(16) {
            t = d.write(t, c * cb, 16 * cb).unwrap();
        }
        for _ in 0..ops {
            let c = rng.below(clusters - 16);
            t = match rng.below(16) {
                0..=5 => d.write(t, c * cb, cb).unwrap(),
                6 | 7 => d.write(t, c * cb + 2048 * rng.below(2), 2048).unwrap(),
                8 => (0..4).fold(t, |t, i| d.write(t, (c + 4 * i) * cb, 4 * cb).unwrap()),
                9 => d.trim(t, c * cb, cb * (1 + rng.below(4))).unwrap(),
                10..=12 => d.read(t, c * cb, cb).unwrap(),
                13 => d.read(t, c * cb, 8 * cb).unwrap(),
                14 => d.flush(t),
                _ => t + d.config.partial_flush_timeout * 2,
            };
        }
        (d, t)
    }

    /// The reference history's fault plans: none, one program in 40
    /// failing, one erase in 15 failing. Every failure retires its block
    /// for good, so each plan runs only as many ops as the 32-block
    /// device survives.
    const REFERENCE_PLANS: [(FaultPlan, u32); 3] = [
        (
            FaultPlan {
                program_fail_one_in: None,
                erase_fail_one_in: None,
            },
            3_000,
        ),
        (
            FaultPlan {
                program_fail_one_in: Some(40),
                erase_fail_one_in: None,
            },
            300,
        ),
        (
            FaultPlan {
                program_fail_one_in: None,
                erase_fail_one_in: Some(15),
            },
            600,
        ),
    ];

    /// `reference_workload_digest` per seed, one entry per plan of
    /// `REFERENCE_PLANS`, computed on the code as it stood before the
    /// block FTL's streams were one array, and never re-pinned since.
    /// Between them the runs program multi-plane stripes, fall back to a
    /// single block when no sibling-plane pair is free, stall on
    /// foreground GC, re-place clusters of failed programs, retire
    /// blocks whose erase failed and (seed 8, failing programs) steal a
    /// unit from another stream.
    const BLOCK_FTL_REFERENCE_HISTORY: [(u64, [(SimTime, u64); 3]); 3] = [
        (
            8,
            [
                (SimTime::from_nanos(4_051_240_475), 0xC2B9_EB0F_869D_DC7A),
                (SimTime::from_nanos(271_922_335), 0x886A_8397_CD91_8BFA),
                (SimTime::from_nanos(375_012_515), 0x6799_6818_2EE7_9C2B),
            ],
        ),
        (
            1931,
            [
                (SimTime::from_nanos(4_586_602_850), 0xF7F2_1A1E_25B0_F88B),
                (SimTime::from_nanos(162_972_570), 0x9BAD_11AA_B8C8_F2D2),
                (SimTime::from_nanos(345_781_025), 0xCDC6_E7A0_449F_A059),
            ],
        ),
        (
            0xB10C,
            [
                (SimTime::from_nanos(3_862_108_725), 0x8F85_46A5_BF8F_3038),
                (SimTime::from_nanos(252_624_240), 0x5689_6CDC_D4D2_6F5F),
                (SimTime::from_nanos(367_905_800), 0x1DC3_7D32_0FE3_636D),
            ],
        ),
    ];

    #[test]
    fn block_ftl_workload_matches_pinned_reference_history() {
        for (seed, want) in BLOCK_FTL_REFERENCE_HISTORY {
            for ((faults, ops), want) in REFERENCE_PLANS.into_iter().zip(want) {
                assert_eq!(
                    reference_workload_digest(seed, faults, ops),
                    want,
                    "block-FTL history diverged at seed {seed}, {faults:?}"
                );
            }
        }
    }

    /// The victim trace of `reference_workload` per seed, one entry per
    /// plan of `REFERENCE_PLANS`: every selection's victim, instant and
    /// asked-for gain (clusters), folded in order. Computed on the O(blocks)
    /// selection scan, and never re-pinned since.
    const BLOCK_VICTIM_TRACE: [(u64, [u64; 3]); 3] = [
        (
            8,
            [
                0x1E74_42D9_81F1_1692,
                0x4DA6_7E38_C156_6D85,
                0x38B4_6110_F983_1926,
            ],
        ),
        (
            1931,
            [
                0xEF83_7344_B799_69AC,
                0x5E29_9477_F0D8_2EDF,
                0x6990_9941_D754_613A,
            ],
        ),
        (
            0xB10C,
            [
                0x8B07_D7B3_B7FE_B782,
                0xB7DC_C0F0_604C_145E,
                0x6510_BFF6_525A_9EEA,
            ],
        ),
    ];

    #[test]
    fn block_ftl_victim_selections_match_pinned_trace() {
        for (seed, want) in BLOCK_VICTIM_TRACE {
            for ((faults, ops), want) in REFERENCE_PLANS.into_iter().zip(want) {
                let (d, _) = reference_workload(seed, faults, ops);
                assert_eq!(
                    d.victim_trace, want,
                    "block-FTL victim trace diverged at seed {seed}, {faults:?}: {:#X}",
                    d.victim_trace
                );
            }
        }
    }

    /// A program failure re-placed while a unit is being opened re-enters
    /// `ensure_stream_open` for the same stream (the open's allocation
    /// runs foreground GC, whose copy program fails and re-admits to
    /// `Rand`). These seeds reach it; the outer open must keep the unit
    /// the nested one installed, and park its own.
    #[test]
    fn reentrant_stream_open_keeps_every_unit() {
        let faults = FaultPlan {
            program_fail_one_in: Some(40),
            erase_fail_one_in: None,
        };
        for seed in [3, 11, 14] {
            let (mut d, mut t) = reference_workload(seed, faults, 300);
            // A failed flush program re-admits its clusters, possibly to a
            // stream already flushed: flush until nothing is pending.
            while d.streams.iter().any(|s| !s.pending.is_empty()) {
                t = d.flush(t);
            }
            for lcn in 0..(d.capacity_bytes() / 4096) as u32 {
                if let Some(loc) = d.map.lookup(lcn) {
                    assert!(
                        d.flash.written_pages(loc.block) > loc.page,
                        "seed {seed}: lcn {lcn} mapped to unprogrammed {loc:?}"
                    );
                }
            }
            let units = d.streams.iter().flat_map(|s| {
                let parked = s.parked.iter().flat_map(|(u, _)| u.iter());
                s.blocks.iter().chain(parked)
            });
            let held: Vec<BlockId> = units.copied().collect();
            for b in (0..d.flash.geometry().total_blocks()).map(BlockId) {
                if d.pool.state(b) == Some(BlockState::Open) {
                    assert!(held.contains(&b), "seed {seed}: open {b:?} leaked");
                }
            }
        }
    }
}
