//! The KV-FTL index subsystem.
//!
//! Three cooperating pieces, mirroring the architecture in the paper's
//! Sec. II / Fig. 1:
//!
//! * [`GlobalStore`] — the *functional* global index: an exact map from
//!   (key-hash, fingerprint) to the blob's location(s) and data. Behavior
//!   is always exact; only *timing* is modeled.
//! * [`IndexTiming`] — the *cost* model of the multi-level hash table:
//!   while the index fits the device-DRAM budget, operations are DRAM
//!   ops; once it overflows, lookups pay a flash read for non-resident
//!   leaf segments and merges pay multi-level read/write chains on a
//!   reserved flash region (real flash ops on the shared substrate, so
//!   index traffic contends with data traffic — the Fig. 3 mechanism).
//! * [`IterBuckets`] — iterator buckets keyed by the first 4 key bytes,
//!   with open-iterator handles (Sec. II: keys are also "stored in an
//!   iterator bucket ... based on the first 4 bytes of the key").

use std::collections::BTreeSet;
use std::ops::Bound;

use kvssd_flash::{BlockId, FlashDevice, PageAddr};
use kvssd_sim::rng::mix64;
use kvssd_sim::{PrehashedMap, SimTime};

use crate::config::{INDEX_ENTRY_BYTES, KEY_MIN};
use crate::hash::KeyId;
use crate::inline_vec::InlineVec;
use crate::value::Payload;

/// Segment list of one entry: one segment inline (every value that fits
/// the per-page budget, ~24 KiB), heap for blobs that split.
pub type SegList = InlineVec<SegLoc, 1>;

/// Location of one blob segment on flash.
///
/// A segment lies inside one page, so its page number, offset and sizes
/// all fit 16 bits: [`crate::KvSsd::new`] refuses a geometry with more
/// pages per block, or a page payload whose largest allocation is larger.
/// That keeps the location at 12 B and the index slot on one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegLoc {
    /// The erase block.
    pub block: BlockId,
    /// Page within the block.
    pub page: u16,
    /// Byte offset of the segment within the page payload.
    pub offset: u16,
    /// Allocated bytes of the segment.
    pub alloc: u16,
    /// Raw (useful) bytes of the segment.
    pub raw: u16,
}

impl Default for SegLoc {
    /// An all-zero placeholder (unused inline-buffer slots only; never a
    /// live location).
    fn default() -> Self {
        SegLoc {
            block: BlockId(0),
            page: 0,
            offset: 0,
            alloc: 0,
            raw: 0,
        }
    }
}

/// One global-index record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Key length in bytes.
    pub key_len: u8,
    /// The stored value (the simulator's stand-in for flash contents); its
    /// length is the value length.
    pub payload: Payload,
    /// Segment locations, in order (inline for unsplit blobs).
    pub segs: SegList,
}

impl IndexEntry {
    /// Total allocated bytes across segments.
    pub fn allocated_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.alloc as u64).sum()
    }

    /// User bytes (key + value).
    pub fn user_bytes(&self) -> u64 {
        self.key_len as u64 + self.payload.len()
    }
}

/// One slot of the global index: a `((hash, fingerprint), entry)` record
/// or empty. `IndexEntry` has a niche, so the `Option` costs no bytes: the
/// 16 B key and the 48 B entry fill exactly one 64 B cache line, and the
/// alignment puts every slot on a line of its own, so a probe touches one
/// line per slot it reads.
#[derive(Debug)]
#[repr(align(64))]
struct IndexSlot(Option<((u64, u64), IndexEntry)>);

// One slot per table position on the host (not the *modelled*
// `INDEX_ENTRY_BYTES`): growing any of these grows every index probe's
// cache footprint and the simulator's RSS.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<IndexSlot>() == 64 && align_of::<IndexSlot>() == 64);
    assert!(size_of::<IndexEntry>() == 48);
    assert!(size_of::<Payload>() == 16);
    assert!(size_of::<SegLoc>() == 12);
    assert!(size_of::<SegList>() == 24);
};

/// Slots in one full segment of the global index: 2^17 slots of 64 B, or
/// 8 MiB. A full segment takes 114 688 records before it splits.
pub const SEGMENT_SLOTS: usize = 1 << 17;

/// The most top hash bits a segment splits on. A full segment that
/// already splits on all of them doubles instead, as the first segment
/// does: records that share every one of these bits (only a key set built
/// to collide can) still fit, and the directory never passes 2^16
/// entries.
const MAX_DEPTH: u32 = 16;

/// The exact global index: (hash, fingerprint) -> entry.
///
/// Keyed by both hashes so 64-bit hash collisions between distinct keys
/// stay distinct records, as the device's collision-resolution chain
/// would keep them. The hash is already a uniform 64-bit value, so the
/// index is extendible hashing over it:
///
/// * A directory of 2^`depth` entries, indexed by the hash's top `depth`
///   bits, names the segment that holds each key.
/// * A segment is a flat linear-probing array: a key's home slot is
///   `hash & mask`, a probe walks forward from there to its key or to an
///   empty slot, and a delete shifts the rest of the run back (no
///   tombstones). Because the home slot is computable from the hash
///   alone, a caller that knows which keys it will probe next can
///   prefetch their slots — GC does, for the victim's upcoming refs.
///
/// The first segment doubles when an insert would pass 7/8 load, the
/// point at which `std`'s `HashMap` grows too, until it has `SEG` slots.
/// An index of fewer than 7/8 × `SEG` records is therefore one flat table
/// that never holds more slots than that map would hold buckets, and has
/// no control bytes. From there a full segment that would pass 7/8 load
/// splits: the records whose next hash bit is set move into one new
/// segment, and the directory doubles only when the splitting segment
/// already shares every bit the directory resolves. Growing never holds
/// a second copy of the index, only one new segment beside the old ones.
///
/// `SEG` (a power of two, at least 8) lets tests drive splits with small
/// segments; every device uses [`SEGMENT_SLOTS`].
#[derive(Debug)]
pub struct GlobalStore<const SEG: usize = SEGMENT_SLOTS> {
    /// Entry `i` is the position in `segments` of the segment holding
    /// every hash whose top `depth` bits read `i`.
    dir: Vec<u32>,
    /// Hash bits the directory resolves: it has 2^`depth` entries.
    depth: u32,
    segments: Vec<Segment>,
    len: usize,
}

/// One segment of the global index.
#[derive(Debug, Default)]
struct Segment {
    /// A power of two slots, or none before the first insert.
    slots: Vec<IndexSlot>,
    /// Records held.
    len: usize,
    /// Top hash bits that every record here shares (its local depth).
    depth: u32,
}

/// Records a table of `slots` slots holds before it grows: 7/8 of them,
/// and one less than all of them below 8 (a probe must always reach an
/// empty slot).
fn capacity(slots: usize) -> usize {
    if slots < 8 {
        slots.saturating_sub(1)
    } else {
        slots / 8 * 7
    }
}

/// An empty table of `slots` slots. It is advised onto huge pages before
/// its first byte is written, so the faults that fill it map 2 MiB pages
/// and a probe walks one level less of page table.
fn table(slots: usize) -> Vec<IndexSlot> {
    let mut table = Vec::with_capacity(slots);
    advise_huge_pages(&table);
    table.resize_with(slots, || IndexSlot(None));
    table
}

impl<const SEG: usize> Default for GlobalStore<SEG> {
    fn default() -> Self {
        const { assert!(SEG.is_power_of_two() && SEG >= 8) };
        GlobalStore {
            dir: vec![0],
            depth: 0,
            segments: vec![Segment::default()],
            len: 0,
        }
    }
}

impl GlobalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const SEG: usize> GlobalStore<SEG> {
    /// Number of KVPs resident.
    pub fn len(&self) -> u64 {
        self.len as u64
    }

    /// True when no KVPs are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position in `segments` of the segment `hash`'s top bits name.
    #[inline]
    fn seg_of(&self, hash: u64) -> Option<usize> {
        let i = hash.rotate_left(self.depth) as usize & self.dir.len().wrapping_sub(1);
        self.dir.get(i).map(|&s| s as usize)
    }

    #[inline]
    fn segment(&self, hash: u64) -> Option<&Segment> {
        self.segments.get(self.seg_of(hash)?)
    }

    /// Inserts or replaces; returns the previous entry if any.
    pub fn insert(&mut self, hash: u64, fp: u64, entry: IndexEntry) -> Option<IndexEntry> {
        loop {
            let s = self.seg_of(hash)?;
            let seg = self.segments.get_mut(s)?;
            let at = seg.probe(hash, fp);
            if let Ok(i) = at {
                let old = seg.slots.get_mut(i).and_then(|s| s.0.as_mut())?;
                return Some(std::mem::replace(&mut old.1, entry));
            }
            if seg.len < capacity(seg.slots.len()) {
                if let Some(slot) = at.err().and_then(|i| seg.slots.get_mut(i)) {
                    slot.0 = Some(((hash, fp), entry));
                    seg.len += 1;
                    self.len += 1;
                }
                return None;
            }
            if seg.slots.len() < SEG || seg.depth >= MAX_DEPTH {
                seg.double();
            } else {
                self.split(s);
            }
        }
    }

    /// Splits the full segment `s` on the hash bit after the top bits its
    /// records share: the records with that bit set move into one new
    /// segment, and the directory doubles first if `s` already shares
    /// every bit the directory resolves. The records move in place (each
    /// leaves through the same backward shift a remove does), so a split
    /// adds exactly one segment and frees nothing.
    fn split(&mut self, s: usize) {
        let Some(depth) = self.segments.get(s).map(|seg| seg.depth) else {
            return;
        };
        if depth == self.depth {
            // Entry `i` of the doubled directory extends the prefix of
            // entry `i / 2` by one bit.
            self.dir = (0..self.dir.len() * 2)
                .filter_map(|i| self.dir.get(i / 2).copied())
                .collect();
            self.depth += 1;
        }
        let bit = 1u64 << (63 - depth);
        let mut fresh = Segment {
            slots: table(SEG),
            len: 0,
            depth: depth + 1,
        };
        let Some(seg) = self.segments.get_mut(s) else {
            return;
        };
        seg.depth = depth + 1;
        // A take may pull a later record back into slot `i`, so `i` only
        // advances past a record that stays.
        let mut i = 0;
        while let Some(slot) = seg.slots.get(i) {
            match &slot.0 {
                Some(((h, _), _)) if h & bit != 0 => {
                    if let Some((key, entry)) = seg.take(i) {
                        fresh.place(key, entry);
                    }
                }
                _ => i += 1,
            }
        }
        let new = self.segments.len() as u32;
        self.segments.push(fresh);
        // The entries naming `s` whose bit for `depth` is set now name the
        // new segment.
        let shift = self.depth - 1 - depth;
        for (i, d) in self.dir.iter_mut().enumerate() {
            if *d as usize == s && (i >> shift) & 1 == 1 {
                *d = new;
            }
        }
    }

    /// Looks up an entry.
    pub fn get(&self, hash: u64, fp: u64) -> Option<&IndexEntry> {
        let seg = self.segment(hash)?;
        let i = seg.probe(hash, fp).ok()?;
        seg.slots.get(i)?.0.as_ref().map(|(_, e)| e)
    }

    /// Mutable lookup (GC relocates segments through this).
    pub fn get_mut(&mut self, hash: u64, fp: u64) -> Option<&mut IndexEntry> {
        let s = self.seg_of(hash)?;
        let seg = self.segments.get_mut(s)?;
        let i = seg.probe(hash, fp).ok()?;
        seg.slots.get_mut(i)?.0.as_mut().map(|(_, e)| e)
    }

    /// Removes and returns an entry, shifting the rest of its run back
    /// so every remaining key stays reachable from its home slot.
    pub fn remove(&mut self, hash: u64, fp: u64) -> Option<IndexEntry> {
        let s = self.seg_of(hash)?;
        let seg = self.segments.get_mut(s)?;
        let i = seg.probe(hash, fp).ok()?;
        let (_, removed) = seg.take(i)?;
        self.len -= 1;
        Some(removed)
    }

    /// Resolves a reverse-map ref, which names its key by the 64-bit hash
    /// alone: walks `hash`'s run and returns the full key and segment
    /// `seg_no` of the first record with that hash whose segment `seg_no`
    /// satisfies `here` (lies in the block, or on the page, being asked
    /// about). Distinct keys that share the hash are told apart only by
    /// where that segment lies; when several qualify, the one nearest the
    /// home slot comes first.
    pub(crate) fn find_segment(
        &self,
        hash: u64,
        seg_no: u32,
        here: impl Fn(&SegLoc) -> bool,
    ) -> Option<(KeyId, SegLoc)> {
        let seg = self.segment(hash)?;
        let mask = seg.mask();
        let mut i = hash as usize & mask;
        while let Some(IndexSlot(Some((key, entry)))) = seg.slots.get(i) {
            if key.0 == hash {
                if let Some(loc) = entry.segs.get(seg_no as usize).filter(|s| here(s)) {
                    let (hash, fp) = *key;
                    return Some((KeyId { hash, fp }, *loc));
                }
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Asks the CPU to start loading `hash`'s home slot, so a probe for
    /// it shortly afterwards finds the slot in cache. A hint only: it
    /// changes no state and no result.
    #[inline]
    pub(crate) fn prefetch(&self, hash: u64) {
        if let Some(slot) = self
            .segment(hash)
            .and_then(|seg| seg.slots.get(hash as usize & seg.mask()))
        {
            prefetch_read(slot);
        }
    }
}

impl Segment {
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// Walks `(hash, fp)`'s run: `Ok(slot)` holding the key, or
    /// `Err(slot)` for the empty slot that ends the run (with no slots
    /// at all, an index past the end).
    #[inline]
    fn probe(&self, hash: u64, fp: u64) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            match self.slots.get(i) {
                Some(IndexSlot(Some((key, _)))) if *key == (hash, fp) => return Ok(i),
                Some(IndexSlot(Some(_))) => i = (i + 1) & mask,
                _ => return Err(i),
            }
        }
    }

    /// Puts a record the segment does not hold at the end of its run.
    fn place(&mut self, key: (u64, u64), entry: IndexEntry) {
        if let Some(slot) = self
            .probe(key.0, key.1)
            .err()
            .and_then(|i| self.slots.get_mut(i))
        {
            slot.0 = Some((key, entry));
            self.len += 1;
        }
    }

    /// Takes the record out of slot `hole`, shifting the rest of its run
    /// back so every remaining key stays reachable from its home slot.
    fn take(&mut self, mut hole: usize) -> Option<((u64, u64), IndexEntry)> {
        let removed = self.slots.get_mut(hole)?.0.take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some(IndexSlot(Some(((h, _), _)))) = self.slots.get(i) else {
                return Some(removed);
            };
            // A record may fill the hole unless its home lies cyclically
            // after the hole (in `(hole, i]`): it would become unreachable.
            let home = *h as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                let moved = self.slots.get_mut(i).and_then(|s| s.0.take());
                if let Some(slot) = self.slots.get_mut(hole) {
                    slot.0 = moved;
                }
                hole = i;
            }
        }
    }

    /// Doubles the segment's table and re-places every record.
    fn double(&mut self) {
        let slots = (self.slots.len() * 2).max(4);
        let old = std::mem::replace(&mut self.slots, table(slots));
        self.len = 0;
        for (key, entry) in old.into_iter().filter_map(|s| s.0) {
            self.place(key, entry);
        }
    }
}

/// Prefetches the cache line holding `*slot` into every cache level: an
/// [`IndexSlot`] is one aligned 64 B line, so one hint loads all of it.
#[inline(always)]
fn prefetch_read(slot: &IndexSlot) {
    let line = (slot as *const IndexSlot).cast::<i8>();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults and reads nothing
    // into the program, and the address is that of the live `*slot`
    // anyway; SSE is part of the x86_64 baseline, so the instruction
    // exists.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(line);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
}

// `madvise(2)` and its `MADV_HUGEPAGE` advice, from the kernel's
// `mman-common.h`.
#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
}
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;

/// Asks the kernel to back the 2 MiB-aligned interior of `table`'s
/// allocation with transparent huge pages. It must run before the
/// capacity is first touched: a page already faulted in stays a 4 KiB
/// page. Tables under 4 MiB are left alone (their interior may hold no
/// whole huge page), and so is every platform but Linux. A hint only:
/// the result is ignored and no state depends on it.
fn advise_huge_pages<T>(table: &Vec<T>) {
    const HUGE_PAGE: usize = 2 << 20;
    let bytes = table.capacity() * std::mem::size_of::<T>();
    if bytes < 2 * HUGE_PAGE {
        return;
    }
    let start = table.as_ptr() as usize;
    let first = start.next_multiple_of(HUGE_PAGE);
    let end = (start + bytes) / HUGE_PAGE * HUGE_PAGE;
    #[cfg(target_os = "linux")]
    // SAFETY: `[first, end)` lies inside the live allocation `table`
    // owns (both ends were rounded inwards), and MADV_HUGEPAGE only
    // changes how the kernel backs those pages: it moves, frees and
    // rewrites nothing, so no reference into the allocation, or into
    // any other, is affected.
    unsafe {
        madvise(first as *mut std::ffi::c_void, end - first, MADV_HUGEPAGE);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (first, end);
}

/// Counters for the index cost model.
#[derive(Debug, Clone, Default)]
pub struct IndexTimingStats {
    /// Flash reads paid by lookups that missed the DRAM cache.
    pub lookup_flash_reads: u64,
    /// Flash reads paid by local-to-global merges.
    pub merge_flash_reads: u64,
    /// Index pages programmed by merges.
    pub index_programs: u64,
    /// Index-region block erases (index log wrap-around).
    pub index_erases: u64,
    /// Merges executed.
    pub merges: u64,
}

/// Timing model of the multi-level hash index (see module docs).
#[derive(Debug)]
pub struct IndexTiming {
    dram_bytes: u64,
    reserved: Vec<BlockId>,
    /// Write cursor into the reserved region: (block index, next page).
    cursor: (usize, u32),
    dirty_bytes: u64,
    stats: IndexTimingStats,
}

impl IndexTiming {
    /// Creates the model over `reserved` index-region blocks, which must
    /// already be pre-programmed (mount-time state).
    pub fn new(dram_bytes: u64, reserved: Vec<BlockId>) -> Self {
        assert!(
            reserved.len() >= 2,
            "index region needs at least two blocks (one is the write cursor)"
        );
        IndexTiming {
            dram_bytes,
            cursor: (0, u32::MAX), // forces an erase before the first program
            dirty_bytes: 0,
            reserved,
            stats: IndexTimingStats::default(),
        }
    }

    /// Cost-model counters.
    pub fn stats(&self) -> &IndexTimingStats {
        &self.stats
    }

    /// Total index size for `entries` records.
    pub fn index_bytes(&self, entries: u64) -> u64 {
        entries * INDEX_ENTRY_BYTES as u64
    }

    /// Fraction of leaf segments resident in DRAM.
    pub fn resident_fraction(&self, entries: u64) -> f64 {
        let size = self.index_bytes(entries);
        if size <= self.dram_bytes {
            1.0
        } else {
            self.dram_bytes as f64 / size as f64
        }
    }

    /// Levels of the index that live on flash for the current size: the
    /// deeper the overflow, the longer a merge's read-modify-write chain.
    pub fn flash_depth(&self, entries: u64) -> u32 {
        let size = self.index_bytes(entries);
        if size <= self.dram_bytes {
            0
        } else {
            let ratio = size as f64 / self.dram_bytes as f64;
            if ratio <= 8.0 {
                1
            } else if ratio <= 64.0 {
                2
            } else {
                3
            }
        }
    }

    /// Charges a point lookup at `now` with `entries` records resident.
    ///
    /// Upper levels are DRAM-resident by design (they are small); only
    /// the leaf segment may be on flash — misses cost one flash read.
    pub fn lookup(
        &mut self,
        now: SimTime,
        hash: u64,
        entries: u64,
        flash: &mut FlashDevice,
    ) -> SimTime {
        if self.segment_resident(hash, entries) {
            return now;
        }
        self.stats.lookup_flash_reads += 1;
        self.flash_read(now, hash, flash)
    }

    /// Charges a local-to-global merge of `hashes` at `now`.
    ///
    /// Each merged entry whose leaf segment is non-resident costs
    /// `flash_depth` reads (the level chain is rewritten leaf-up), and
    /// the merge appends `INDEX_ENTRY_BYTES` per record to the index log,
    /// programming pages as they fill.
    pub fn merge(
        &mut self,
        now: SimTime,
        hashes: &[u64],
        entries: u64,
        flash: &mut FlashDevice,
    ) -> SimTime {
        self.stats.merges += 1;
        let depth = self.flash_depth(entries);
        let mut t = now;
        for &h in hashes {
            if !self.segment_resident(h, entries) {
                for level in 0..depth {
                    self.stats.merge_flash_reads += 1;
                    let done = self.flash_read(t, mix64(h ^ level as u64), flash);
                    t = t.max(done);
                }
            }
            self.dirty_bytes += INDEX_ENTRY_BYTES as u64;
        }
        // Flush full index pages to the log.
        let page_bytes = flash.geometry().page_bytes as u64;
        while self.dirty_bytes >= page_bytes && depth > 0 {
            self.dirty_bytes -= page_bytes;
            t = self.flash_program(t, flash);
        }
        if depth == 0 {
            // Fully DRAM-resident: merges are pure DRAM work; drop dirty
            // accounting (checkpointing is free compared to data traffic).
            self.dirty_bytes = 0;
        }
        t
    }

    fn segment_resident(&self, hash: u64, entries: u64) -> bool {
        let frac = self.resident_fraction(entries);
        if frac >= 1.0 {
            return true;
        }
        // Leaf segments hold ~page/INDEX_ENTRY_BYTES records; residency is a
        // deterministic pseudo-random property of the segment id.
        let seg = hash >> 10;
        (mix64(seg) % 1_000_000) < (frac * 1_000_000.0) as u64
    }

    /// One index-page read from the reserved region.
    fn flash_read(&self, now: SimTime, hash: u64, flash: &mut FlashDevice) -> SimTime {
        let n = self.reserved.len();
        let mut idx = (mix64(hash ^ 0x1D9) % n as u64) as usize;
        if idx == self.cursor.0 {
            idx = (idx + 1) % n;
        }
        let block = self.reserved[idx];
        let pages = flash.written_pages(block);
        if pages == 0 {
            return now; // freshly erased cursor neighborhood: DRAM copy
        }
        let page = (mix64(hash ^ 0x5E1) % pages as u64) as u32;
        flash
            .read_page(now, PageAddr { block, page }, 4096)
            .expect("index region read")
    }

    /// One index-page program at the write cursor (erasing the next log
    /// block when the cursor wraps into it).
    fn flash_program(&mut self, now: SimTime, flash: &mut FlashDevice) -> SimTime {
        let pages_per_block = flash.geometry().pages_per_block;
        let mut t = now;
        if self.cursor.1 >= pages_per_block {
            // Advance to the next block in the log and erase it.
            self.cursor.0 = (self.cursor.0 + 1) % self.reserved.len();
            self.cursor.1 = 0;
            let r = flash
                .erase_block(t, self.reserved[self.cursor.0])
                .expect("index region erase");
            self.stats.index_erases += 1;
            t = r.done;
        }
        let addr = PageAddr {
            block: self.reserved[self.cursor.0],
            page: self.cursor.1,
        };
        let r = flash
            .program_page(t, addr, flash.geometry().page_bytes as u64)
            .expect("index region program");
        self.stats.index_programs += 1;
        self.cursor.1 += 1;
        r.done
    }
}

// A bucket is one contiguous range of the key set only if no key is
// shorter than its four-byte prefix.
const _: () = assert!(KEY_MIN >= 4);

/// An open iterator: its bucket and the last key it returned.
#[derive(Debug)]
struct Cursor {
    bucket: [u8; 4],
    last: Option<Box<[u8]>>,
}

/// Iterator buckets: one ordered set of key copies, plus open-iterator
/// handles.
///
/// A bucket is every key whose first four bytes are its prefix; since no
/// key is shorter than [`KEY_MIN`] = 4 bytes, that is one contiguous range
/// of the set. A cursor resumes strictly after the last key it returned,
/// so a delete never shifts it: no key comes back twice, and every key
/// live from the open to the end comes back, in key order.
#[derive(Debug, Default)]
pub struct IterBuckets {
    enabled: bool,
    keys: BTreeSet<Box<[u8]>>,
    open: PrehashedMap<u64, Cursor>,
    next_handle: u64,
}

impl IterBuckets {
    /// Creates the bucket table; when `enabled` is false, inserts are
    /// no-ops (macro-run memory bound) and iteration returns nothing.
    pub fn new(enabled: bool) -> Self {
        IterBuckets {
            enabled,
            ..Self::default()
        }
    }

    /// Records a stored key (at least [`KEY_MIN`] bytes long).
    pub fn insert(&mut self, key: &[u8]) {
        debug_assert!(key.len() >= KEY_MIN, "a key shorter than its bucket");
        if self.enabled {
            self.keys.insert(key.into());
        }
    }

    /// Removes a deleted key.
    pub fn remove(&mut self, key: &[u8]) {
        self.keys.remove(key);
    }

    /// Opens an iterator over a 4-byte prefix; returns its handle.
    pub fn open(&mut self, bucket: [u8; 4]) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.open.insert(h, Cursor { bucket, last: None });
        h
    }

    /// Returns up to `n` keys of an open iterator's bucket, in key order,
    /// after the last key it returned. `None` when the handle is not open.
    pub fn next(&mut self, handle: u64, n: usize) -> Option<Vec<Box<[u8]>>> {
        let cur = self.open.get_mut(&handle)?;
        let from = match &cur.last {
            Some(last) => Bound::Excluded(&**last),
            None => Bound::Included(&cur.bucket[..]),
        };
        let out: Vec<Box<[u8]>> = self
            .keys
            .range::<[u8], _>((from, Bound::Unbounded))
            .take_while(|k| crate::hash::iter_bucket(k) == cur.bucket)
            .take(n)
            .cloned()
            .collect();
        if let Some(last) = out.last() {
            cur.last = Some(last.clone());
        }
        Some(out)
    }

    /// Closes an iterator; false when the handle was not open.
    pub fn close(&mut self, handle: u64) -> bool {
        self.open.remove(&handle).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_flash::{FlashTiming, Geometry};

    /// An entry whose payload length identifies it.
    fn entry(value_len: u32) -> IndexEntry {
        IndexEntry {
            key_len: 4,
            payload: Payload::synthetic(value_len, 0),
            segs: vec![SegLoc {
                block: BlockId(0),
                page: 0,
                offset: 0,
                alloc: 1024,
                raw: 46,
            }]
            .into(),
        }
    }

    #[test]
    fn global_store_distinguishes_colliding_fingerprints() {
        let mut g = GlobalStore::new();
        g.insert(42, 1, entry(1));
        g.insert(42, 2, entry(2));
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(42, 1).unwrap().payload.len(), 1);
        assert_eq!(g.get(42, 2).unwrap().payload.len(), 2);
        assert!(g.remove(42, 1).is_some());
        assert!(g.get(42, 1).is_none());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn replace_returns_old_entry() {
        let mut g = GlobalStore::new();
        assert!(g.insert(7, 7, entry(7)).is_none());
        let old = g.insert(7, 7, entry(8)).unwrap();
        assert_eq!(old.payload.len(), 7);
        assert_eq!(g.get(7, 7).unwrap().payload.len(), 8);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn every_segment_starts_on_a_cache_line() {
        // 64-slot segments: 20 000 uniform records split the first one
        // hundreds of times. Each segment's table, the doubled first one
        // included, must start on a 64 B boundary, or every slot in it
        // straddles two lines.
        let mut g = GlobalStore::<64>::default();
        for i in 0..20_000u64 {
            g.insert(mix64(i), i, entry(1));
        }
        assert!(g.segments.len() >= 300, "{} segments", g.segments.len());
        for (s, seg) in g.segments.iter().enumerate() {
            assert!(seg.slots.as_ptr().addr().is_multiple_of(64), "segment {s}");
        }
    }

    /// Checks the extendible-hashing layout of `g`: a directory of
    /// 2^depth entries in which each segment owns one aligned block of
    /// 2^(depth - its depth) entries; full segments once there are
    /// several; per-segment and total counts that match the slots; and
    /// every record in the segment its hash's top bits name, and found.
    fn assert_layout<const SEG: usize>(g: &GlobalStore<SEG>) {
        assert_eq!(g.dir.len(), 1 << g.depth);
        let mut total = 0;
        for (s, seg) in g.segments.iter().enumerate() {
            assert!(seg.depth <= g.depth, "segment {s}");
            let named: Vec<usize> = (0..g.dir.len())
                .filter(|&i| g.dir[i] as usize == s)
                .collect();
            let span = 1usize << (g.depth - seg.depth);
            assert_eq!(named.len(), span, "segment {s}");
            assert!(named[0].is_multiple_of(span) && named.windows(2).all(|w| w[1] == w[0] + 1));
            assert!(seg.slots.len().is_power_of_two() || g.segments.len() == 1);
            if g.segments.len() > 1 {
                assert!(seg.slots.len() >= SEG, "segment {s}");
            }
            let held = seg.slots.iter().filter(|s| s.0.is_some()).count();
            assert_eq!(held, seg.len, "segment {s}");
            assert!(held <= capacity(seg.slots.len()), "segment {s}");
            total += held;
            for ((h, fp), e) in seg.slots.iter().filter_map(|s| s.0.as_ref()) {
                assert_eq!(g.seg_of(*h), Some(s), "record ({h:#x}, {fp}) misfiled");
                assert_eq!(g.get(*h, *fp), Some(e));
            }
        }
        assert_eq!(total as u64, g.len());
    }

    #[test]
    fn first_segment_grows_where_the_std_map_grows() {
        // Same record count, same capacity: below the first split the
        // index is one flat table that never holds more slots than the
        // `PrehashedMap` it replaced held buckets.
        let mut g = GlobalStore::new();
        let mut m: PrehashedMap<(u64, u64), ()> = PrehashedMap::default();
        for i in 0..5_000u64 {
            g.insert(mix64(i), i, entry(1));
            m.insert((mix64(i), i), ());
            assert_eq!((g.segments.len(), g.dir.len()), (1, 1));
            assert_eq!(
                capacity(g.segments[0].slots.len()),
                m.capacity(),
                "after {} records",
                i + 1
            );
            assert!(g.segments[0].slots.len().is_power_of_two());
        }
    }

    #[test]
    fn a_full_segment_splits_instead_of_doubling() {
        // 64-slot segments: the lone segment doubles up to 64 slots, and
        // the insert that finds it holding 56 records splits it in two.
        // From there every segment has 64 slots, splits on its own, and
        // the directory doubles only under a segment as deep as itself.
        let mut g = GlobalStore::<64>::default();
        for i in 0..5_000u64 {
            g.insert(mix64(i), i, entry(i as u32));
            match i {
                0..56 => assert_eq!((g.segments.len(), g.depth), (1, 0)),
                56 => assert_eq!((g.segments.len(), g.depth), (2, 1)),
                _ => assert!(g.segments.len() >= 2),
            }
            if i % 97 == 0 || i == 56 {
                assert_layout(&g);
            }
        }
        assert_layout(&g);
        // 5 000 uniform records need 90–179 segments at 28–56 each.
        assert!(
            (90..=179).contains(&g.segments.len()),
            "{} segments",
            g.segments.len()
        );
        assert!((7..=10).contains(&g.depth), "depth {}", g.depth);
        assert!(g.segments.iter().all(|s| s.slots.len() == 64));
        for i in 0..5_000u64 {
            assert_eq!(g.get(mix64(i), i).map(|e| e.payload.len()), Some(i));
        }
    }

    #[test]
    fn records_sharing_every_split_bit_double_their_segment() {
        // Twenty hashes that agree on their top 48 bits: splitting moves
        // none of them, so the segment splits down to the deepest
        // directory and then doubles in place to take them all.
        let mut g = GlobalStore::<8>::default();
        for h in 0..20u64 {
            g.insert(h, 0, entry(h as u32));
        }
        assert_eq!(g.depth, MAX_DEPTH);
        assert_eq!(g.segments.len(), 1 + MAX_DEPTH as usize);
        assert_eq!(g.segments[0].slots.len(), 32);
        assert_layout(&g);
    }

    #[test]
    fn find_segment_tells_colliding_keys_apart_by_location() {
        let seg = |block, page| SegLoc {
            block: BlockId(block),
            page,
            offset: 0,
            alloc: 1024,
            raw: 46,
        };
        let holding = |s: SegLoc| IndexEntry {
            segs: vec![s].into(),
            ..entry(1)
        };
        let in_block = |b| move |s: &SegLoc| s.block == BlockId(b);
        // Three keys share one 64-bit hash (fingerprints 1, 2, 3); the
        // first two both hold segment 0 in block 5. A key with another
        // hash but the same home slot sits inside their run.
        let h = 0x0000_0001_C011_1DE5;
        let other = h + (1 << 40);
        let mut g = GlobalStore::new();
        g.insert(h, 1, holding(seg(5, 0)));
        g.insert(other, 1, holding(seg(5, 1)));
        g.insert(h, 2, holding(seg(5, 3)));
        g.insert(h, 3, holding(seg(9, 0)));
        assert_eq!(
            other as usize & g.segments[0].mask(),
            h as usize & g.segments[0].mask()
        );

        // A ref naming (h, 0) in block 5 resolves to the record nearest
        // the home slot: the first inserted.
        let id = |fp| KeyId { hash: h, fp };
        let first = Some((id(1), seg(5, 0)));
        assert_eq!(g.find_segment(h, 0, in_block(5)), first);
        // A narrower question (the page) picks out the other one, and
        // keys elsewhere or segments nobody has are not found.
        let on_page_3 = |s: &SegLoc| s.block == BlockId(5) && s.page == 3;
        assert_eq!(g.find_segment(h, 0, on_page_3), Some((id(2), seg(5, 3))));
        assert_eq!(g.find_segment(h, 0, in_block(9)), Some((id(3), seg(9, 0))));
        assert_eq!(g.find_segment(h, 1, in_block(5)), None);
        assert_eq!(g.find_segment(h ^ 1, 0, in_block(5)), None);

        // GC's drain of block 5: each of the two refs to (h, 0) pops,
        // resolves and moves its record's segment out of the block, so
        // both colliding segments are copied, the first-inserted first.
        let mut refs = vec![(h, 0u32), (h, 0)];
        let mut copied = Vec::new();
        while let Some((hash, seg_no)) = refs.pop() {
            if let Some((key, at)) = g.find_segment(hash, seg_no, in_block(5)) {
                let moved = g.get_mut(key.hash, key.fp).and_then(|e| e.segs.get_mut(0));
                *moved.unwrap() = seg(7, at.page);
                copied.push(key);
            }
        }
        assert_eq!(copied, vec![id(1), id(2)]);
        assert_eq!(g.find_segment(h, 0, in_block(5)), None);
        assert_eq!(g.get(other, 1).map(|e| e.segs[0]), Some(seg(5, 1)));
    }

    #[test]
    fn prefetch_on_a_table_with_no_slots_is_a_no_op() {
        let g = GlobalStore::new();
        for hash in [0, 1, u64::MAX] {
            g.prefetch(hash);
        }
        assert!(g.segments.len() == 1 && g.segments[0].slots.is_empty() && g.is_empty());
    }

    #[test]
    fn remove_keeps_a_wrapped_run_reachable() {
        // Five keys homed in the last slot of an 8-slot table wrap to
        // slots 0 to 3; removing the first must pull the rest back.
        let mut g = GlobalStore::new();
        for fp in 0..5 {
            g.insert(u64::MAX, fp, entry(fp as u32));
        }
        let slots = &g.segments[0].slots;
        assert_eq!(slots.len(), 8);
        assert!(slots[7].0.is_some() && slots[0].0.is_some() && slots[3].0.is_some());
        assert_eq!(g.remove(u64::MAX, 0).map(|e| e.payload.len()), Some(0));
        for fp in 1..5 {
            assert_eq!(g.get(u64::MAX, fp).map(|e| e.payload.len()), Some(fp));
        }
        assert!(
            g.segments[0].slots[3].0.is_none(),
            "the run shifted back by one"
        );
    }

    #[test]
    fn remove_keeps_a_wrapped_run_reachable_in_a_split_segment() {
        // 8-slot segments. Four keys homed in slot 7 whose top bit is
        // set, and three homed in slot 0 whose top bit is clear, fill the
        // lone segment to 7/8; the next key splits it, and the four move
        // into the new segment, where they wrap from slot 7 into slot 0.
        let (high, low) = (u64::MAX, 8u64);
        let mut g = GlobalStore::<8>::default();
        for fp in 0..4 {
            g.insert(high, fp, entry(fp as u32));
        }
        for fp in 0..3 {
            g.insert(low, fp, entry(10 + fp as u32));
        }
        assert_eq!(g.segments.len(), 1);
        g.insert(low, 3, entry(13));
        assert_eq!((g.segments.len(), g.depth), (2, 1));
        assert_layout(&g);
        let moved = &g.segments[1].slots;
        assert!(moved[7].0.is_some() && moved[0].0.is_some() && moved[2].0.is_some());
        assert_eq!(g.remove(high, 0).map(|e| e.payload.len()), Some(0));
        for fp in 1..4 {
            assert_eq!(g.get(high, fp).map(|e| e.payload.len()), Some(fp));
        }
        assert!(
            g.segments[1].slots[2].0.is_none(),
            "the run shifted back by one"
        );
        assert_layout(&g);
    }

    fn timing_fixture() -> (IndexTiming, FlashDevice) {
        let mut flash = FlashDevice::new(Geometry::small(), FlashTiming::pm983_like());
        let reserved: Vec<BlockId> = (0..4).map(BlockId).collect();
        for &b in &reserved {
            flash.preprogram_block(b);
        }
        // 64 KiB DRAM, 48 B entries -> overflow past ~1365 entries.
        (IndexTiming::new(64 * 1024, reserved), flash)
    }

    #[test]
    fn small_index_is_fully_resident() {
        let (it, _) = timing_fixture();
        assert_eq!(it.resident_fraction(1_000), 1.0);
        assert_eq!(it.flash_depth(1_000), 0);
    }

    #[test]
    fn lookup_is_free_while_resident() {
        let (mut it, mut flash) = timing_fixture();
        let t = it.lookup(SimTime::ZERO, 123, 1_000, &mut flash);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(it.stats().lookup_flash_reads, 0);
    }

    #[test]
    fn overflowed_lookups_pay_flash_reads() {
        let (mut it, mut flash) = timing_fixture();
        let entries = 1_000_000; // 48 MB index vs 64 KiB DRAM
        assert!(it.resident_fraction(entries) < 0.01);
        let mut paid = 0;
        for h in 0..100u64 {
            let t = it.lookup(SimTime::ZERO, mix64(h), entries, &mut flash);
            if t > SimTime::ZERO {
                paid += 1;
            }
        }
        assert!(paid > 90, "only {paid} lookups paid flash reads");
        assert_eq!(it.stats().lookup_flash_reads, paid);
    }

    #[test]
    fn depth_grows_with_overflow_ratio() {
        let (it, _) = timing_fixture();
        // 64 KiB budget, 48 B entries: 1365 entries fill DRAM.
        assert_eq!(it.flash_depth(1_365), 0);
        assert_eq!(it.flash_depth(5_000), 1); // ~3.7x
        assert_eq!(it.flash_depth(50_000), 2); // ~37x
        assert_eq!(it.flash_depth(500_000), 3); // ~366x
    }

    #[test]
    fn merge_is_cheap_resident_expensive_overflowed() {
        let (mut it, mut flash) = timing_fixture();
        let hashes: Vec<u64> = (0..32).map(mix64).collect();
        let cheap = it.merge(SimTime::ZERO, &hashes, 1_000, &mut flash);
        assert_eq!(cheap, SimTime::ZERO);
        let costly = it.merge(SimTime::ZERO, &hashes, 1_000_000, &mut flash);
        assert!(costly > SimTime::ZERO);
        assert!(it.stats().merge_flash_reads >= 32, "depth >= 1 per entry");
    }

    #[test]
    fn merge_programs_index_pages_as_log_fills() {
        let (mut it, mut flash) = timing_fixture();
        let hashes: Vec<u64> = (0..64).map(mix64).collect();
        // Enough merged entries to cross a 32 KiB page: 700 * 48 B per
        // call, ~10 calls.
        for round in 0..20u64 {
            let hs: Vec<u64> = hashes.iter().map(|&h| mix64(h ^ round)).collect();
            let _done = it.merge(SimTime::ZERO, &hs, 1_000_000, &mut flash);
        }
        assert!(it.stats().index_programs > 0);
    }

    #[test]
    fn iter_buckets_group_by_prefix_in_key_order() {
        let mut ib = IterBuckets::new(true);
        ib.insert(b"user0002");
        ib.insert(b"sess0001");
        ib.insert(b"user0001");
        ib.insert(b"usex0001");
        let h = ib.open(*b"user");
        let batch = ib.next(h, 10).unwrap();
        let names: Vec<&[u8]> = batch.iter().map(AsRef::as_ref).collect();
        assert_eq!(names, [b"user0001".as_slice(), b"user0002"]);
        assert!(ib.next(h, 10).unwrap().is_empty());
        assert!(ib.close(h));
        assert!(!ib.close(h));
    }

    #[test]
    fn iter_next_paginates() {
        let mut ib = IterBuckets::new(true);
        for i in 0..25u32 {
            ib.insert(format!("pref{i:04}").as_bytes());
        }
        let h = ib.open(*b"pref");
        assert_eq!(ib.next(h, 10).unwrap().len(), 10);
        assert_eq!(ib.next(h, 10).unwrap().len(), 10);
        assert_eq!(ib.next(h, 10).unwrap().len(), 5);
        assert_eq!(ib.next(h, 10).unwrap().len(), 0);
    }

    #[test]
    fn disabled_buckets_are_noops() {
        let mut ib = IterBuckets::new(false);
        ib.insert(b"abcd1");
        let h = ib.open(*b"abcd");
        assert!(ib.next(h, 5).unwrap().is_empty());
    }

    #[test]
    fn remove_drops_key_from_bucket() {
        let mut ib = IterBuckets::new(true);
        ib.insert(b"abcd1");
        ib.insert(b"abcd2");
        ib.remove(b"abcd1");
        let h = ib.open(*b"abcd");
        let keys = ib.next(h, 10).unwrap();
        assert_eq!(keys, [b"abcd2".as_slice().into()]);
    }

    #[test]
    fn bad_handle_returns_none() {
        let mut ib = IterBuckets::new(true);
        assert!(ib.next(999, 5).is_none());
    }

    #[test]
    fn deletes_behind_an_open_cursor_do_not_shift_it() {
        // A cursor mid-bucket must not re-see or skip keys when keys
        // before or after it are deleted under it.
        let mut ib = IterBuckets::new(true);
        for i in 0..10u32 {
            ib.insert(format!("curs{i:04}").as_bytes());
        }
        let h = ib.open(*b"curs");
        assert_eq!(ib.next(h, 4).unwrap().len(), 4);
        // Delete two already-visited keys and one upcoming key.
        ib.remove(b"curs0000");
        ib.remove(b"curs0002");
        ib.remove(b"curs0005");
        let rest = ib.next(h, 100).unwrap();
        let names: Vec<&[u8]> = rest.iter().map(AsRef::as_ref).collect();
        assert_eq!(
            names,
            vec![
                b"curs0004".as_slice(),
                b"curs0006",
                b"curs0007",
                b"curs0008",
                b"curs0009"
            ]
        );
    }
}
