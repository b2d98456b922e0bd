//! An ext4-like extent filesystem over the block-SSD.
//!
//! Provides what the paper's host stack provides to RocksDB: files backed
//! by extents, buffered writes through the OS page cache with explicit
//! `fsync`, buffered reads that hit the page cache, journaled metadata
//! operations, and — crucially for Fig. 6a — **whole-file TRIM on
//! delete**, which is what turns RocksDB's compaction deletes into
//! wholesale block invalidations inside the SSD.
//!
//! Data content is not materialized (callers keep their own functional
//! state); the filesystem tracks sizes, extents, dirty ranges, and
//! timing.

use kvssd_block_ftl::BlockSsd;
use kvssd_sim::{PrehashedMap, SimTime};

use crate::cache::{PageCache, PAGE_BYTES};
use crate::cpu::{CpuCosts, HostCpu};

/// A file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Filesystem errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Unknown file id.
    NoSuchFile(FileId),
    /// Read past the end of a file.
    ReadPastEof {
        /// The file.
        file: FileId,
        /// Requested end offset.
        end: u64,
        /// Actual file size.
        size: u64,
    },
    /// The volume is out of space.
    NoSpace,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NoSuchFile(id) => write!(f, "no such file: {}", id.0),
            FsError::ReadPastEof { file, end, size } => {
                write!(f, "read past EOF of file {} ({end} > {size})", file.0)
            }
            FsError::NoSpace => write!(f, "filesystem out of space"),
        }
    }
}

impl std::error::Error for FsError {}

/// Filesystem counters.
#[derive(Debug, Clone, Default)]
pub struct FsStats {
    /// Files created.
    pub creates: u64,
    /// Files deleted.
    pub deletes: u64,
    /// fsync calls.
    pub fsyncs: u64,
    /// Journal records written.
    pub journal_writes: u64,
    /// Bytes read through the filesystem.
    pub bytes_read: u64,
    /// Bytes written through the filesystem.
    pub bytes_written: u64,
    /// Page-cache hits on reads.
    pub cache_hits: u64,
    /// Page-cache misses (device reads).
    pub cache_misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct Extent {
    dev_offset: u64,
    len: u64,
}

#[derive(Debug, Default)]
struct FileMeta {
    extents: Vec<Extent>,
    size: u64,
    /// Byte range [dirty_from, size) not yet flushed to the device.
    dirty_from: Option<u64>,
}

/// The filesystem (see module docs). Owns the block device.
#[derive(Debug)]
pub struct ExtFs {
    device: BlockSsd,
    costs: CpuCosts,
    files: PrehashedMap<FileId, FileMeta>,
    next_id: u64,
    /// Simple wilderness allocator plus a free list of holes.
    next_free: u64,
    holes: Vec<Extent>,
    journal_head: u64,
    journal_region: u64,
    stats: FsStats,
}

/// Bytes reserved at the start of the volume for the journal.
const JOURNAL_BYTES: u64 = 4 * 1024 * 1024;

impl ExtFs {
    /// Formats a filesystem over `device`.
    pub fn format(device: BlockSsd) -> Self {
        ExtFs {
            costs: CpuCosts::xeon_like(),
            files: PrehashedMap::default(),
            next_id: 1,
            next_free: JOURNAL_BYTES,
            holes: Vec::new(),
            journal_head: 0,
            journal_region: JOURNAL_BYTES,
            stats: FsStats::default(),
            device,
        }
    }

    /// Filesystem counters.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// The underlying device (e.g. for GC/stall statistics).
    pub fn device(&self) -> &BlockSsd {
        &self.device
    }

    /// Mutable device access (experiments force flushes between phases).
    pub fn device_mut(&mut self) -> &mut BlockSsd {
        &mut self.device
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.device.capacity_bytes() - self.journal_region
    }

    /// A file's current size.
    pub fn size_of(&self, file: FileId) -> Result<u64, FsError> {
        Ok(self.meta(file)?.size)
    }

    /// Creates an empty file (journaled metadata operation).
    pub fn create(&mut self, now: SimTime, cpu: &mut HostCpu) -> (SimTime, FileId) {
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.files.insert(id, FileMeta::default());
        self.stats.creates += 1;
        let t = cpu.run(now, self.costs.syscall);
        let t = self.journal_write(t);
        (t, id)
    }

    /// Appends `len` bytes, buffered: data lands in the page cache and
    /// dirty ranges; the device write happens at `fsync` (or is absorbed
    /// forever, as the OS would). Returns completion of the memcpy.
    pub fn append(
        &mut self,
        now: SimTime,
        cpu: &mut HostCpu,
        cache: &mut PageCache,
        file: FileId,
        len: u64,
    ) -> Result<SimTime, FsError> {
        let t = cpu.run(now, self.costs.syscall + self.costs.memcpy(len));
        let meta = self.files.get_mut(&file).ok_or(FsError::NoSuchFile(file))?;
        let start = meta.size;
        meta.size += len;
        if meta.dirty_from.is_none() {
            meta.dirty_from = Some(start);
        }
        for page in (start / PAGE_BYTES)..=((meta.size - 1) / PAGE_BYTES) {
            cache.insert(file.0, page);
        }
        self.stats.bytes_written += len;
        Ok(t)
    }

    /// Appends `len` bytes with O_DIRECT semantics: allocates extents and
    /// writes to the device synchronously, bypassing the page cache.
    pub fn append_direct(
        &mut self,
        now: SimTime,
        cpu: &mut HostCpu,
        file: FileId,
        len: u64,
    ) -> Result<SimTime, FsError> {
        let t = cpu.run(now, self.costs.syscall);
        self.meta(file)?;
        let start = {
            let meta = self.files.get_mut(&file).expect("checked");
            let s = meta.size;
            meta.size += len;
            s
        };
        let t = self.write_range(t, file, start, len)?;
        self.stats.bytes_written += len;
        Ok(t)
    }

    /// Reads `[offset, offset+len)` through the page cache; misses go to
    /// the device per 4 KiB page.
    pub fn read(
        &mut self,
        now: SimTime,
        cpu: &mut HostCpu,
        cache: &mut PageCache,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<SimTime, FsError> {
        assert!(len > 0, "zero-length read");
        let meta = self.files.get(&file).ok_or(FsError::NoSuchFile(file))?;
        let size = meta.size;
        // Unflushed tails are served from memory even on cache miss
        // (they only exist in the page cache / dirty buffers).
        let dirty_from = meta.dirty_from.unwrap_or(u64::MAX);
        if offset + len > size {
            return Err(FsError::ReadPastEof {
                file,
                end: offset + len,
                size,
            });
        }
        let t = cpu.run(now, self.costs.syscall + self.costs.memcpy(len));
        let mut finish = t;
        for page in (offset / PAGE_BYTES)..=((offset + len - 1) / PAGE_BYTES) {
            if cache.touch(file.0, page) {
                self.stats.cache_hits += 1;
                continue;
            }
            self.stats.cache_misses += 1;
            let page_start = page * PAGE_BYTES;
            if page_start >= dirty_from {
                cache.insert(file.0, page);
                continue;
            }
            let (dev_off, _) = locate(file, &meta.extents, page_start);
            let bytes = PAGE_BYTES.min(size - page_start);
            let done = self
                .device
                .read(t, dev_off, bytes.div_ceil(512) * 512)
                .expect("fs-mapped read");
            cache.insert(file.0, page);
            finish = finish.max(done);
        }
        self.stats.bytes_read += len;
        Ok(finish)
    }

    /// Flushes dirty data and journals the metadata (fdatasync-ish).
    pub fn fsync(
        &mut self,
        now: SimTime,
        cpu: &mut HostCpu,
        file: FileId,
    ) -> Result<SimTime, FsError> {
        let t = cpu.run(now, self.costs.syscall);
        let (from, size) = {
            let meta = self.meta(file)?;
            (meta.dirty_from, meta.size)
        };
        self.stats.fsyncs += 1;
        let mut t = t;
        if let Some(from) = from {
            if size > from {
                t = self.write_range(t, file, from, size - from)?;
            }
            self.files.get_mut(&file).expect("checked").dirty_from = None;
        }
        Ok(self.journal_write(t))
    }

    /// Deletes a file: journals the metadata, frees its extents, TRIMs
    /// them on the device, and invalidates its cached pages.
    pub fn delete(
        &mut self,
        now: SimTime,
        cpu: &mut HostCpu,
        cache: &mut PageCache,
        file: FileId,
    ) -> Result<SimTime, FsError> {
        let meta = self.files.remove(&file).ok_or(FsError::NoSuchFile(file))?;
        let mut t = cpu.run(now, self.costs.syscall);
        for e in &meta.extents {
            let aligned = e.len.div_ceil(512) * 512;
            t = self
                .device
                .trim(t, e.dev_offset, aligned)
                .expect("trim of owned extent");
            self.holes.push(*e);
        }
        cache.invalidate_file(file.0);
        self.stats.deletes += 1;
        Ok(self.journal_write(t))
    }

    // ----- internals -------------------------------------------------

    fn meta(&self, file: FileId) -> Result<&FileMeta, FsError> {
        self.files.get(&file).ok_or(FsError::NoSuchFile(file))
    }

    /// Ensures extents cover `[offset, offset+len)` and writes the range
    /// to the device.
    fn write_range(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<SimTime, FsError> {
        let covered: u64 = self.files[&file].extents.iter().map(|e| e.len).sum();
        if offset + len > covered {
            let need = offset + len - covered;
            let extent = self.allocate(need)?;
            self.files
                .get_mut(&file)
                .expect("checked")
                .extents
                .push(extent);
        }
        // Write each covered chunk (usually one extent).
        let extents = &self.files[&file].extents;
        let mut t = now;
        let mut remaining = len;
        let mut pos = offset;
        while remaining > 0 {
            let (dev_off, ext_room) = locate(file, extents, pos);
            let chunk = remaining.min(ext_room);
            let aligned = chunk.div_ceil(512) * 512;
            let done = self
                .device
                .write(t, dev_off, aligned)
                .expect("fs-mapped write");
            t = done;
            pos += chunk;
            remaining -= chunk;
        }
        Ok(t)
    }

    /// Allocates an extent of at least `len` bytes (512-aligned).
    fn allocate(&mut self, len: u64) -> Result<Extent, FsError> {
        let want = len.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        // First-fit in the holes.
        if let Some(i) = self.holes.iter().position(|h| h.len >= want) {
            let h = self.holes[i];
            if h.len == want {
                self.holes.swap_remove(i);
                return Ok(h);
            }
            self.holes[i] = Extent {
                dev_offset: h.dev_offset + want,
                len: h.len - want,
            };
            return Ok(Extent {
                dev_offset: h.dev_offset,
                len: want,
            });
        }
        // Wilderness.
        if self.next_free + want > self.device.capacity_bytes() {
            return Err(FsError::NoSpace);
        }
        let e = Extent {
            dev_offset: self.next_free,
            len: want,
        };
        self.next_free += want;
        Ok(e)
    }

    /// One 4 KiB journal record, sequential in the journal region.
    fn journal_write(&mut self, now: SimTime) -> SimTime {
        let off = self.journal_head % (self.journal_region / PAGE_BYTES) * PAGE_BYTES;
        self.journal_head += 1;
        self.stats.journal_writes += 1;
        self.device
            .write(now, off, PAGE_BYTES)
            .expect("journal write")
    }
}

/// Maps a file offset to its device offset and the bytes remaining in
/// the extent that holds it, in one walk of the extent list.
fn locate(file: FileId, extents: &[Extent], offset: u64) -> (u64, u64) {
    let mut remaining = offset;
    for e in extents {
        if remaining < e.len {
            return (e.dev_offset + remaining, e.len - remaining);
        }
        remaining -= e.len;
    }
    panic!(
        "offset {offset} of file {} beyond its extents (fs bug)",
        file.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_block_ftl::BlockFtlConfig;
    use kvssd_flash::{FlashTiming, Geometry};

    fn fixture() -> (ExtFs, HostCpu, PageCache) {
        let dev = BlockSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            BlockFtlConfig::pm983_like(),
        );
        (
            ExtFs::format(dev),
            HostCpu::new(4),
            PageCache::new(64 * PAGE_BYTES),
        )
    }

    #[test]
    fn create_append_read_round_trips() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, f, 10_000).unwrap();
        assert_eq!(fs.size_of(f).unwrap(), 10_000);
        let t = fs.read(t, &mut cpu, &mut cache, f, 0, 10_000).unwrap();
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn buffered_writes_are_fast_fsync_pays_device() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let before = fs.device().stats().host_bytes_written;
        let t2 = fs.append(t, &mut cpu, &mut cache, f, 1 << 20).unwrap();
        assert_eq!(
            fs.device().stats().host_bytes_written,
            before,
            "buffered append must not touch the device"
        );
        let t3 = fs.fsync(t2, &mut cpu, f).unwrap();
        assert!(fs.device().stats().host_bytes_written >= 1 << 20);
        assert!(t3 > t2);
    }

    #[test]
    fn reads_after_eviction_hit_device() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, f, 256 * 1024).unwrap();
        let t = fs.fsync(t, &mut cpu, f).unwrap();
        // Evict by churning another file through the 64-page cache.
        let (t, f2) = fs.create(t, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, f2, 512 * 1024).unwrap();
        let misses_before = fs.stats().cache_misses;
        let _ = fs.read(t, &mut cpu, &mut cache, f, 0, 64 * 1024).unwrap();
        assert!(fs.stats().cache_misses > misses_before);
    }

    #[test]
    fn read_past_eof_rejected() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let _done = fs.append(t, &mut cpu, &mut cache, f, 100).unwrap();
        assert!(matches!(
            fs.read(t, &mut cpu, &mut cache, f, 0, 200),
            Err(FsError::ReadPastEof { .. })
        ));
    }

    #[test]
    fn delete_trims_and_invalidates() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, f, 128 * 1024).unwrap();
        let t = fs.fsync(t, &mut cpu, f).unwrap();
        let valid_before = fs.device().valid_bytes();
        let t = fs.delete(t, &mut cpu, &mut cache, f).unwrap();
        assert!(fs.device().valid_bytes() < valid_before);
        assert!(matches!(fs.size_of(f), Err(FsError::NoSuchFile(_))));
        let _ = t;
    }

    #[test]
    fn deleted_space_is_reused() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (mut t, _) = fs.create(SimTime::ZERO, &mut cpu);
        // Fill and delete files repeatedly beyond raw capacity: reuse
        // must keep allocation succeeding.
        let chunk = fs.capacity_bytes() / 4;
        for _ in 0..8 {
            let (t2, f) = fs.create(t, &mut cpu);
            t = fs.append(t2, &mut cpu, &mut cache, f, chunk).unwrap();
            t = fs.fsync(t, &mut cpu, f).unwrap();
            t = fs.delete(t, &mut cpu, &mut cache, f).unwrap();
        }
    }

    #[test]
    fn direct_appends_bypass_cache() {
        let (mut fs, mut cpu, _cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let before = fs.device().stats().host_bytes_written;
        let t = fs.append_direct(t, &mut cpu, f, 64 * 1024).unwrap();
        assert!(fs.device().stats().host_bytes_written > before);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn unflushed_tail_reads_come_from_memory() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, f, 8 * 1024).unwrap();
        // No fsync: reads must not hit the device.
        let reads_before = fs.device().stats().host_reads;
        let _ = fs.read(t, &mut cpu, &mut cache, f, 0, 8 * 1024).unwrap();
        assert_eq!(fs.device().stats().host_reads, reads_before);
    }

    #[test]
    fn journal_writes_accumulate() {
        let (mut fs, mut cpu, _c) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let _done = fs.fsync(t, &mut cpu, f).unwrap();
        assert!(fs.stats().journal_writes >= 2);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
    use kvssd_flash::{FlashTiming, Geometry};

    fn fixture() -> (ExtFs, HostCpu, PageCache) {
        let dev = BlockSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            BlockFtlConfig::pm983_like(),
        );
        (
            ExtFs::format(dev),
            HostCpu::new(4),
            PageCache::new(64 * PAGE_BYTES),
        )
    }

    #[test]
    fn multi_extent_files_resolve_every_offset() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (mut t, f) = fs.create(SimTime::ZERO, &mut cpu);
        // Force multiple extents by interleaving with another file's
        // allocations.
        let (t2, other) = fs.create(t, &mut cpu);
        t = t2;
        for _ in 0..6 {
            t = fs.append(t, &mut cpu, &mut cache, f, 24 * 1024).unwrap();
            t = fs.fsync(t, &mut cpu, f).unwrap();
            t = fs.append_direct(t, &mut cpu, other, 16 * 1024).unwrap();
        }
        let size = fs.size_of(f).unwrap();
        assert_eq!(size, 6 * 24 * 1024);
        // Every page of the file reads back without panicking.
        for off in (0..size).step_by(4096) {
            t = fs
                .read(t, &mut cpu, &mut cache, f, off, 4096.min(size - off))
                .unwrap();
        }
    }

    #[test]
    fn volume_exhaustion_reports_no_space() {
        let (mut fs, mut cpu, _cache) = fixture();
        let (t, f) = fs.create(SimTime::ZERO, &mut cpu);
        let cap = fs.capacity_bytes();
        // Direct-append beyond the volume: must error, not panic.
        let mut t = t;
        let mut failed = false;
        for _ in 0..=(cap / (1 << 20)) + 1 {
            match fs.append_direct(t, &mut cpu, f, 1 << 20) {
                Ok(t2) => t = t2,
                Err(FsError::NoSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(failed, "filling past capacity must report NoSpace");
    }

    #[test]
    fn delete_then_recreate_reuses_ids_distinctly() {
        let (mut fs, mut cpu, mut cache) = fixture();
        let (t, a) = fs.create(SimTime::ZERO, &mut cpu);
        let t = fs.append(t, &mut cpu, &mut cache, a, 4096).unwrap();
        let t = fs.delete(t, &mut cpu, &mut cache, a).unwrap();
        let (_, b) = fs.create(t, &mut cpu);
        assert_ne!(a, b, "file ids are never recycled");
        assert!(matches!(fs.size_of(a), Err(FsError::NoSuchFile(_))));
        assert_eq!(fs.size_of(b).unwrap(), 0);
    }
}
