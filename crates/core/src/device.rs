//! The KV-SSD device: NVMe KV command set + KV-FTL over shared NAND.
//!
//! Orchestrates the pieces: link ingestion, index-manager key handling,
//! the exact global index plus its timing model, byte-aligned log packing
//! with the 1 KiB allocation rule, page-aligned splitting for oversized
//! values and the volatile write buffer. Block accounting lives in
//! `blocks.rs`, garbage collection in `gc` and program-failure
//! re-placement in `failure`. Behavior (what is stored where) is exact;
//! time falls out of the shared resource timelines.

use std::collections::VecDeque;

use kvssd_flash::{
    BlockId, BlockState, FlashDevice, FlashTiming, Geometry, PageAddr, ReadCache, WriteBuffer,
};
use kvssd_nvme::{NvmeConfig, NvmeLink};
use kvssd_sim::{Resource, SimDuration, SimTime};

use crate::blob::BlobLayout;
use crate::blocks::BlockTable;
use crate::bloom::BloomFilter;
use crate::config::{
    key_handling_cost, KvConfig, COST_INDEX_DRAM, COST_OFFSET_MGMT, COST_PACK, GC_COPIES_PER_STORE,
    INDEX_MANAGERS, KEY_MAX, KEY_MIN, LOCAL_INDEX_ENTRIES, OVERPROVISION_PCT, VALUE_MAX,
};
use crate::error::KvError;
use crate::hash::KeyId;
use crate::index::{GlobalStore, IndexEntry, IndexTiming, IterBuckets, SegList, SegLoc};
use crate::value::Payload;

mod failure;
mod gc;

/// Keys returned by one iterator batch.
pub type IterBatch = Vec<Box<[u8]>>;

/// Result of a retrieve: when it completed and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// Host-visible completion time.
    pub at: SimTime,
    /// The value, or `None` for not-found (a routine, timed outcome).
    pub value: Option<Payload>,
}

kvssd_sim::counters! {
    /// Space accounting snapshot (drives Fig. 7).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct SpaceReport {
        /// Bytes of user data stored (keys + values of live pairs).
        pub user_bytes: u64,
        /// Bytes allocated on media for those pairs (incl. padding).
        pub allocated_bytes: u64,
        /// Usable data capacity in bytes.
        pub capacity_bytes: u64,
        /// Live KVP count.
        pub kvp_count: u64,
        /// The device KVP limit.
        pub max_kvps: u64,
        /// Page-tail bytes currently trapped as internal fragmentation
        /// (reclaimed when GC erases the owning blocks).
        pub waste_bytes: u64,
    }
}

impl SpaceReport {
    /// Space amplification: allocated / user bytes.
    pub fn amplification(&self) -> f64 {
        self.allocated_bytes as f64 / self.user_bytes.max(1) as f64
    }
}

kvssd_sim::counters! {
    /// Device counters.
    #[derive(Debug, Clone, Default)]
    pub struct KvSsdStats {
        /// Store commands completed.
        pub stores: u64,
        /// Retrieve commands completed.
        pub retrieves: u64,
        /// Delete commands completed.
        pub deletes: u64,
        /// Exist commands completed.
        pub exists: u64,
        /// Lookups answered not-found.
        pub not_found: u64,
        /// Negative lookups short-circuited by a Bloom filter.
        pub bloom_negatives: u64,
        /// Stores whose blob split into multiple segments.
        pub split_stores: u64,
        /// Blobs written through (larger than the volatile buffer's half).
        pub write_through: u64,
        /// Segments copied by GC.
        pub gc_copied_segments: u64,
        /// Blocks erased by GC.
        pub gc_erases: u64,
        /// Foreground GC episodes that ran at least one reclaim round.
        pub foreground_gc_events: u64,
        /// Total time writes spent stalled: on buffer space, and on the
        /// foreground GC a store runs at the hard watermark.
        pub stall_time: SimDuration,
        /// Reads served from the volatile write buffer.
        pub write_buffer_hits: u64,
        /// Segments re-placed after injected program failures.
        pub replaced_after_failure: u64,
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingSeg {
    key: KeyId,
    alloc: u32,
}

#[derive(Debug)]
struct OpenPage {
    block: BlockId,
    page: u32,
    used: u32,
    first_arrival: SimTime,
}

/// The two append streams: host data, and GC's relocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    Data,
    Gc,
}

#[derive(Debug, Default)]
struct AppendStream {
    active: VecDeque<BlockId>,
    open: Option<OpenPage>,
    /// Segments appended to `open` and not yet programmed. Owned by the
    /// stream, not the page, so one buffer serves every page the stream
    /// ever opens: emptied when the page is programmed or abandoned,
    /// never dropped. Non-empty only while `open` is `Some`.
    pending: Vec<PendingSeg>,
}

/// A keyed command past the first half of its prologue: the key's
/// identity, the link commands it takes, and its index manager.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    id: KeyId,
    cmds: u64,
    len: usize,
    m: usize,
}

/// The simulated KV-firmware SSD (see crate docs).
#[derive(Debug)]
pub struct KvSsd {
    config: KvConfig,
    flash: FlashDevice,
    link: NvmeLink,
    managers: Vec<Resource>,
    local_batches: Vec<Vec<u64>>,
    blooms: Vec<BloomFilter>,
    index: GlobalStore,
    itiming: IndexTiming,
    iters: IterBuckets,
    blocks: BlockTable,
    /// Indexed by [`StreamKind`].
    streams: [AppendStream; 2],
    buffer: WriteBuffer<KeyId>,
    /// Repeated reads of co-packed blobs skip tR, which is what keeps
    /// sequential reads of co-located KVPs from hammering one die.
    read_cache: ReadCache,
    /// How far down the GC victim's refs their index slots have been
    /// prefetched (reset to the list's length at selection).
    gc_prefetched: usize,
    /// Whether the most recent store replaced an existing key (vs
    /// inserting a fresh one). Host layers that mirror the device's key
    /// set (the cluster's per-shard registry) read this to skip their
    /// own containment probe.
    last_store_was_update: bool,
    in_gc: bool,
    compound_seq: u64,
    data_blocks: u32,
    user_bytes: u64,
    allocated_bytes: u64,
    data_capacity: u64,
    /// Reusable segment-list buffer for `retrieve`: the entry's segments
    /// are copied here (instead of cloning a fresh list per lookup) so
    /// the hot read path stays allocation-free after warmup.
    seg_scratch: Vec<SegLoc>,
    stats: KvSsdStats,
}

impl KvSsd {
    /// Creates a KV-SSD over fresh flash.
    ///
    /// # Panics
    ///
    /// If `config` does not validate, or if a segment's location would
    /// not fit its 16-bit fields: more than `u16::MAX` pages per block,
    /// or a page payload whose largest allocation passes `u16::MAX`
    /// bytes (a `page_payload_bytes` above `u16::MAX` always does).
    pub fn new(geometry: Geometry, timing: FlashTiming, config: KvConfig) -> Self {
        Self::over(FlashDevice::new(geometry, timing), config)
    }

    /// Creates a KV-SSD over an existing flash substrate (e.g. with a
    /// fault plan installed). Panics as [`Self::new`] does.
    pub fn over(mut flash: FlashDevice, config: KvConfig) -> Self {
        config.validate();
        let g = *flash.geometry();
        // A segment lies inside one page, and none is allocated more than
        // a whole page payload rounded by the allocation rule: `SegLoc`
        // keeps page, offset and sizes in 16 bits when both fit.
        assert!(
            g.pages_per_block <= u16::MAX as u32,
            "pages per block must fit a 16-bit page number"
        );
        assert!(
            BlobLayout::align(&config, config.page_payload_bytes) <= u16::MAX as u32,
            "a page payload's allocation must fit 16 bits"
        );
        let (blocks, reserved) = BlockTable::new(&mut flash, &config);
        let data_blocks = g.total_blocks() as u64 - reserved.len() as u64;
        let raw_data = data_blocks * g.pages_per_block as u64 * config.page_payload_bytes as u64;
        let data_capacity = raw_data * (100 - OVERPROVISION_PCT as u64) / 100;
        let expected_keys_per_manager = (config.max_kvps / INDEX_MANAGERS as u64).max(1024);
        KvSsd {
            managers: vec![Resource::new(); INDEX_MANAGERS],
            local_batches: vec![Vec::new(); INDEX_MANAGERS],
            blooms: (0..INDEX_MANAGERS)
                .map(|_| BloomFilter::new(expected_keys_per_manager, config.bloom_bits_per_key))
                .collect(),
            index: GlobalStore::new(),
            itiming: IndexTiming::new(config.index_dram_bytes, reserved),
            iters: IterBuckets::new(config.iterator_buckets),
            blocks,
            streams: Default::default(),
            // Programs in flight: a buffer's worth of full pages of host
            // data, with GC's programs on top. Room for twice that keeps
            // the departure queue from reallocating once the device runs.
            buffer: WriteBuffer::with_capacity(
                2 * (config.write_buffer_bytes / config.page_payload_bytes as u64) as usize,
            ),
            read_cache: ReadCache::default(),
            gc_prefetched: 0,
            last_store_was_update: false,
            in_gc: false,
            compound_seq: 0,
            data_blocks: data_blocks as u32,
            user_bytes: 0,
            allocated_bytes: 0,
            data_capacity,
            seg_scratch: Vec::new(),
            link: NvmeLink::new(NvmeConfig::pm983_like()),
            stats: KvSsdStats::default(),
            flash,
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// Device counters.
    pub fn stats(&self) -> &KvSsdStats {
        &self.stats
    }

    /// Whether the most recent [`Self::store`] replaced an existing key
    /// rather than inserting a fresh one. Lets host layers that mirror
    /// the device's key set skip their own containment probe.
    pub fn last_store_was_update(&self) -> bool {
        self.last_store_was_update
    }

    /// Index cost-model counters.
    pub fn index_stats(&self) -> &crate::index::IndexTimingStats {
        self.itiming.stats()
    }

    /// The underlying flash (for utilization reporting).
    pub fn flash(&self) -> &FlashDevice {
        &self.flash
    }

    /// Space accounting snapshot.
    pub fn space(&self) -> SpaceReport {
        SpaceReport {
            user_bytes: self.user_bytes,
            allocated_bytes: self.allocated_bytes,
            capacity_bytes: self.data_capacity,
            kvp_count: self.index.len(),
            max_kvps: self.config.max_kvps,
            waste_bytes: self.blocks.waste_bytes(),
        }
    }

    /// Live KVP count.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// True when the device holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Free (erased) data blocks currently available.
    pub fn free_blocks(&self) -> u32 {
        self.blocks.pool.free_blocks()
    }

    /// Stores a key-value pair; returns the host-visible completion time.
    ///
    /// An error leaves the key with its old value or with none, never a
    /// torn one: the capacity check up front keeps the old version; a
    /// placement that fails after the old version was invalidated (out
    /// of pages, or an internal error) rolls the new segments back.
    pub fn store(&mut self, now: SimTime, key: &[u8], value: Payload) -> Result<SimTime, KvError> {
        self.store_id(now, key, KeyId::of(key), value)
    }

    /// [`Self::store`] for a caller that already holds the key's id:
    /// `id` must be `KeyId::of(key)` (debug builds check it).
    pub fn store_id(
        &mut self,
        now: SimTime,
        key: &[u8],
        id: KeyId,
        value: Payload,
    ) -> Result<SimTime, KvError> {
        let mut k = self.keyed(key, id)?;
        let vlen = value.len();
        if vlen > VALUE_MAX {
            return Err(KvError::ValueTooLarge {
                len: vlen,
                max: VALUE_MAX,
            });
        }
        let KeyId { hash: h, fp } = k.id;
        let layout = BlobLayout::plan(&self.config, key.len(), vlen);
        // One probe answers both "does it exist" and "how much does the
        // old version hold" (GC may relocate the old segments below, but
        // relocation preserves per-segment allocation).
        let prior_alloc = self.index.get(h, fp).map(IndexEntry::allocated_bytes);
        if prior_alloc.is_none() && self.index.len() >= self.config.max_kvps {
            return Err(KvError::IndexFull {
                max_kvps: self.config.max_kvps,
            });
        }
        let old_alloc = prior_alloc.unwrap_or(0);
        let projected = |d: &Self| {
            d.allocated_bytes - old_alloc + layout.allocated_bytes() + d.blocks.waste_bytes()
        };
        if projected(self) > self.data_capacity {
            // Much of the projection may be reclaimable page-tail waste;
            // give the collector one synchronous chance before failing.
            // The die pays for the reclaim; the store starts at `now`.
            let _reclaim_end = self.foreground_gc(now)?;
            if projected(self) > self.data_capacity {
                return Err(KvError::DeviceFull);
            }
        }

        // 1. NVMe ingestion: capsule(s) + payload over the link. With
        // compound commands (a batch above 1), only every batch-th store
        // carries a capsule; the rest ride inside it.
        let batch = self.config.command_set.compound_batch as u64;
        if batch > 1 {
            self.compound_seq += 1;
            if self.compound_seq % batch != 1 {
                k.cmds = 0;
            }
        }
        // 2. Key handling on this key's index manager.
        let mut handling = COST_INDEX_DRAM + COST_PACK;
        if layout.is_split() {
            handling += COST_OFFSET_MGMT * (layout.segments() as u64 - 1);
            self.stats.split_stores += 1;
        }
        let mut t = self.submit(now, &k, (key.len() as u64 + vlen).max(1), handling);

        // 3. Buffer admission (may stall under pressure). Blobs beyond
        // half the buffer are written through instead: their completion
        // waits for the programs rather than for buffer space.
        let total_alloc = layout.allocated_bytes();
        let write_through = total_alloc > self.config.write_buffer_bytes / 2;
        if write_through {
            self.stats.write_through += 1;
        } else {
            t = self.wait_for_buffer_space(t, total_alloc)?;
        }

        // 3.5 Hard watermark: reclaim space synchronously before placing.
        // The one reclaim a store waits for, so the one booked as a stall.
        if self.at_hard_watermark() {
            let reclaimed = self.foreground_gc(t)?;
            self.stats.stall_time += reclaimed.saturating_since(t);
            t = reclaimed;
        }

        // 4. Invalidate any previous version and commit a skeleton index
        // record up front: garbage collection may run *while* this store
        // is placing segments, and it finds live data through the index.
        let old = self.index.insert(
            h,
            fp,
            IndexEntry {
                key_len: key.len() as u8,
                payload: value,
                segs: SegList::new(),
            },
        );
        let was_update = old.is_some();
        self.last_store_was_update = was_update;
        if let Some(old) = old {
            self.invalidate_entry(&old);
        } else {
            self.iters.insert(key);
        }

        // 5. Place segments, the key resident in the buffer until their
        // programs leave it. On failure, roll back the segments already
        // placed and fail the store. The previous version is already
        // gone, as it would be on a real device that invalidates before
        // overwriting.
        if !write_through {
            self.buffer.hold(k.id);
        }
        let last_program = match self.place_segments(t, k.id, &layout) {
            Ok(done) => done,
            Err(e) => {
                if let Some(partial) = self.index.remove(h, fp) {
                    for placed in &partial.segs {
                        self.blocks
                            .dec_valid(placed.block, placed.alloc as u64, &self.flash);
                    }
                }
                self.iters.remove(key);
                return Err(e);
            }
        };
        if write_through {
            t = t.max(last_program);
        }

        // 6. Account the committed record. The entry's byte totals equal
        // the layout's: every placed segment carries a layout allocation,
        // and GC relocation or failure re-placement preserve it.
        self.user_bytes += layout.user_bytes;
        self.allocated_bytes += layout.allocated_bytes();
        // An existing key's hash already has its bits set (bloom bits are
        // never cleared), so re-inserting on update would touch the same
        // `k` scattered cache lines to set nothing — skip it.
        if !was_update {
            self.blooms[k.m].insert(h);
        }

        // 7. Local-index batch; merge into the global index when full.
        if let Some(merged) = self.batch_for_merge(t, &k) {
            t = self.managers[k.m]
                .acquire_after(t, merged, SimDuration::ZERO)
                .end;
        }

        // 8. Background GC band. `free_pages() < soft * pages_per_block`
        // implies fewer than `soft` free blocks (open-block tails only
        // add pages), so the page condition is subsumed by the block one.
        if self.blocks.pool.free_blocks() < self.config.gc_soft_free_blocks {
            for _ in 0..GC_COPIES_PER_STORE {
                if !self.gc_copy_one(t)? {
                    break;
                }
            }
        }

        self.stats.stores += 1;
        Ok(self.link.complete(t, 0))
    }

    /// Retrieves a value by key.
    pub fn retrieve(&mut self, now: SimTime, key: &[u8]) -> Result<Lookup, KvError> {
        self.retrieve_id(now, key, KeyId::of(key))
    }

    /// [`Self::retrieve`] of a key whose id the caller holds (see
    /// [`Self::store_id`]).
    pub fn retrieve_id(&mut self, now: SimTime, key: &[u8], id: KeyId) -> Result<Lookup, KvError> {
        let k = self.keyed(key, id)?;
        let t = self.submit(now, &k, key.len() as u64, SimDuration::ZERO);
        // Payload clone is an `Arc` refcount bump (no value copy); the
        // segment list is copied into the reusable scratch buffer instead
        // of cloning a fresh list per lookup.
        let mut segs = std::mem::take(&mut self.seg_scratch);
        segs.clear();
        let entry = self.index.get(id.hash, id.fp).map(|e| {
            segs.extend_from_slice(e.segs.as_slice());
            e.payload.clone()
        });
        let walked = self.walk_index(t, &k, entry.is_some());
        let read = match (walked, entry) {
            (Some(t), Some(value)) => self
                .read_segments(t, k.id, &segs)
                .map(|t| (t, value.len(), Some(value))),
            (walked, _) => {
                self.stats.not_found += 1;
                Ok((walked.unwrap_or(t), 0, None))
            }
        };
        self.seg_scratch = segs;
        let (t, vlen, value) = read?;
        self.stats.retrieves += 1;
        Ok(Lookup {
            at: self.link.complete(t, vlen),
            value,
        })
    }

    /// Membership check; returns (completion, exists).
    pub fn exist(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        let id = KeyId::of(key);
        let k = self.keyed(key, id)?;
        let t = self.submit(now, &k, key.len() as u64, SimDuration::ZERO);
        self.stats.exists += 1;
        let found = self.index.get(id.hash, id.fp).is_some();
        let t = self.walk_index(t, &k, found).unwrap_or(t);
        Ok((self.link.complete(t, 0), found))
    }

    /// Deletes a key; returns (completion, existed).
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        self.delete_id(now, key, KeyId::of(key))
    }

    /// [`Self::delete`] of a key whose id the caller holds (see
    /// [`Self::store_id`]).
    pub fn delete_id(
        &mut self,
        now: SimTime,
        key: &[u8],
        id: KeyId,
    ) -> Result<(SimTime, bool), KvError> {
        let k = self.keyed(key, id)?;
        let t = self.submit(now, &k, key.len() as u64, COST_INDEX_DRAM);
        let mut t = self
            .itiming
            .lookup(t, id.hash, self.index.len(), &mut self.flash);
        let existed = match self.index.remove(id.hash, id.fp) {
            Some(entry) => {
                self.invalidate_entry(&entry);
                self.iters.remove(key);
                // Deletes also dirty the index; count them in a batch.
                t = self.batch_for_merge(t, &k).unwrap_or(t);
                true
            }
            None => {
                self.stats.not_found += 1;
                false
            }
        };
        self.stats.deletes += 1;
        Ok((self.link.complete(t, 0), existed))
    }

    /// Opens an iterator over a 4-byte key prefix.
    pub fn iter_open(&mut self, now: SimTime, prefix: [u8; 4]) -> (SimTime, u64) {
        let t = self.link.submit(now, 1, 4);
        let handle = self.iters.open(prefix);
        (
            self.link.complete(t + SimDuration::from_micros(5), 0),
            handle,
        )
    }

    /// Fetches up to `n` keys from an open iterator.
    pub fn iter_next(
        &mut self,
        now: SimTime,
        handle: u64,
        n: usize,
    ) -> Result<(SimTime, IterBatch), KvError> {
        let t = self.link.submit(now, 1, 0);
        let keys = self.iters.next(handle, n).ok_or(KvError::BadIterator)?;
        // Iterator buckets are scanned from flash in page-sized chunks.
        let pages = keys.len().div_ceil(100).max(1) as u64;
        let mut done = t;
        for i in 0..pages {
            done = done.max(self.itiming.lookup(
                t,
                kvssd_sim::rng::mix64(handle ^ i),
                self.index.len(),
                &mut self.flash,
            ));
        }
        let bytes: u64 = keys.iter().map(|k| k.len() as u64).sum();
        Ok((self.link.complete(done, bytes), keys))
    }

    /// Closes an iterator.
    pub fn iter_close(&mut self, now: SimTime, handle: u64) -> Result<SimTime, KvError> {
        let t = self.link.submit(now, 1, 0);
        if self.iters.close(handle) {
            Ok(self.link.complete(t, 0))
        } else {
            Err(KvError::BadIterator)
        }
    }

    /// Power-cycles the device: flushes the capacitor-backed volatile
    /// buffer (enterprise power-loss protection — no acknowledged write
    /// is lost), drops volatile caches, and pays the mount-time cost of
    /// re-reading the flash-resident index levels. Returns when the
    /// device is ready again.
    pub fn power_cycle(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        // Capacitor flush of in-flight pages.
        let mut t = self.flush(now)?;
        // Volatile state is gone.
        self.read_cache.clear();
        self.buffer.clear();
        // Mount: walk the flash-resident index levels back into DRAM.
        let entries = self.index.len();
        let resident = self.itiming.resident_fraction(entries);
        if resident < 1.0 {
            let flash_bytes = (self.itiming.index_bytes(entries) as f64 * (1.0 - resident)) as u64;
            let pages = flash_bytes.div_ceil(self.flash.geometry().page_bytes as u64);
            // Mount reads stream across the reserved region; charge an
            // aggregate sequential read (channel-limited).
            let per_page = self
                .flash
                .timing()
                .read_pipeline_time(self.flash.geometry().page_bytes as u64);
            let channels = self.flash.geometry().channels as u64;
            t += SimDuration::from_nanos(per_page.as_nanos() * pages / channels.max(1));
        }
        Ok(t)
    }

    /// Physical segment locations of a live key — diagnostics and
    /// invariant-testing hook (real firmware exposes the same through
    /// vendor log pages). Borrowed straight from the index entry; clone
    /// the slice if the locations must outlive further device calls.
    pub fn segments_of(&self, key: &[u8]) -> Option<&[SegLoc]> {
        let id = KeyId::of(key);
        self.index.get(id.hash, id.fp).map(|e| e.segs.as_slice())
    }

    /// Hints that a command for `key`, whose id the caller holds as
    /// `id`, is coming: starts loading the key's index slot into the CPU
    /// cache so the command's index probe finds it there. Changes no
    /// state, no result and no virtual time.
    pub fn prefetch_id(&self, key: &[u8], id: KeyId) {
        debug_assert!(id.is_of(key), "prefetch_id: id is not KeyId::of(key)");
        self.index.prefetch(id.hash);
    }

    /// Programs all partially filled open pages (end-of-phase barrier),
    /// again while a failed program's re-placed segments are pending.
    pub fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        let mut end = now;
        loop {
            for kind in [StreamKind::Data, StreamKind::Gc] {
                if let Some(done) = self.program_open_page(now, kind)? {
                    end = end.max(done);
                }
            }
            if self.streams.iter().all(|s| s.pending.is_empty()) {
                return Ok(end);
            }
        }
    }

    // ----- internals -------------------------------------------------

    /// The first half of every keyed command's prologue: check the key
    /// and the id handed in with it, count its link commands and pick
    /// its index manager. Nothing is charged yet, so a store can still refuse.
    /// This, [`Self::submit`], [`Self::place_segments`] and
    /// [`Self::program`] are forced inline: called out of line they cost
    /// `kv_update_gc` 3–6 % of its host throughput (EXPERIMENTS.md, "The
    /// KV-FTL split").
    #[inline(always)]
    fn keyed(&self, key: &[u8], id: KeyId) -> Result<Keyed, KvError> {
        let len = key.len();
        if len < KEY_MIN {
            return Err(KvError::KeyTooShort { len, min: KEY_MIN });
        }
        if len > KEY_MAX {
            return Err(KvError::KeyTooLong { len, max: KEY_MAX });
        }
        debug_assert!(id.is_of(key), "the id handed in is not KeyId::of(key)");
        Ok(Keyed {
            id,
            cmds: self.config.command_set.commands_for_key(len),
            len,
            m: (id.hash % INDEX_MANAGERS as u64) as usize,
        })
    }

    /// The second half: the command's capsules carry `bytes` over the
    /// link, then its manager runs key handling plus `extra`. Returns
    /// when the manager is done.
    #[inline(always)]
    fn submit(&mut self, now: SimTime, k: &Keyed, bytes: u64, extra: SimDuration) -> SimTime {
        let t = self.link.submit(now, k.cmds, bytes);
        let handling = key_handling_cost(k.len) + extra;
        self.managers[k.m].acquire(t, handling).end
    }

    /// A lookup's index walk on its manager, unless the manager's Bloom
    /// filter rules the key out (`None`). The modelled firmware asks the
    /// filter first; the host asks the exact index first (`indexed`) and
    /// reads the filter's `k` scattered cache lines only on a miss: a
    /// stored key was inserted into its manager's filter and bits are
    /// never cleared, so an index hit implies a Bloom positive.
    fn walk_index(&mut self, t: SimTime, k: &Keyed, indexed: bool) -> Option<SimTime> {
        let bloom = &self.blooms[k.m];
        debug_assert!(
            !indexed || bloom.may_contain(k.id.hash),
            "an indexed key must be in its manager's Bloom filter"
        );
        if !indexed && self.config.bloom_enabled && !bloom.may_contain(k.id.hash) {
            self.stats.bloom_negatives += 1;
            return None;
        }
        let t = self.managers[k.m].acquire(t, COST_INDEX_DRAM).end;
        Some(
            self.itiming
                .lookup(t, k.id.hash, self.index.len(), &mut self.flash),
        )
    }

    /// Adds the key to its manager's local index batch; when the batch
    /// is full it merges into the global index, and this returns when the
    /// merge finished.
    fn batch_for_merge(&mut self, t: SimTime, k: &Keyed) -> Option<SimTime> {
        let batch = &mut self.local_batches[k.m];
        batch.push(k.id.hash);
        if batch.len() < LOCAL_INDEX_ENTRIES {
            return None;
        }
        let merged = self
            .itiming
            .merge(t, batch, self.index.len(), &mut self.flash);
        batch.clear();
        Some(merged)
    }

    fn invalidate_entry(&mut self, entry: &IndexEntry) {
        for seg in &entry.segs {
            self.blocks
                .dec_valid(seg.block, seg.alloc as u64, &self.flash);
        }
        self.user_bytes -= entry.user_bytes();
        self.allocated_bytes -= entry.allocated_bytes();
    }

    /// Places every segment of a blob, publishing each location in the
    /// key's index entry as it lands (GC may even relocate a just-placed
    /// segment; it updates the entry). Returns the latest program a
    /// placement caused; `DeviceFull` when the device ran out of pages.
    #[inline(always)]
    fn place_segments(
        &mut self,
        t: SimTime,
        key: KeyId,
        layout: &BlobLayout,
    ) -> Result<SimTime, KvError> {
        let mut last_program = t;
        let segs = layout.segment_alloc.iter().zip(&layout.segment_raw);
        for (seg_no, (&alloc, &raw)) in (0..).zip(segs) {
            let (loc, programmed) = self
                .append_segment_retry(t, key, seg_no, alloc, raw, layout.is_split())?
                .ok_or(KvError::DeviceFull)?;
            if let Some(done) = programmed {
                last_program = last_program.max(done);
            }
            self.index
                .get_mut(key.hash, key.fp)
                .ok_or(KvError::Internal {
                    what: "skeleton index entry committed before placement",
                })?
                .segs
                .push(loc);
        }
        Ok(last_program)
    }

    /// Waits until `bytes` of buffer space are available, returning the
    /// (possibly stalled) time. The space itself is claimed as segments
    /// are appended.
    fn wait_for_buffer_space(&mut self, now: SimTime, bytes: u64) -> Result<SimTime, KvError> {
        let mut t = now;
        self.buffer.drain(t);
        while self.buffer.used() + bytes > self.config.write_buffer_bytes {
            match self.buffer.pop() {
                Some((leave, _)) => {
                    if leave > t {
                        self.stats.stall_time += leave.since(t);
                        t = leave;
                    }
                }
                None => {
                    // Everything unprogrammed: force the open page out.
                    // Programming queues its departures; loop.
                    if self.program_open_page(t, StreamKind::Data)?.is_none() {
                        break; // nothing buffered at all
                    }
                }
            }
        }
        Ok(t)
    }

    /// Appends one segment to a stream; returns its location and, when a
    /// page was programmed as a side effect, that program's completion.
    /// `Ok(None)` means the device is physically out of space.
    fn append_segment(
        &mut self,
        now: SimTime,
        key: KeyId,
        seg_no: u32,
        alloc: u32,
        raw: u32,
        dedicated: bool,
    ) -> Result<Option<(SegLoc, Option<SimTime>)>, KvError> {
        let kind = if self.in_gc {
            StreamKind::Gc
        } else {
            StreamKind::Data
        };
        if dedicated {
            // Page-aligned segment: a whole page to itself (the firmware
            // keeps split-blob offsets page-aligned).
            let ppb = self.flash.geometry().pages_per_block;
            let block = loop {
                let Some(block) = self.pick_block(now, kind)? else {
                    return Ok(None);
                };
                // The stream's open page owns its block's next program
                // slot; flush it before programming anything else there.
                // That program may fill the block or fail and retire it,
                // either of which takes the block off the stream.
                let stream = &self.streams[kind as usize];
                if stream.open.as_ref().is_some_and(|p| p.block == block) {
                    self.program_open_page(now, kind)?;
                }
                if self.flash.written_pages(block) < ppb
                    && self.blocks.pool.state(block) != Some(BlockState::Dead)
                {
                    break block;
                }
            };
            let page = OpenPage {
                block,
                page: self.flash.written_pages(block),
                used: alloc,
                first_arrival: now,
            };
            // Lossless: `over` bounds pages per block and allocations.
            let loc = SegLoc {
                block,
                page: page.page as u16,
                offset: 0,
                alloc: alloc as u16,
                raw: raw as u16,
            };
            self.blocks.append(block, key.hash, seg_no, alloc)?;
            self.buffer.admit(alloc as u64);
            let done = self.program(now, kind, page, Some(PendingSeg { key, alloc }))?;
            return Ok(Some((loc, Some(done))));
        }
        // Shared open page: byte-aligned log append.
        let payload = self.config.page_payload_bytes;
        let mut programmed = None;
        loop {
            let s = &self.streams[kind as usize];
            let needs_new_page = match s.open.as_ref() {
                Some(p) => p.used + alloc > payload,
                None => true,
            };
            // Only host data is timeout-flushed (durability expectation);
            // the GC stream is bursty and must keep filling its page
            // across episodes or it litters the array with near-empty
            // pages.
            let timed_out = kind == StreamKind::Data
                && !s.pending.is_empty()
                && s.open.as_ref().is_some_and(|p| {
                    now.saturating_since(p.first_arrival) >= self.config.partial_flush_timeout
                });
            if !(needs_new_page || timed_out) {
                break;
            }
            programmed = programmed.max(self.program_open_page(now, kind)?);
            // A failed program re-places that page's segments through
            // this stream, which then has a fresh page with segments
            // pending on it: append there (re-checking the fit).
            if self.streams[kind as usize].open.is_some() {
                continue;
            }
            let Some(block) = self.pick_block(now, kind)? else {
                return Ok(None);
            };
            let page = self.flash.written_pages(block);
            self.streams[kind as usize].open = Some(OpenPage {
                block,
                page,
                used: 0,
                first_arrival: now,
            });
            break;
        }
        let alloc_unit = self.config.alloc_unit;
        let stream = &mut self.streams[kind as usize];
        let open = stream.open.as_mut().ok_or(KvError::Internal {
            what: "stream open page installed before the append",
        })?;
        // Lossless: `over` bounds pages per block and allocations, and
        // the segment ends inside the page payload.
        let loc = SegLoc {
            block: open.block,
            page: open.page as u16,
            offset: open.used as u16,
            alloc: alloc as u16,
            raw: raw as u16,
        };
        open.used += alloc;
        stream.pending.push(PendingSeg { key, alloc });
        let full = open.used + alloc_unit > payload;
        self.blocks.append(loc.block, key.hash, seg_no, alloc)?;
        self.buffer.admit(alloc as u64);
        if full {
            let done = self.program_open_page(now, kind)?;
            programmed = programmed.max(done);
        }
        Ok(Some((loc, programmed)))
    }

    /// Programs the current open page of a stream, if any.
    fn program_open_page(
        &mut self,
        now: SimTime,
        kind: StreamKind,
    ) -> Result<Option<SimTime>, KvError> {
        let stream = &mut self.streams[kind as usize];
        let Some(open) = stream.open.take() else {
            return Ok(None);
        };
        if stream.pending.is_empty() {
            // Nothing written: hand the page back by reopening lazily.
            return Ok(None);
        }
        self.program(now, kind, open, None).map(Some)
    }

    /// Programs one page of a `kind` block: the flash program, its
    /// trapped tail counted as waste, the departure of its segments from
    /// the write buffer (the `dedicated` one of a split blob's own page,
    /// else everything pending on the stream's open page), closing the
    /// block once it is full and, when the program failed, the hand-off
    /// to the failure handler. Returns the program's completion.
    #[inline(always)]
    fn program(
        &mut self,
        now: SimTime,
        kind: StreamKind,
        page: OpenPage,
        dedicated: Option<PendingSeg>,
    ) -> Result<SimTime, KvError> {
        let (block, page_no) = (page.block, page.page);
        let tail = self.config.page_payload_bytes.saturating_sub(page.used);
        self.blocks.add_waste(block, tail as u64);
        let at = PageAddr {
            block,
            page: page_no,
        };
        let page_bytes = self.flash.geometry().page_bytes as u64;
        let r = self
            .flash
            .program_page(now, at, page_bytes)
            .map_err(|_| KvError::Internal {
                what: "program rejected on a stream's own block",
            })?;
        let leaves = |s: PendingSeg| (s.alloc as u64, s.key);
        match dedicated {
            Some(seg) => self.buffer.program(r.done, [leaves(seg)]),
            None => {
                let pending = self.streams[kind as usize].pending.drain(..);
                self.buffer.program(r.done, pending.map(leaves));
            }
        }
        if self.blocks.close_if_full(block, &self.flash) {
            let active = &mut self.streams[kind as usize].active;
            active.retain(|&b| b != block);
        }
        if r.failed {
            self.handle_program_failure(r.done, block, page_no)?;
        }
        Ok(r.done)
    }

    /// Picks the next block to program for a stream (round-robin across
    /// its active set, growing the set up to a die-spread target).
    /// `Ok(None)` when the device is physically out of programmable
    /// blocks.
    fn pick_block(&mut self, now: SimTime, kind: StreamKind) -> Result<Option<BlockId>, KvError> {
        let g = *self.flash.geometry();
        let die_planes = (g.dies() * g.planes_per_die) as usize;
        // One open block per die-plane where the block budget allows:
        // hash-scattered appends stripe across the whole array, which is
        // what gives the KV side its parallelism at high queue depth.
        // Tiny test geometries cap the open set so GC still has victims.
        let budget = (self.data_blocks as usize / 4).max(1);
        let target = match kind {
            StreamKind::Data => die_planes.min(budget),
            StreamKind::Gc => die_planes
                .min(8)
                .min((self.data_blocks as usize / 8).max(1)),
        };
        if self.streams[kind as usize].active.len() < target {
            if let Some(b) = self.alloc_block(now)? {
                self.streams[kind as usize].active.push_back(b);
            }
        }
        let active = &mut self.streams[kind as usize].active;
        let Some(b) = active.pop_front() else {
            return Ok(None);
        };
        active.push_back(b);
        Ok(Some(b))
    }

    /// Opens a free block, running foreground GC first when the hard
    /// watermark is hit. Returns `Ok(None)` only when truly exhausted
    /// (the caller fails the store as device-full — capacity checks
    /// should prevent this).
    fn alloc_block(&mut self, now: SimTime) -> Result<Option<BlockId>, KvError> {
        let hard = self.config.gc_hard_free_blocks;
        if !self.in_gc && (self.blocks.pool.free_blocks() <= hard || self.at_hard_watermark()) {
            // The die pays: the block's first program queues behind it.
            let _reclaim_end = self.foreground_gc(now)?;
        }
        // The last few free blocks are the collector's working space:
        // handing them to a data stream would wedge GC (nothing to copy
        // into) the moment the device fills.
        let reserve = (hard / 2).max(2);
        if !self.in_gc && self.blocks.pool.free_blocks() <= reserve {
            return Ok(None);
        }
        Ok(self.blocks.open_free())
    }

    /// Whether programmable pages are down to the hard watermark, where
    /// writes wait for foreground GC (the Fig. 6 stall). `free_pages()`
    /// is at least `free_blocks() * pages_per_block` (open-block tails
    /// only add), so the page walk is skipped while whole free blocks
    /// alone clear the watermark.
    fn at_hard_watermark(&self) -> bool {
        self.blocks.pool.free_blocks() as u64 <= self.config.gc_hard_free_blocks as u64 + 1
            && self.free_pages() <= self.hard_watermark_pages()
    }

    /// Physically programmable pages remaining: free blocks plus the
    /// unwritten tails of open blocks. GC progress is measured in these.
    fn free_pages(&self) -> u64 {
        let ppb = self.flash.geometry().pages_per_block as u64;
        let active = self.streams.iter().flat_map(|s| &s.active);
        let tails: u64 = active
            .map(|&b| ppb - self.flash.written_pages(b) as u64)
            .sum();
        self.blocks.pool.free_blocks() as u64 * ppb + tails
    }

    /// Pages below which the device is considered at its hard watermark.
    fn hard_watermark_pages(&self) -> u64 {
        (self.config.gc_hard_free_blocks as u64 + 1) * self.flash.geometry().pages_per_block as u64
    }

    /// Reads a blob's segments: the head first (it holds the offset
    /// table), continuations in parallel after it.
    fn read_segments(
        &mut self,
        t: SimTime,
        key: KeyId,
        segs: &[SegLoc],
    ) -> Result<SimTime, KvError> {
        self.buffer.drain(t);
        // A blob is served from the volatile buffer when it is tracked as
        // resident, or — mechanically — when any of its segments has not
        // reached flash yet (pending in an open page).
        let unprogrammed = segs
            .iter()
            .any(|s| self.flash.written_pages(s.block) <= s.page.into());
        if unprogrammed || self.buffer.is_resident(key) {
            self.stats.write_buffer_hits += 1;
            return Ok(t + SimDuration::from_micros(1));
        }
        let Some((&head, rest)) = segs.split_first() else {
            return Err(KvError::Internal {
                what: "indexed key holds no segments",
            });
        };
        let t_head = self.read_cached(t, head)?;
        let mut finish = t_head;
        for seg in rest {
            finish = finish.max(self.read_cached(t_head, *seg)?);
        }
        Ok(finish)
    }

    /// Reads one segment through the controller's read cache.
    fn read_cached(&mut self, t: SimTime, seg: SegLoc) -> Result<SimTime, KvError> {
        let page = PageAddr {
            block: seg.block,
            page: seg.page.into(),
        };
        let read = self
            .read_cache
            .read(&mut self.flash, t, page, seg.raw as u64)
            .map_err(|_| KvError::Internal {
                what: "read rejected on an indexed live segment",
            })?;
        Ok(read.unwrap_or(t + SimDuration::from_micros(2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn dev() -> KvSsd {
        KvSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            KvConfig::small(),
        )
    }

    pub(super) fn key(i: u64) -> Vec<u8> {
        format!("key{i:013}").into_bytes() // 16 B keys
    }

    #[test]
    fn store_then_retrieve_round_trips() {
        let mut d = dev();
        let t = d
            .store(
                SimTime::ZERO,
                b"hello-key",
                Payload::from_bytes(vec![7; 100]),
            )
            .unwrap();
        let got = d.retrieve(t, b"hello-key").unwrap();
        assert_eq!(got.value.unwrap().as_bytes().unwrap(), &[7u8; 100][..]);
        assert!(got.at > t);
    }

    #[test]
    fn missing_key_is_not_found_not_error() {
        let mut d = dev();
        let got = d.retrieve(SimTime::ZERO, b"never-stored").unwrap();
        assert!(got.value.is_none());
        assert_eq!(d.stats().not_found, 1);
        assert_eq!(d.stats().bloom_negatives, 1, "bloom should short-circuit");
    }

    #[test]
    fn key_and_value_limits_enforced() {
        let mut d = dev();
        assert!(matches!(
            d.store(SimTime::ZERO, b"abc", Payload::synthetic(1, 0)),
            Err(KvError::KeyTooShort { .. })
        ));
        let long = vec![b'x'; 256];
        assert!(matches!(
            d.store(SimTime::ZERO, &long, Payload::synthetic(1, 0)),
            Err(KvError::KeyTooLong { .. })
        ));
        assert!(matches!(
            d.store(
                SimTime::ZERO,
                b"okkey",
                Payload::synthetic(3 * 1024 * 1024, 0)
            ),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn zero_length_value_is_legal() {
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"empty-val", Payload::from_bytes(vec![]))
            .unwrap();
        let got = d.retrieve(t, b"empty-val").unwrap();
        assert_eq!(got.value.unwrap().len(), 0);
    }

    #[test]
    fn overwrite_replaces_and_keeps_count() {
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"kkkk1", Payload::from_bytes(vec![1]))
            .unwrap();
        let t = d
            .store(t, b"kkkk1", Payload::from_bytes(vec![2, 2]))
            .unwrap();
        assert_eq!(d.len(), 1);
        let got = d.retrieve(t, b"kkkk1").unwrap();
        assert_eq!(got.value.unwrap().len(), 2);
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"gone1", Payload::from_bytes(vec![9]))
            .unwrap();
        let (t, existed) = d.delete(t, b"gone1").unwrap();
        assert!(existed);
        let (_, exists) = d.exist(t, b"gone1").unwrap();
        assert!(!exists);
        let (_, existed_again) = d.delete(t, b"gone1").unwrap();
        assert!(!existed_again);
        assert_eq!(d.len(), 0);
        assert_eq!(d.space().user_bytes, 0);
    }

    #[test]
    fn exist_answers_both_ways() {
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"here1", Payload::synthetic(10, 0))
            .unwrap();
        assert!(d.exist(t, b"here1").unwrap().1);
        assert!(!d.exist(t, b"there").unwrap().1);
    }

    #[test]
    fn space_accounting_tracks_padding() {
        let mut d = dev();
        let _done = d
            .store(
                SimTime::ZERO,
                b"tiny-key-0000000",
                Payload::synthetic(50, 0),
            )
            .unwrap();
        let s = d.space();
        assert_eq!(s.user_bytes, 16 + 50);
        assert_eq!(s.allocated_bytes, 1024);
        assert!(s.amplification() > 15.0);
        assert_eq!(s.kvp_count, 1);
    }

    #[test]
    fn split_blob_stores_and_reads_back() {
        let mut d = dev();
        let big = Payload::synthetic(100 * 1024, 42);
        let t = d.store(SimTime::ZERO, b"big-blob", big.clone()).unwrap();
        assert_eq!(d.stats().split_stores, 1);
        let got = d.retrieve(t, b"big-blob").unwrap();
        assert_eq!(got.value.unwrap(), big);
    }

    #[test]
    fn split_blob_read_costs_more_than_small() {
        let mut d = dev();
        let t0 = d
            .store(SimTime::ZERO, b"small-one", Payload::synthetic(1024, 0))
            .unwrap();
        let t1 = d
            .store(t0, b"large-one", Payload::synthetic(100 * 1024, 0))
            .unwrap();
        let t1 = d.flush(t1).unwrap() + SimDuration::from_millis(10);
        d.buffer.clear();
        let small = d.retrieve(t1, b"small-one").unwrap();
        let large = d.retrieve(small.at, b"large-one").unwrap();
        assert!(large.at.since(small.at) > small.at.since(t1));
    }

    #[test]
    fn iterator_walks_prefix() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        for i in 0..10u32 {
            t = d
                .store(
                    t,
                    format!("user{i:04}").as_bytes(),
                    Payload::synthetic(8, 0),
                )
                .unwrap();
        }
        t = d.store(t, b"sess0001", Payload::synthetic(8, 0)).unwrap();
        let (t, h) = d.iter_open(t, *b"user");
        let (t, keys) = d.iter_next(t, h, 100).unwrap();
        assert_eq!(keys.len(), 10);
        let _done = d.iter_close(t, h).unwrap();
        assert!(matches!(d.iter_next(t, h, 1), Err(KvError::BadIterator)));
    }

    #[test]
    fn kvp_limit_enforced() {
        let mut cfg = KvConfig::small();
        cfg.max_kvps = 5;
        let mut d = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            t = d.store(t, &key(i), Payload::synthetic(10, 0)).unwrap();
        }
        assert!(matches!(
            d.store(t, &key(5), Payload::synthetic(10, 0)),
            Err(KvError::IndexFull { .. })
        ));
        // Overwrites are still allowed at the limit.
        let _done = d.store(t, &key(0), Payload::synthetic(10, 0)).unwrap();
    }

    #[test]
    #[should_panic(expected = "16-bit page number")]
    fn new_refuses_a_block_of_more_than_u16_max_pages() {
        let geometry = Geometry {
            pages_per_block: u16::MAX as u32 + 1,
            ..Geometry::small()
        };
        KvSsd::new(geometry, FlashTiming::pm983_like(), KvConfig::small());
    }

    #[test]
    #[should_panic(expected = "allocation must fit 16 bits")]
    fn new_refuses_a_page_payload_past_u16_max() {
        let geometry = Geometry {
            page_bytes: 128 * 1024,
            ..Geometry::small()
        };
        let config = KvConfig {
            page_payload_bytes: u16::MAX as u32 + 1,
            ..KvConfig::small()
        };
        KvSsd::new(geometry, FlashTiming::pm983_like(), config);
    }

    #[test]
    fn device_full_when_capacity_exhausted() {
        let mut d = dev();
        let cap = d.space().capacity_bytes;
        let huge = 1 << 20; // 1 MiB values
        let mut t = SimTime::ZERO;
        let mut stored = 0u64;
        for i in 0..(cap / huge + 4) {
            match d.store(t, &key(i), Payload::synthetic(huge as u32, 0)) {
                Ok(done) => {
                    t = done;
                    stored += 1;
                }
                Err(KvError::DeviceFull) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(stored > 0);
        assert!(
            d.space().allocated_bytes <= d.space().capacity_bytes,
            "accounting must respect capacity"
        );
    }

    #[test]
    fn updates_drive_gc() {
        let mut d = dev();
        let cap = d.space().capacity_bytes;
        let vsize = 4096u32;
        let n = (cap * 8 / 10) / (vsize as u64 + 64); // ~80 % fill
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = d.store(t, &key(i), Payload::synthetic(vsize, 0)).unwrap();
        }
        // Rewrite everything pseudo-randomly.
        let mut idx = 1u64;
        for _ in 0..n * 2 {
            idx = idx.wrapping_mul(6364136223846793005).wrapping_add(1) % n;
            t = d.store(t, &key(idx), Payload::synthetic(vsize, 0)).unwrap();
        }
        assert!(d.stats().gc_erases > 0, "GC must have reclaimed blocks");
        assert!(d.stats().gc_copied_segments > 0);
        assert_eq!(d.len(), n);
        // Every key still readable.
        for i in (0..n).step_by(7) {
            let got = d.retrieve(t, &key(i)).unwrap();
            assert!(got.value.is_some(), "key {i} lost after GC");
        }
    }

    #[test]
    fn sequential_and_random_store_latency_match() {
        // The Fig. 2 core claim: hashing erases sequentiality. Sequential
        // and random key orders must cost the same on the KV device.
        let run = |seq: bool| {
            let mut d = dev();
            let mut t = SimTime::ZERO;
            let n = 500u64;
            let mut total = SimDuration::ZERO;
            for i in 0..n {
                let k = if seq { i } else { (i * 2_654_435_761) % n };
                let done = d.store(t, &key(k), Payload::synthetic(512, 0)).unwrap();
                total += done.since(t);
                t = done;
            }
            total / n
        };
        let s = run(true);
        let r = run(false);
        let ratio = s.as_nanos() as f64 / r.as_nanos() as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "seq {s} vs rand {r} (ratio {ratio})"
        );
    }

    #[test]
    fn hash_collisions_keep_both_records() {
        // Force the collision path by storing through the raw maps: two
        // different keys are astronomically unlikely to collide in both
        // hashes, so verify the (hash, fp) keying directly instead.
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"key-a-01", Payload::synthetic(1, 1))
            .unwrap();
        let t = d.store(t, b"key-b-02", Payload::synthetic(2, 2)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.retrieve(t, b"key-a-01").unwrap().value.unwrap().len(), 1);
        assert_eq!(d.retrieve(t, b"key-b-02").unwrap().value.unwrap().len(), 2);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut d = dev();
        let t = d
            .store(SimTime::ZERO, b"kkkkk", Payload::synthetic(100, 0))
            .unwrap();
        let f1 = d.flush(t).unwrap();
        let f2 = d.flush(f1).unwrap();
        assert!(f1 > t);
        assert_eq!(f2, f1);
    }

    #[test]
    fn fault_injection_preserves_data() {
        use kvssd_flash::FaultPlan;
        let flash = FlashDevice::with_faults(
            Geometry::small(),
            FlashTiming::pm983_like(),
            FaultPlan {
                program_fail_one_in: Some(8),
                erase_fail_one_in: None,
            },
        );
        let mut d = KvSsd::over(flash, KvConfig::small());
        let mut t = SimTime::ZERO;
        let n = 600u64;
        for i in 0..n {
            t = d.store(t, &key(i), Payload::synthetic(2048, i)).unwrap();
        }
        t = d.flush(t).unwrap();
        assert!(d.flash().stats().program_failures > 0);
        for i in 0..n {
            let got = d.retrieve(t, &key(i)).unwrap();
            assert_eq!(
                got.value,
                Some(Payload::synthetic(2048, i)),
                "key {i} lost after program failure"
            );
        }
    }

    #[test]
    fn every_live_segment_has_a_ref_in_its_block() {
        // GC and the failure handler find live data through `refs`
        // alone, now by hash: after every op of a GC-heavy sequence
        // (mixed sizes, hot keys, deletes), each live segment of each
        // key still has its `(hash, seg_no)` ref in the block holding it,
        // closed blocks included. The first third overwrites a small
        // working set, so blocks die while the collector is idle and give
        // their chunks back to the pool; the rest spans the whole key
        // space under GC.
        use kvssd_sim::DeterministicRng;
        for seed in [11u64, 0x5EC] {
            let mut d = dev();
            let mut rng = DeterministicRng::seed_from(seed);
            let n = 400u64;
            let mut live = vec![false; n as usize];
            let mut t = SimTime::ZERO;
            let mut closed_checked = 0u64;
            for op in 0..6 * n {
                let keys = if op < 2 * n { n / 8 } else { n };
                let i = if rng.below(4) == 0 {
                    rng.below(8)
                } else {
                    rng.below(keys)
                };
                if op >= n && rng.below(6) == 0 {
                    t = d.delete(t, &key(i)).unwrap().0;
                    live[i as usize] = false;
                } else {
                    let len = rng.between(200, 9_000) as u32;
                    t = d.store(t, &key(i), Payload::synthetic(len, op)).unwrap();
                    live[i as usize] = true;
                }
                let blocks = 0..d.flash().geometry().total_blocks();
                let refs: kvssd_sim::PrehashedSet<(u32, u64, u32)> = blocks
                    .flat_map(|b| {
                        let rs = d.blocks.refs.iter(BlockId(b));
                        rs.map(move |r| (b, r.hash, r.seg_no))
                    })
                    .collect();
                for i in (0..n).filter(|&i| live[i as usize]) {
                    let h = KeyId::of(&key(i)).hash;
                    for (seg_no, s) in (0..).zip(d.segments_of(&key(i)).unwrap()) {
                        assert!(
                            refs.contains(&(s.block.0, h, seg_no)),
                            "seed {seed} op {op}: key {i} segment {seg_no} has no ref in {:?}",
                            s.block
                        );
                        closed_checked +=
                            (d.blocks.pool.state(s.block) == Some(BlockState::Closed)) as u64;
                    }
                }
            }
            assert!(d.stats().gc_copied_segments > 0 && d.stats().gc_erases > 0);
            assert!(closed_checked > 0, "seed {seed}");
        }
    }

    #[test]
    fn a_store_that_fails_mid_placement_leaves_no_key_behind() {
        // On flash that fails one program in 60, a worn device runs out
        // of pages to re-place a failed page's data mid-store. The store
        // must take its half-placed key with it: it once stayed indexed
        // with no segments, no Bloom insert and its old version gone.
        use kvssd_flash::FaultPlan;
        use kvssd_sim::DeterministicRng;
        let flash = FlashDevice::with_faults(
            Geometry::small(),
            FlashTiming::pm983_like(),
            FaultPlan {
                program_fail_one_in: Some(60),
                erase_fail_one_in: None,
            },
        );
        let mut d = KvSsd::over(flash, KvConfig::small());
        let mut rng = DeterministicRng::seed_from(0);
        let mut t = SimTime::ZERO;
        for op in 0..2_000u64 {
            let k = key(rng.below(32));
            let len = rng.between(1, 131_072) as u32;
            match d.store(t, &k, Payload::synthetic(len, op)) {
                Ok(done) => t = done,
                Err(KvError::DeviceFull) => {}
                Err(e @ KvError::Internal { .. }) => {
                    let got = d.retrieve(t, &k).unwrap();
                    assert_eq!(got.value, None, "op {op} failed with {e} yet left its key");
                    return;
                }
                Err(e) => panic!("op {op}: {e}"),
            }
        }
        panic!("no store failed mid-placement");
    }

    /// Eight hot keys updated and read among stores of 200 cold ones,
    /// through a 24 KiB write buffer, every command issued a few
    /// microseconds after the last so several are in flight (QD > 1).
    /// Stores stall on buffer space, and reads find a hot key's new
    /// version pending in an open page while its old version's program
    /// has not left the buffer. Folds every completion, the write-buffer
    /// hits and the stall time.
    fn hot_buffer_digest(seed: u64, ops: u32) -> u64 {
        use kvssd_sim::rng::mix64;
        use kvssd_sim::DeterministicRng;
        let cfg = KvConfig {
            write_buffer_bytes: 24 * 1024,
            ..KvConfig::small()
        };
        let mut d = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
        let mut rng = DeterministicRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        let mut fold = 0u64;
        for op in 0..u64::from(ops) {
            let hot = key(rng.below(8));
            let value = Payload::synthetic(rng.between(512, 6 * 1024) as u32, op);
            let done = match rng.below(8) {
                0..=2 => d.store(t, &hot, value).unwrap(),
                3 | 4 => d.retrieve(t, &hot).unwrap().at,
                _ => d.store(t, &key(8 + rng.below(200)), value).unwrap(),
            };
            fold = mix64(fold ^ done.as_nanos());
            t += SimDuration::from_micros(rng.below(30));
        }
        let s = d.stats();
        let counters = [s.write_buffer_hits, s.stall_time.as_nanos()];
        assert!(counters.iter().all(|&c| c > 0), "{counters:?}");
        counters.into_iter().fold(fold, |h, v| mix64(h ^ v))
    }

    /// `hot_buffer_digest` per seed, pinned on the KV-FTL's buffer as it
    /// stood when a store marked its key resident after placement, and
    /// only if no program had already; never re-pinned.
    const HOT_BUFFER_HISTORY: [(u64, u64); 2] =
        [(5, 0x5161_4A13_35BA_65D8), (77, 0x241A_3032_C0C0_8D80)];

    #[test]
    fn hot_buffer_matches_pinned_history() {
        for (seed, want) in HOT_BUFFER_HISTORY {
            let got = hot_buffer_digest(seed, 3_000);
            assert_eq!(got, want, "seed {seed}: {got:#X}");
        }
    }
}

#[cfg(test)]
mod power_cycle_tests {
    use super::*;

    #[test]
    fn power_cycle_preserves_every_acknowledged_write() {
        let mut d = KvSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            KvConfig::small(),
        );
        let mut t = SimTime::ZERO;
        for i in 0..300u64 {
            let key = format!("pwr.{i:08}");
            t = d
                .store(t, key.as_bytes(), Payload::synthetic(777, i))
                .unwrap();
        }
        let up = d.power_cycle(t).unwrap();
        assert!(up > t, "mount takes time");
        for i in 0..300u64 {
            let key = format!("pwr.{i:08}");
            let got = d.retrieve(up, key.as_bytes()).unwrap();
            assert_eq!(got.value, Some(Payload::synthetic(777, i)), "lost {i}");
        }
    }

    #[test]
    fn mount_cost_grows_with_flash_resident_index() {
        let mut cfg = KvConfig::small();
        cfg.index_dram_bytes = 16 * 1024; // overflow quickly
        let mut d = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
        let mut t = SimTime::ZERO;
        let t_small_mount = {
            let mut d2 = KvSsd::new(
                Geometry::small(),
                FlashTiming::pm983_like(),
                KvConfig::small(),
            );
            let t2 = d2
                .store(SimTime::ZERO, b"only-key", Payload::synthetic(8, 0))
                .unwrap();
            d2.power_cycle(t2).unwrap().since(t2)
        };
        for i in 0..2_000u64 {
            let key = format!("mnt.{i:08}");
            t = d
                .store(t, key.as_bytes(), Payload::synthetic(64, i))
                .unwrap();
        }
        let big_mount = d.power_cycle(t).unwrap().since(t);
        assert!(
            big_mount > t_small_mount,
            "overflowed index must mount slower ({big_mount} vs {t_small_mount})"
        );
    }
}

#[cfg(test)]
mod lookup_history_tests {
    use super::tests::key;
    use super::*;
    use kvssd_sim::DeterministicRng;

    /// A small device whose Bloom filters are lean enough (4 Kibit per
    /// manager, k = 2) to give real false positives at a few thousand
    /// keys, and whose index overflows its DRAM so lookups pay flash
    /// reads.
    fn lean_bloom_dev() -> KvSsd {
        let cfg = KvConfig {
            bloom_bits_per_key: 4,
            max_kvps: 4_096,
            index_dram_bytes: 16 * 1024,
            ..KvConfig::small()
        };
        KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg)
    }

    /// `(final SimTime, bloom_negatives, not_found, lookup_flash_reads)`.
    type LookupDigest = (SimTime, u64, u64, u64);

    /// Fill, overwrite, delete a third, power-cycle, then `retrieve` /
    /// `exist` over twice the key space: index hits, Bloom negatives,
    /// stale positives (deleted keys) and true false positives (keys
    /// never stored) all occur, and every answer is checked.
    fn miss_heavy_lookup_digest(seed: u64) -> LookupDigest {
        let mut d = lean_bloom_dev();
        let mut rng = DeterministicRng::seed_from(seed);
        let n = d.space().capacity_bytes * 6 / 10 / 1024;
        let mut live = vec![false; 2 * n as usize];
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let len = rng.between(16, 900) as u32;
            t = d.store(t, &key(i), Payload::synthetic(len, i)).unwrap();
            live[i as usize] = true;
        }
        for _ in 0..n / 2 {
            let i = rng.below(n);
            let len = rng.between(16, 900) as u32;
            t = d.store(t, &key(i), Payload::synthetic(len, i)).unwrap();
        }
        for i in 0..n {
            if rng.below(3) == 0 {
                let (done, existed) = d.delete(t, &key(i)).unwrap();
                assert!(existed, "key {i} was live");
                t = done;
                live[i as usize] = false;
            }
        }
        t = d.power_cycle(t).unwrap();
        let (mut hits, mut false_positives) = (0u64, 0u64);
        for _ in 0..4 * n {
            let i = rng.below(2 * n);
            let negatives_before = d.stats().bloom_negatives;
            let found = if rng.below(2) == 0 {
                let got = d.retrieve(t, &key(i)).unwrap();
                t = got.at;
                got.value.is_some()
            } else {
                let (done, found) = d.exist(t, &key(i)).unwrap();
                t = done;
                found
            };
            assert_eq!(found, live[i as usize], "wrong answer for key {i}");
            hits += found as u64;
            // A key that was never stored yet got past the filter.
            if i >= n && d.stats().bloom_negatives == negatives_before {
                false_positives += 1;
            }
        }
        let s = d.stats();
        assert!(hits > 0 && false_positives > 0 && s.bloom_negatives > 0);
        assert!(s.not_found > s.bloom_negatives / 2, "index misses occur");
        (
            t,
            s.bloom_negatives,
            s.not_found,
            d.index_stats().lookup_flash_reads,
        )
    }

    /// `miss_heavy_lookup_digest` per seed, computed on the code as it
    /// stood before the index probe moved ahead of the Bloom filter on
    /// the host (which must not move a single charge or counter).
    const LOOKUP_HISTORY: [(u64, LookupDigest); 3] = [
        (3, (SimTime::from_nanos(2_339_404_796), 4_526, 3_488, 5_496)),
        (
            1931,
            (SimTime::from_nanos(2_242_337_875), 4_608, 3_468, 5_406),
        ),
        (
            0xB100F,
            (SimTime::from_nanos(2_292_876_620), 4_557, 3_505, 5_542),
        ),
    ];

    #[test]
    fn miss_heavy_lookup_history_is_pinned() {
        for (seed, want) in LOOKUP_HISTORY {
            assert_eq!(
                miss_heavy_lookup_digest(seed),
                want,
                "lookup history moved at seed {seed}"
            );
        }
    }

    #[test]
    fn index_hit_implies_bloom_positive_after_every_op() {
        // The invariant that lets `retrieve`/`exist` ask the exact index
        // first: a key present in the index was inserted into its
        // manager's filter, and filter bits are never cleared.
        const KEYS: u64 = 160;
        for seed in [5u64, 77, 0xFEED] {
            let mut d = lean_bloom_dev();
            let mut rng = DeterministicRng::seed_from(seed);
            let mut t = SimTime::ZERO;
            let mut rolled_back = 0u32;
            for _ in 0..1_500 {
                let i = rng.below(KEYS);
                match rng.below(16) {
                    0..=8 => {
                        // Mostly small values; now and then one big
                        // enough to split, or to fill the device and
                        // take the store's roll-back path.
                        let len = match rng.below(5) {
                            0 => rng.between(30_000, 400_000),
                            _ => rng.between(0, 6_000),
                        } as u32;
                        match d.store(t, &key(i), Payload::synthetic(len, i)) {
                            Ok(done) => t = done,
                            Err(KvError::DeviceFull) => rolled_back += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    9..=14 => t = d.delete(t, &key(i)).unwrap().0,
                    _ => t = d.power_cycle(t).unwrap(),
                }
                for k in 0..KEYS {
                    let KeyId { hash: h, fp } = KeyId::of(&key(k));
                    let m = (h % d.managers.len() as u64) as usize;
                    assert!(
                        d.index.get(h, fp).is_none() || d.blooms[m].may_contain(h),
                        "seed {seed}: key {k} is indexed but its filter says no"
                    );
                }
            }
            assert!(!d.is_empty() && rolled_back > 0);
        }
    }
}

#[cfg(test)]
mod spill_boundary_tests {
    use super::tests::key;
    use super::*;
    use kvssd_flash::FaultPlan;
    use std::collections::BTreeMap;

    /// `(value bytes, segments)` for 16 B keys under `KvConfig::small()`:
    /// one page holds 25 040 value bytes, a continuation 25 072, so
    /// 25 041 B is the smallest 2-segment value, 50 112 B the largest
    /// and 50 113 B the smallest 3-segment one. These straddle every
    /// inline/spilled boundary a segment list can have.
    const BLOBS: [(u32, usize); 9] = [
        (24_576, 1),
        (25_000, 1),
        (25_040, 1),
        (25_041, 2),
        (49_000, 2),
        (50_000, 2),
        (50_112, 2),
        (50_113, 3),
        (131_072, 6),
    ];
    const FILLER_BYTES: u32 = 4_096;

    /// 64 blocks x 16 pages: room for the blobs plus enough filler that
    /// GC has real victims.
    fn geometry() -> Geometry {
        Geometry {
            blocks_per_plane: 8,
            pages_per_block: 16,
            ..Geometry::small()
        }
    }

    struct Harness {
        d: KvSsd,
        t: SimTime,
        /// key index -> (value bytes, tag)
        model: BTreeMap<u64, (u32, u64)>,
        next_tag: u64,
    }

    impl Harness {
        fn put(&mut self, i: u64, len: u32) {
            self.next_tag += 1;
            let value = Payload::synthetic(len, self.next_tag);
            self.t = self.d.store(self.t, &key(i), value).unwrap();
            self.model.insert(i, (len, self.next_tag));
        }

        fn segs(&self, i: u64) -> Vec<SegLoc> {
            self.d.segments_of(&key(i)).expect("live key").to_vec()
        }

        /// Every key reads back what the model holds, segment counts are
        /// the layout's, and the space report is the sum of the layouts.
        fn check(&mut self, stage: &str) {
            let (mut user, mut alloc) = (0u64, 0u64);
            for (&i, &(len, tag)) in &self.model {
                let got = self.d.retrieve(self.t, &key(i)).unwrap();
                self.t = got.at;
                assert_eq!(
                    got.value,
                    Some(Payload::synthetic(len, tag)),
                    "{stage}: key {i} read back wrong"
                );
                let layout = BlobLayout::plan(self.d.config(), 16, len as u64);
                let segs = self.d.segments_of(&key(i)).expect("live key");
                assert_eq!(segs.len(), layout.segments(), "{stage}: key {i}");
                for (s, &a) in segs.iter().zip(&layout.segment_alloc) {
                    assert_eq!(u32::from(s.alloc), a, "{stage}: key {i} segment allocation");
                }
                user += layout.user_bytes;
                alloc += layout.allocated_bytes();
            }
            let space = self.d.space();
            assert_eq!(space.kvp_count, self.model.len() as u64, "{stage}");
            assert_eq!(space.user_bytes, user, "{stage}: user bytes");
            assert_eq!(space.allocated_bytes, alloc, "{stage}: allocated bytes");
        }
    }

    /// Drives blobs on both sides of every segment-count boundary
    /// through overwrite, GC relocation, a program failure on a page
    /// holding a continuation segment, and a power cycle.
    fn run(flash: FlashDevice, fill_pct: u64, inject: bool) -> KvSsd {
        let d = KvSsd::over(flash, KvConfig::small());
        let blobs = BLOBS.len() as u64;
        let mut h = Harness {
            d,
            t: SimTime::ZERO,
            model: BTreeMap::new(),
            next_tag: 0,
        };
        // Blobs interleaved with filler up to `fill_pct` of capacity.
        let cap = h.d.space().capacity_bytes;
        let fillers = (cap * fill_pct / 100 - 500_000) / (FILLER_BYTES as u64 + 64);
        for f in 0..fillers {
            if f % 8 == 0 && f / 8 < blobs {
                h.put(f / 8, BLOBS[(f / 8) as usize].0);
            }
            h.put(blobs + f, FILLER_BYTES);
        }
        for (j, &(len, want)) in BLOBS.iter().enumerate() {
            let layout = BlobLayout::plan(h.d.config(), 16, len as u64);
            assert_eq!(layout.segments(), want, "{len} B value");
            assert_eq!(h.segs(j as u64).len(), want, "{len} B value as stored");
        }
        h.check("after fill");

        // Overwrite every blob with its neighbour's size: segment lists
        // shrink and grow across the inline/spilled boundary in place.
        for j in 0..blobs {
            h.put(j, BLOBS[((j + 1) % blobs) as usize].0);
        }
        h.check("after overwrite");

        // Churn the filler until GC has relocated part of every blob.
        let before: Vec<Vec<SegLoc>> = (0..blobs).map(|j| h.segs(j)).collect();
        let copied_before = h.d.stats().gc_copied_segments;
        let mut rounds = 0;
        while (0..blobs).any(|j| h.segs(j) == before[j as usize]) {
            rounds += 1;
            assert!(rounds <= 40, "GC never relocated some blob");
            for f in 0..fillers {
                h.put(blobs + f, FILLER_BYTES);
            }
        }
        assert!(h.d.stats().gc_copied_segments > copied_before);
        h.check("after GC relocation");

        // Fresh copies of the split blobs (continuations back on
        // dedicated pages), then fail the program of a page holding a
        // continuation segment of each.
        if inject {
            for j in 0..blobs {
                let (len, _) = h.model[&j];
                h.put(j, len);
                let segs = h.segs(j);
                let Some(&cont) = segs.get(1) else { continue };
                h.t = h.d.flush(h.t).unwrap();
                let replaced = h.d.stats().replaced_after_failure;
                h.d.handle_program_failure(h.t, cont.block, cont.page.into())
                    .unwrap();
                assert!(h.d.stats().replaced_after_failure > replaced);
                let moved = h.segs(j)[1];
                assert_ne!((moved.block, moved.page), (cont.block, cont.page));
                assert_eq!((moved.alloc, moved.raw), (cont.alloc, cont.raw));
            }
            h.check("after program failure");
        }

        h.t = h.d.power_cycle(h.t).unwrap();
        h.check("after power cycle");

        // Deleting the blobs hands back exactly what they held.
        for j in 0..blobs {
            let (done, existed) = h.d.delete(h.t, &key(j)).unwrap();
            assert!(existed);
            h.t = done;
            h.model.remove(&j);
        }
        h.check("after delete");
        h.d
    }

    #[test]
    fn blobs_across_the_spill_boundary_survive_gc_failure_and_power_cycle() {
        run(
            FlashDevice::new(geometry(), FlashTiming::pm983_like()),
            70,
            true,
        );
    }

    #[test]
    fn blobs_across_the_spill_boundary_survive_injected_flash_faults() {
        let flash = FlashDevice::with_faults(
            geometry(),
            FlashTiming::pm983_like(),
            FaultPlan {
                program_fail_one_in: Some(300),
                erase_fail_one_in: None,
            },
        );
        // Every failed program retires a block for good, so this run
        // starts emptier than the clean one. At this rate a shared page
        // fails while the stream is opening its next one: the handler's
        // re-placed segments must not be lost under the new page (they
        // once were, over-counting the block until GC's gain went
        // negative).
        let d = run(flash, 45, false);
        assert!(d.flash().stats().program_failures > 0);
        assert!(d.stats().replaced_after_failure > 0);
    }

    /// At the largest page payload a `SegLoc` describes, segments that
    /// end on the payload's last byte — alone on a page, at a nonzero
    /// offset, and as a split blob's head — keep their bytes and their
    /// sizes through store, GC relocation and retrieve.
    #[test]
    fn segments_ending_on_a_16_bit_payload_survive_gc() {
        let end = u16::MAX as u32;
        let geometry = Geometry {
            page_bytes: 64 * 1024,
            ..geometry()
        };
        let config = KvConfig {
            page_payload_bytes: end,
            fine_align: 1,
            ..KvConfig::small()
        };
        let mut d = KvSsd::new(geometry, FlashTiming::pm983_like(), config);
        let head = crate::config::META_BYTES + 16;
        let bytes = |len: u32, seed: u8| -> Payload {
            Payload::from_bytes((0..len).map(|i| i as u8 ^ seed).collect::<Vec<_>>())
        };
        // Key 0 fills a page payload; key 1 takes 1 KiB of the next page
        // and key 2 the rest of it; key 3 splits, its head a whole payload.
        let blobs = [
            bytes(end - head, 1),
            bytes(1024 - head, 2),
            bytes(end - 1024 - head, 3),
            bytes(100_000, 4),
        ];
        let mut t = SimTime::ZERO;
        for (i, value) in (0..).zip(&blobs) {
            t = d.store(t, &key(i), value.clone()).unwrap();
        }
        let segs = |d: &KvSsd, i| d.segments_of(&key(i)).unwrap().to_vec();
        let ends = |s: &SegLoc| u32::from(s.offset) + u32::from(s.alloc);
        assert_eq!((segs(&d, 0)[0].offset, ends(&segs(&d, 0)[0])), (0, end));
        assert_eq!((segs(&d, 2)[0].offset, ends(&segs(&d, 2)[0])), (1024, end));
        assert_eq!((segs(&d, 3).len(), segs(&d, 3)[0].alloc), (2, u16::MAX));
        let read_back = |d: &mut KvSsd, t: &mut SimTime, stage: &str| {
            for (i, value) in (0..).zip(&blobs) {
                let got = d.retrieve(*t, &key(i)).unwrap();
                *t = got.at;
                assert_eq!(got.value.as_ref(), Some(value), "{stage}: key {i}");
            }
        };
        read_back(&mut d, &mut t, "after store");

        // Churn 4 KiB filler until GC has moved every segment of keys 0,
        // 2 and 3.
        let before: Vec<Vec<SegLoc>> = (0..4).map(|i| segs(&d, i)).collect();
        let cap = d.space().capacity_bytes;
        let fillers = cap * 70 / 100 / (FILLER_BYTES as u64 + 64);
        let moved = |d: &KvSsd| {
            [0, 2, 3].iter().all(|&i| {
                let now = segs(d, i);
                now.iter().zip(&before[i as usize]).all(|(a, b)| a != b)
            })
        };
        let mut rounds = 0;
        while !moved(&d) {
            rounds += 1;
            assert!(rounds <= 40, "GC never relocated some segment");
            for f in 4..4 + fillers {
                let value = Payload::synthetic(FILLER_BYTES, f);
                t = d.store(t, &key(f), value).unwrap();
            }
        }
        for (i, was) in (0..).zip(&before) {
            let sizes = |s: &[SegLoc]| s.iter().map(|s| (s.alloc, s.raw)).collect::<Vec<_>>();
            assert_eq!(sizes(&segs(&d, i)), sizes(was), "key {i}");
            assert!(segs(&d, i).iter().all(|s| ends(s) <= end), "key {i}");
        }
        assert_eq!(ends(&segs(&d, 0)[0]), end);
        read_back(&mut d, &mut t, "after GC relocation");
    }
}
