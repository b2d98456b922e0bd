//! The LSM store: write path, read path, flush, and leveled compaction.

use std::ops::Range;

use kvssd_core::hash::key_hash;
use kvssd_core::Payload;
use kvssd_host_stack::{ExtFs, FileId, HostCpu, LruCache, PageCache};
use kvssd_sim::{SimDuration, SimTime};

use crate::config::{
    LsmConfig, BG_THREADS, BLOOM_BITS_PER_KEY, COST_BLOCK_PARSE, COST_BLOOM, COST_LOOKUP,
    COST_MEMTABLE_INSERT, COST_MERGE_ENTRY, L0_COMPACTION_TRIGGER, LEVEL_MULTIPLIER,
};
use crate::memtable::Memtable;
use crate::sst::{merge_runs, Entry, Run, SstMeta, TableBuilder, TableRun};

/// One live entry returned by [`LsmStore::scan`]: owned key + payload.
pub type ScanEntry = (Box<[u8]>, Payload);

kvssd_sim::counters! {
    /// Store counters.
    #[derive(Debug, Clone, Default)]
    pub struct LsmStats {
        /// Puts (inserts/updates/deletes) applied.
        pub puts: u64,
        /// Gets served.
        pub gets: u64,
        /// Memtable flushes.
        pub flushes: u64,
        /// Compactions run.
        pub compactions: u64,
        /// Puts that stalled on L0 pressure.
        pub stalls: u64,
        /// Total stall time.
        pub stall_time: SimDuration,
        /// Bytes written by flushes.
        pub bytes_flushed: u64,
        /// Bytes written by compactions.
        pub bytes_compacted: u64,
        /// Gets answered from the memtable.
        pub gets_from_memtable: u64,
        /// Block-cache hits.
        pub block_cache_hits: u64,
        /// Block-cache misses.
        pub block_cache_misses: u64,
    }
}

/// The RocksDB-like store (see crate docs). Owns its filesystem (and
/// through it the block device), its caches, and its host CPU pool.
#[derive(Debug)]
pub struct LsmStore {
    config: LsmConfig,
    cpu: HostCpu,
    bg_cpu: HostCpu,
    fs: ExtFs,
    page_cache: PageCache,
    block_cache: LruCache,
    memtable: Memtable,
    memtable_bytes: u64,
    wal: FileId,
    levels: Vec<Vec<SstMeta>>,
    /// Builds every flushed and compacted table, from recycled buffers.
    builder: TableBuilder,
    /// A compaction's runs, newest first; empty between compactions.
    runs: Vec<Run<TableRun>>,
    /// Completion horizon of the background flush/compaction worker.
    bg_done: SimTime,
    live_user_bytes: u64,
    live_keys: u64,
    stats: LsmStats,
    /// Test probe: candidate tables handed to point lookups.
    #[cfg(test)]
    candidates_probed: std::cell::Cell<u64>,
    /// Test probe: the table layout after every flush and compaction,
    /// folded (see `fold_layout`).
    #[cfg(test)]
    layout_fold: u64,
}

impl LsmStore {
    /// Creates a store over a formatted filesystem.
    pub fn new(fs: ExtFs, config: LsmConfig) -> Self {
        config.validate();
        let mut cpu = HostCpu::new(config.host_cores);
        let bg_cpu = HostCpu::new(BG_THREADS);
        let mut fs = fs;
        let (_, wal) = fs.create(SimTime::ZERO, &mut cpu);
        LsmStore {
            page_cache: PageCache::new(config.page_cache_bytes),
            block_cache: LruCache::new(
                (config.block_cache_bytes / config.block_bytes).max(1) as usize
            ),
            memtable: Memtable::default(),
            memtable_bytes: 0,
            levels: vec![Vec::new()],
            builder: TableBuilder::new(config.entry_overhead_bytes, BLOOM_BITS_PER_KEY),
            runs: Vec::new(),
            bg_done: SimTime::ZERO,
            live_user_bytes: 0,
            live_keys: 0,
            stats: LsmStats::default(),
            #[cfg(test)]
            candidates_probed: std::cell::Cell::new(0),
            #[cfg(test)]
            layout_fold: 0,
            wal,
            cpu,
            bg_cpu,
            fs,
            config,
        }
    }

    /// Store counters.
    pub fn stats(&self) -> &LsmStats {
        &self.stats
    }

    /// The filesystem (and device) underneath.
    pub fn fs(&self) -> &ExtFs {
        &self.fs
    }

    /// Foreground host CPU pool.
    pub fn cpu(&self) -> &HostCpu {
        &self.cpu
    }

    /// Total host CPU busy time, foreground plus background workers —
    /// what `dstat` would attribute to the store.
    pub fn cpu_busy_total(&self) -> SimDuration {
        self.cpu.busy_total() + self.bg_cpu.busy_total()
    }

    /// Live key count.
    pub fn len(&self) -> u64 {
        self.live_keys
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.live_keys == 0
    }

    /// Bytes of live user data (keys + values).
    pub fn user_bytes(&self) -> u64 {
        self.live_user_bytes
    }

    /// Bytes occupied on disk by SSTs and the WAL.
    pub fn disk_bytes(&self) -> u64 {
        let ssts: u64 = self.levels.iter().flatten().map(|m| m.size_bytes).sum();
        ssts + self.fs.size_of(self.wal).unwrap_or(0)
    }

    /// Inserts or updates a key.
    pub fn put(&mut self, now: SimTime, key: &[u8], value: Payload) -> SimTime {
        self.write(now, key, Some(value))
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        self.write(now, key, None)
    }

    /// Point lookup. Returns (completion, value).
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> (SimTime, Option<Payload>) {
        self.stats.gets += 1;
        let depth = (self.memtable.len().max(2) as f64).log2() as u64;
        let mut t = self.cpu.run(now, COST_LOOKUP * depth.max(1));
        let hash = key_hash(key);
        if let Some(v) = self.memtable.get(hash, key) {
            self.stats.gets_from_memtable += 1;
            return (t, v.clone());
        }
        // L0 newest-first, then the one candidate of each deeper level.
        for lvl in 0..self.levels.len() {
            for i in self.candidates(lvl, key).rev() {
                let meta = &self.levels[lvl][i];
                if !meta.covers(key) {
                    continue;
                }
                t = self.cpu.run(t, COST_BLOOM);
                if !meta.bloom.may_contain(hash) {
                    continue;
                }
                let (done, hit) = self.probe_table(t, lvl, i, key);
                t = done;
                if let Some(v) = hit {
                    return (t, v);
                }
            }
        }
        (t, None)
    }

    /// Range scan: up to `limit` live entries with keys >= `from`, in
    /// key order (the YCSB workload-E shape). Returns (completion,
    /// entries). Charges a block probe per visited table.
    pub fn scan(&mut self, now: SimTime, from: &[u8], limit: usize) -> (SimTime, Vec<ScanEntry>) {
        let mut t = now;
        let visited: Vec<(FileId, u64)> = self
            .levels
            .iter()
            .flatten()
            .filter(|m| m.max_key.as_slice() >= from)
            .map(|m| (m.file, m.size_bytes))
            .collect();
        for (file, size) in visited {
            t = self.read_block(t, file, self.index_block(size), size);
        }
        // One run per source, newest first: the memtable, each L0 table
        // from the youngest back, then each deeper level's disjoint,
        // key-ordered files chained. The merge pulls lazily, so no
        // source is cut short of a version that shadows an older one.
        fn tail<'a>(m: &'a SstMeta, from: &'a [u8]) -> impl Iterator<Item = Entry> + 'a {
            m.data.entries_from(from).iter().cloned()
        }
        let (l0, deeper) = self.levels.split_first().expect("L0 always exists");
        let mut runs: Vec<Run<Box<dyn Iterator<Item = Entry> + '_>>> = vec![Run::new(Box::new(
            self.memtable.sorted_from(from).into_iter(),
        ))];
        runs.extend(
            l0.iter()
                .rev()
                .map(|m| Run::new(Box::new(tail(m, from)) as _)),
        );
        runs.extend(
            deeper.iter().map(|metas| {
                Run::new(Box::new(metas.iter().flat_map(move |m| tail(m, from))) as _)
            }),
        );
        let mut out = Vec::new();
        for Entry { key, value } in merge_runs(&mut runs, false) {
            if out.len() >= limit {
                break;
            }
            if let Some(v) = value {
                t = self.cpu.run(t, COST_LOOKUP);
                out.push((key.as_slice().into(), v));
            }
        }
        (t, out)
    }

    /// Forces the memtable out and waits for all background work — an
    /// end-of-phase barrier for experiments.
    pub fn flush_all(&mut self, now: SimTime) -> SimTime {
        if !self.memtable.is_empty() {
            self.flush_memtable(now);
        }
        self.run_compactions();
        self.bg_done.max(now)
    }

    // ----- internals -------------------------------------------------

    fn write(&mut self, now: SimTime, key: &[u8], value: Option<Payload>) -> SimTime {
        self.stats.puts += 1;
        let vlen = value.as_ref().map_or(0, Payload::len);
        let rec = key.len() as u64 + vlen + self.config.entry_overhead_bytes;
        // WAL append (buffered, never fsynced per write: RocksDB's
        // default).
        let mut t = self
            .fs
            .append(now, &mut self.cpu, &mut self.page_cache, self.wal, rec)
            .expect("WAL append");
        // Memtable insert.
        let depth = (self.memtable.len().max(2) as f64).log2() as u64;
        t = self.cpu.run(t, COST_MEMTABLE_INSERT + COST_LOOKUP * depth);
        let live = value.is_some();
        let hash = key_hash(key);
        let prev = self.memtable.insert(hash, key, value);
        // Live-data accounting needs the previous version's size: the
        // memtable's own, else the newest on disk.
        let old_len = match &prev {
            Some(p) => p.as_ref().map(Payload::len),
            None => self.peek_levels(key, hash).map(Payload::len),
        };
        match (old_len, live) {
            (None, true) => {
                self.live_keys += 1;
                self.live_user_bytes += key.len() as u64 + vlen;
            }
            (Some(ov), true) => {
                self.live_user_bytes = self.live_user_bytes - ov + vlen;
            }
            (Some(ov), false) => {
                self.live_keys -= 1;
                self.live_user_bytes -= key.len() as u64 + ov;
            }
            (None, false) => {}
        }
        let prev_bytes = prev
            .map(|p| key.len() as u64 + p.map_or(0, |v| v.len()) + self.config.entry_overhead_bytes)
            .unwrap_or(0);
        self.memtable_bytes = self.memtable_bytes - prev_bytes + rec;

        if self.memtable_bytes >= self.config.memtable_bytes {
            // Stall when the background worker is too far behind
            // (RocksDB's pending-compaction-bytes stall, expressed as a
            // completion-horizon lag).
            if self.bg_done.saturating_since(t) > self.config.stall_lag {
                self.stats.stalls += 1;
                if self.bg_done > t {
                    self.stats.stall_time += self.bg_done.since(t);
                    t = self.bg_done;
                }
            }
            self.flush_memtable(t);
            self.run_compactions();
        }
        t
    }

    /// Functional lookup of the newest on-disk version of `key` (which
    /// hashes to `hash`), without timing — live-data accounting on a
    /// memtable miss.
    fn peek_levels(&self, key: &[u8], hash: u64) -> Option<&Payload> {
        for lvl in 0..self.levels.len() {
            for i in self.candidates(lvl, key).rev() {
                let meta = &self.levels[lvl][i];
                // Bloom filters have no false negatives, so consulting
                // one before the binary search cannot change the answer.
                if !meta.covers(key) || !meta.bloom.may_contain(hash) {
                    continue;
                }
                if let Some(idx) = meta.data.find(key) {
                    return meta.data.entry(idx).1;
                }
            }
        }
        None
    }

    /// Files of `lvl` that may hold `key`, as indices to probe from the
    /// back: all of L0 (newest last), and in a deeper level — disjoint
    /// and key-ordered — the first file that does not end before `key`.
    fn candidates(&self, lvl: usize, key: &[u8]) -> Range<usize> {
        let metas = &self.levels[lvl];
        let range = if lvl == 0 {
            0..metas.len()
        } else {
            let first = metas.partition_point(|m| m.max_key.as_slice() < key);
            first..(first + 1).min(metas.len())
        };
        #[cfg(test)]
        self.candidates_probed
            .set(self.candidates_probed.get() + range.len() as u64);
        range
    }

    /// Reads table `i` of `lvl`'s index + data block for `key`, via
    /// block cache, page cache, then device.
    fn probe_table(
        &mut self,
        now: SimTime,
        lvl: usize,
        i: usize,
        key: &[u8],
    ) -> (SimTime, Option<Option<Payload>>) {
        let meta = &self.levels[lvl][i];
        let (file, size, idx) = (meta.file, meta.size_bytes, meta.data.find(key));
        let entries = meta.data.len() as u64;
        let mut t = now;
        t = self.read_block(t, file, self.index_block(size), size);
        let Some(idx) = idx else {
            // Bloom false positive: the index probe already told us no.
            return (t, None);
        };
        let block_no = (idx as u64 * size / entries.max(1)) / self.config.block_bytes;
        t = self.read_block(t, file, block_no, size);
        t = self.cpu.run(t, COST_BLOCK_PARSE);
        let (_, v) = self.levels[lvl][i].data.entry(idx);
        (t, Some(v.cloned()))
    }

    /// The block number a table of `size` bytes caches its index block
    /// under: one past its last data block, so the two never share a key.
    fn index_block(&self, size: u64) -> u64 {
        size.div_ceil(self.config.block_bytes)
    }

    /// One block through block cache -> page cache -> device.
    fn read_block(&mut self, now: SimTime, file: FileId, block_no: u64, size: u64) -> SimTime {
        if self.block_cache.touch(&(file.0, block_no)) {
            self.stats.block_cache_hits += 1;
            return self.cpu.run(now, COST_LOOKUP);
        }
        self.stats.block_cache_misses += 1;
        let offset = if block_no == self.index_block(size) {
            // Index block lives at the tail.
            (size / self.config.block_bytes).saturating_sub(1) * self.config.block_bytes
        } else {
            block_no * self.config.block_bytes
        };
        let offset = offset.min(size.saturating_sub(1));
        let len = self.config.block_bytes.min(size - offset);
        if len == 0 {
            return self.cpu.run(now, COST_LOOKUP);
        }
        let t = self
            .fs
            .read(now, &mut self.cpu, &mut self.page_cache, file, offset, len)
            .expect("SST block read");
        self.block_cache.insert((file.0, block_no));
        t
    }

    /// Rotates the memtable into an L0 SST on the background worker.
    fn flush_memtable(&mut self, now: SimTime) {
        if self.memtable.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        let next = self.builder.spare_entries(self.memtable.capacity());
        self.builder.adopt(self.memtable.take_sorted(next));
        self.memtable_bytes = 0;
        let start = self.bg_done.max(now);
        let t = self.write_table(start, 0, true);
        // WAL writeback + recycle.
        let t = self
            .fs
            .fsync(t, &mut self.bg_cpu, self.wal)
            .expect("WAL writeback");
        let t = self
            .fs
            .delete(t, &mut self.bg_cpu, &mut self.page_cache, self.wal)
            .expect("WAL delete");
        let (t, wal) = self.fs.create(t, &mut self.bg_cpu);
        self.wal = wal;
        self.bg_done = t;
        #[cfg(test)]
        self.fold_layout();
    }

    /// Folds every level's table list into `layout_fold`: per table its
    /// entry count, size, key range and Bloom words.
    #[cfg(test)]
    fn fold_layout(&mut self) {
        use kvssd_sim::{digest64, mix64};
        let mut fold = self.layout_fold;
        let mut mix = |v: u64| fold = mix64(fold ^ v);
        for (level, metas) in self.levels.iter().enumerate() {
            mix(level as u64);
            mix(metas.len() as u64);
            for m in metas {
                mix(m.data.len() as u64);
                mix(m.size_bytes);
                mix(digest64(&m.min_key));
                mix(digest64(&m.max_key));
                m.bloom.words().iter().for_each(|&w| mix(w));
            }
        }
        self.layout_fold = fold;
    }

    /// Writes the builder's table (not empty) to `level` (which exists),
    /// returning the completion time: merge CPU for its entries, then
    /// create, append and fsync.
    fn write_table(&mut self, start: SimTime, level: usize, is_flush: bool) -> SimTime {
        let size = self.builder.size_bytes();
        let cpu_work = COST_MERGE_ENTRY * self.builder.len() as u64;
        let t = self.bg_cpu.run(start, cpu_work);
        let (t, file) = self.fs.create(t, &mut self.bg_cpu);
        let t = self
            .fs
            .append(t, &mut self.bg_cpu, &mut self.page_cache, file, size)
            .expect("SST write");
        let t = self.fs.fsync(t, &mut self.bg_cpu, file).expect("SST fsync");
        if is_flush {
            self.stats.bytes_flushed += size;
        } else {
            self.stats.bytes_compacted += size;
        }
        let meta = self.builder.finish(file).expect("a table to write");
        let metas = &mut self.levels[level];
        if level == 0 {
            metas.push(meta);
        } else {
            let pos = metas
                .binary_search_by(|m| m.min_key.cmp(&meta.min_key))
                .unwrap_or_else(|e| e);
            metas.insert(pos, meta);
        }
        t
    }

    /// Target size of level `i` (1-based levels).
    fn level_target(&self, level: usize) -> u64 {
        self.config.level_base_bytes * LEVEL_MULTIPLIER.pow(level.saturating_sub(1) as u32)
    }

    /// Runs compactions until no level violates its trigger.
    fn run_compactions(&mut self) {
        loop {
            if self.levels[0].len() >= L0_COMPACTION_TRIGGER {
                self.compact_l0();
                self.stats.compactions += 1;
                #[cfg(test)]
                self.fold_layout();
                continue;
            }
            let over = (1..self.levels.len()).find(|&l| {
                let size: u64 = self.levels[l].iter().map(|m| m.size_bytes).sum();
                size > self.level_target(l)
            });
            match over {
                Some(l) if !self.levels[l].is_empty() => {
                    self.compact_level(l);
                    self.stats.compactions += 1;
                    #[cfg(test)]
                    self.fold_layout();
                }
                _ => break,
            }
        }
    }

    fn compact_l0(&mut self) {
        if self.levels.len() < 2 {
            self.levels.push(Vec::new());
        }
        let [l0, l1, ..] = self.levels.as_mut_slice() else {
            return;
        };
        let lo = l0.iter().map(|m| &m.min_key).min().expect("L0 files");
        let hi = l0.iter().map(|m| &m.max_key).max().expect("L0 files");
        let dest = Self::take_overlapping(l1, lo, hi, self.builder.spare_list());
        // Newest first: each L0 file its own run, then L1's chain.
        for meta in l0.drain(..).rev() {
            let mut list = self.builder.spare_list();
            list.push(meta);
            self.runs.push(Run::new(TableRun::new(list)));
        }
        self.runs.push(Run::new(TableRun::new(dest)));
        self.merge_into(1);
    }

    fn compact_level(&mut self, level: usize) {
        while self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        let [src, next, ..] = &mut self.levels[level..] else {
            return;
        };
        let mut upper = self.builder.spare_list();
        upper.push(src.remove(0));
        let (lo, hi) = (&upper[0].min_key, &upper[0].max_key);
        let dest = Self::take_overlapping(next, lo, hi, self.builder.spare_list());
        self.runs.push(Run::new(TableRun::new(upper)));
        self.runs.push(Run::new(TableRun::new(dest)));
        self.merge_into(level + 1);
    }

    /// Moves the files of `level` (a deeper level: disjoint and
    /// key-ordered) that overlap `[lo, hi]` into `into`, in key order.
    /// They are one contiguous range of the level.
    fn take_overlapping(
        level: &mut Vec<SstMeta>,
        lo: &[u8],
        hi: &[u8],
        mut into: Vec<SstMeta>,
    ) -> Vec<SstMeta> {
        let start = level.partition_point(|m| m.max_key.as_slice() < lo);
        let end = level.partition_point(|m| m.min_key.as_slice() <= hi);
        debug_assert!(
            (level.iter().enumerate())
                .all(|(i, m)| m.overlaps(lo, hi) == (start..end).contains(&i)),
            "the overlapping files are not one range"
        );
        into.extend(level.drain(start..end.max(start)));
        into
    }

    /// Merges `self.runs` — the upper files newest first, each its own
    /// run, then the output level's overlapping files as one chained run
    /// — into `out_level`: charges reads of every input, then merge CPU
    /// and writes of each target-sized output as the merge fills it,
    /// then deletes (TRIMs) the inputs, which is why the merge may
    /// consume them. An input's buffers go to the outputs once the merge
    /// has read it.
    fn merge_into(&mut self, out_level: usize) {
        let mut runs = std::mem::take(&mut self.runs);
        let mut t = self.bg_done;
        // Read every input through the fs (sequential, page-cache aware),
        // newest first.
        for m in runs.iter().flat_map(|run| run.source().tables()) {
            let (file, size) = (m.file, m.size_bytes);
            if size > 0 {
                t = self
                    .fs
                    .read(t, &mut self.bg_cpu, &mut self.page_cache, file, 0, size)
                    .expect("compaction input read");
            }
        }
        // Tombstones drop when merging into the bottom-most populated level.
        let bottom = (out_level + 1..self.levels.len()).all(|l| self.levels[l].is_empty());
        let mut merge = merge_runs(&mut runs, bottom);
        while let Some(entry) = merge.next() {
            if self.builder.is_empty() {
                for run in merge.runs_mut() {
                    run.source_mut().recycle_spent(&mut self.builder);
                }
            }
            if self.builder.push(entry) >= self.config.sst_target_bytes {
                t = self.write_table(t, out_level, false);
            }
        }
        if !self.builder.is_empty() {
            t = self.write_table(t, out_level, false);
        }
        // Delete the inputs (whole-file TRIM on the device): the upper
        // files oldest first, then the output level's.
        let (dest, upper) = runs.split_last().expect("a compaction has runs");
        let inputs = upper.iter().rev().chain([dest]);
        for m in inputs.flat_map(|run| run.source().tables()) {
            t = self
                .fs
                .delete(t, &mut self.bg_cpu, &mut self.page_cache, m.file)
                .expect("compaction input delete");
            self.block_cache.invalidate_file(m.file.0);
        }
        for run in runs.drain(..) {
            self.builder.recycle_list(run.into_source().into_tables());
        }
        self.runs = runs;
        self.bg_done = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
    use kvssd_flash::{FlashTiming, Geometry};

    fn store() -> LsmStore {
        store_with(LsmConfig::tiny())
    }

    fn store_with(config: LsmConfig) -> LsmStore {
        store_with_blocks(16, config)
    }

    fn store_with_blocks(blocks_per_plane: u32, config: LsmConfig) -> LsmStore {
        let g = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane,
            pages_per_block: 16,
            page_bytes: 32 * 1024,
        };
        let dev = BlockSsd::new(g, FlashTiming::pm983_like(), BlockFtlConfig::pm983_like());
        LsmStore::new(ExtFs::format(dev), config)
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key{i:013}").into_bytes()
    }

    #[test]
    fn put_get_round_trips_in_memtable() {
        let mut s = store();
        let t = s.put(SimTime::ZERO, b"alpha", Payload::from_bytes(vec![1, 2]));
        let (_, v) = s.get(t, b"alpha");
        assert_eq!(v.unwrap().as_bytes().unwrap(), &[1, 2][..]);
        assert_eq!(s.stats().gets_from_memtable, 1);
    }

    #[test]
    fn get_missing_returns_none() {
        let mut s = store();
        let (_, v) = s.get(SimTime::ZERO, b"nothing");
        assert!(v.is_none());
    }

    #[test]
    fn flush_moves_data_to_sst_and_reads_still_work() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..500u64 {
            t = s.put(t, &key(i), Payload::synthetic(256, i));
        }
        assert!(s.stats().flushes > 0, "memtable should have rotated");
        for i in (0..500).step_by(37) {
            let (t2, v) = s.get(t, &key(i));
            t = t2;
            assert_eq!(v, Some(Payload::synthetic(256, i)), "key {i}");
        }
    }

    #[test]
    fn updates_shadow_older_versions_across_flushes() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..300u64 {
            t = s.put(t, &key(i), Payload::synthetic(256, 1));
        }
        for i in 0..300u64 {
            t = s.put(t, &key(i), Payload::synthetic(256, 2));
        }
        t = s.flush_all(t);
        for i in (0..300).step_by(41) {
            let (_, v) = s.get(t, &key(i));
            assert_eq!(v, Some(Payload::synthetic(256, 2)), "key {i}");
        }
        assert_eq!(s.len(), 300);
    }

    #[test]
    fn deletes_tombstone_across_levels() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            t = s.put(t, &key(i), Payload::synthetic(128, 0));
        }
        t = s.flush_all(t);
        t = s.delete(t, &key(7));
        t = s.flush_all(t);
        let (_, v) = s.get(t, &key(7));
        assert!(v.is_none());
        assert_eq!(s.len(), 199);
    }

    #[test]
    fn compaction_reduces_l0_and_trims_inputs() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..3_000u64 {
            t = s.put(t, &key(i % 600), Payload::synthetic(256, i));
        }
        t = s.flush_all(t);
        assert!(s.stats().compactions > 0);
        assert!(s.levels[0].len() < L0_COMPACTION_TRIGGER, "L0 drained");
        // Compaction deletes should have TRIMmed the device.
        assert!(s.fs().device().stats().host_writes > 0);
        let _ = t;
    }

    #[test]
    fn space_amplification_stays_modest_under_leveling() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..4_000u64 {
            t = s.put(t, &key(i % 800), Payload::synthetic(300, i));
        }
        t = s.flush_all(t);
        let amp = s.disk_bytes() as f64 / s.user_bytes() as f64;
        // Leveled LSM space amp: ~1.1 steady state; allow slack for the
        // tiny config (paper quotes 1.11 worst case).
        assert!(amp < 2.5, "space amplification {amp}");
        assert_eq!(s.len(), 800);
        let _ = t;
    }

    #[test]
    fn stalls_appear_under_write_burst() {
        let mut s = store();
        // Open-loop burst: issue puts at fixed tiny intervals so the
        // background flush/compaction worker cannot keep up.
        let mut worst = SimDuration::ZERO;
        for i in 0..30_000u64 {
            let now = SimTime::from_nanos(i * 200);
            let done = s.put(now, &key(i % 2_000), Payload::synthetic(2048, i));
            worst = worst.max(done.since(now));
        }
        assert!(s.stats().flushes > 1);
        assert!(
            s.stats().stalls > 0,
            "write burst should stall ({} flushes)",
            s.stats().flushes
        );
        assert!(worst > SimDuration::from_millis(1), "worst {worst}");
    }

    #[test]
    fn scan_returns_ordered_live_range() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..400u64 {
            t = s.put(t, &key(i), Payload::synthetic(100, i));
        }
        t = s.flush_all(t);
        t = s.delete(t, &key(105));
        t = s.put(t, &key(107), Payload::synthetic(100, 9999));
        let (t2, got) = s.scan(t, &key(100), 10);
        assert!(t2 > t);
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
        // 105 deleted; order preserved; newest version of 107 returned.
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], key(100).as_slice());
        assert!(!keys.contains(&key(105).as_slice()));
        let v107 = got
            .iter()
            .find(|(k, _)| k.as_ref() == key(107).as_slice())
            .map(|(_, v)| v.clone());
        assert_eq!(v107, Some(Payload::synthetic(100, 9999)));
    }

    #[test]
    fn scan_never_returns_deleted_keys() {
        // Two L0 tables, the younger holding tombstones for part of the
        // older one's range: the younger table must win, and no source
        // may be cut off before a tombstone that shadows an older value.
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in (0..400u64).step_by(5) {
            t = s.put(t, &key(i), Payload::synthetic(100, i));
        }
        t = s.flush_all(t);
        for i in 100..=130u64 {
            t = s.delete(t, &key(i));
        }
        t = s.flush_all(t);
        let (mut t, got) = s.scan(t, &key(100), 10);
        assert_eq!(got.len(), 10);
        for (k, v) in &got {
            let (done, live) = s.get(t, k);
            t = done;
            assert_eq!(live.as_ref(), Some(v), "scan returned a dead or stale key");
        }
        assert_eq!(got[0].0.as_ref(), key(135).as_slice());
    }

    #[test]
    fn point_lookups_probe_one_table_per_deeper_level() {
        // Small files so that L2 grows to dozens of them.
        let mut s = store_with(LsmConfig {
            sst_target_bytes: 16 * 1024,
            ..LsmConfig::tiny()
        });
        let mut t = SimTime::ZERO;
        let mut next = 0u64;
        // Grows L2 to `files` files, then returns the worst number of
        // candidate tables below L0 that one `get` or one `peek_levels`
        // (run by every put that misses the memtable) was handed, over present and absent keys, with the
        // level count. Candidates bound the tables binary-searched.
        let mut deeper_candidates_when_l2_has = |files: usize| {
            while s.levels.get(2).map_or(0, Vec::len) < files {
                // 7919 is coprime to 100 000: scattered, distinct keys.
                let k = key(next * 7919 % 100_000);
                t = s.put(t, &k, Payload::synthetic(512, next));
                next += 1;
            }
            let (l0, depth) = (s.levels[0].len() as u64, s.levels.len());
            let deeper = depth as u64 - 1;
            let mut worst = 0;
            for i in (0..100_000u64).step_by(997) {
                let c0 = s.candidates_probed.get();
                let (done, got) = s.get(t, &key(i));
                t = done;
                let c1 = s.candidates_probed.get();
                let (k, hash) = (key(i), key_hash(&key(i)));
                let peeked = match s.memtable.get(hash, &k) {
                    Some(v) => v.clone(),
                    None => s.peek_levels(&k, hash).cloned(),
                };
                let c2 = s.candidates_probed.get();
                assert_eq!(peeked, got, "key {i}");
                worst = worst.max(c1 - c0).max(c2 - c1);
            }
            assert!(
                worst <= l0 + deeper,
                "{worst} candidates with {l0} L0 files and {depth} levels"
            );
            (worst.saturating_sub(l0), depth)
        };
        let (few, depth_few) = deeper_candidates_when_l2_has(5);
        let (many, depth_many) = deeper_candidates_when_l2_has(40);
        assert!(
            many <= few + (depth_many - depth_few) as u64,
            "candidates grew with the file count: {few} -> {many}"
        );
    }

    /// Zipfian puts and deletes on `LsmConfig::tiny()` (values from 0 B
    /// to 3 KB; keys with a shared prefix, some past the inline limit,
    /// some with zero bytes), then `flush_all`. Returns the layout fold
    /// of every flush and compaction, the flush and compaction counts
    /// and the deepest level reached.
    fn table_layout_history(seed: u64) -> (u64, u64, u64, usize) {
        use kvssd_sim::{mix64, DeterministicRng, ZipfianDistribution};
        let mut s = store_with_blocks(32, LsmConfig::tiny());
        let zipf = ZipfianDistribution::new(3_000, 0.8);
        let mut rng = DeterministicRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for op in 0..12_000u64 {
            let i = zipf.sample(&mut rng);
            let mut k = format!("user{:07}", mix64(i) % 10_000_000).into_bytes();
            if i.is_multiple_of(3) {
                k.extend_from_slice(b"-spilled-past-inline");
            }
            if i.is_multiple_of(7) {
                k.truncate(5);
                k.extend_from_slice(&i.to_be_bytes());
            }
            t = if rng.below(10) == 0 {
                s.delete(t, &k)
            } else {
                let len = [0, 24, 300, 1_000, 3_000][rng.below(5) as usize];
                s.put(t, &k, Payload::synthetic(len, op))
            };
        }
        let _ = s.flush_all(t);
        let stats = s.stats();
        (
            s.layout_fold,
            stats.flushes,
            stats.compactions,
            s.levels.len(),
        )
    }

    /// `table_layout_history` per seed, computed before compaction was
    /// rebuilt to build each output table in one pass: the split points,
    /// sizes, key ranges and Bloom bits of every table after every flush
    /// and compaction must not move.
    const TABLE_LAYOUT_HISTORY: [(u64, u64); 3] = [
        (3, 0x0745_0754_AF87_05ED),
        (11, 0x1E23_3EAC_3C4B_10AF),
        (0x2A7, 0xD156_9F94_D16A_7031),
    ];

    #[test]
    fn table_layout_matches_pinned_history() {
        for (seed, want) in TABLE_LAYOUT_HISTORY {
            let (got, flushes, compactions, levels) = table_layout_history(seed);
            assert!(
                flushes > 100 && compactions > 100 && levels >= 3,
                "seed {seed}: {flushes} flushes, {compactions} compactions, {levels} levels"
            );
            assert_eq!(
                got, want,
                "table layout diverged at seed {seed}: {got:#018X}"
            );
        }
    }

    #[test]
    fn scan_from_end_is_empty() {
        let mut s = store();
        let t = s.put(SimTime::ZERO, b"aaa-key", Payload::synthetic(8, 0));
        let (_, got) = s.scan(t, b"zzz", 5);
        assert!(got.is_empty());
    }

    #[test]
    fn cpu_time_accumulates_per_put() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = s.put(t, &key(i), Payload::synthetic(64, 0));
        }
        assert!(s.cpu().busy_total() > SimDuration::from_micros(100));
        let _ = t;
    }
}
