//! The LSM store: write path, read path, flush, and leveled compaction.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};

use kvssd_core::hash::key_hash;
use kvssd_core::{KeyBuf, Payload};
use kvssd_host_stack::{ExtFs, FileId, HostCpu, LruCache, PageCache};
use kvssd_sim::{PrehashedMap, SimDuration, SimTime};

use crate::config::LsmConfig;
use crate::sst::{merge_runs, Entry, SstData, SstMeta};

/// One live entry returned by [`LsmStore::scan`]: owned key + payload.
pub type ScanEntry = (Box<[u8]>, Payload);

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

/// The RocksDB-like store (see crate docs). Owns its filesystem (and
/// through it the block device), its caches, and its host CPU pool.
#[derive(Debug)]
pub struct LsmStore {
    config: LsmConfig,
    cpu: HostCpu,
    bg_cpu: HostCpu,
    fs: ExtFs,
    page_cache: PageCache,
    block_cache: LruCache<(u64, u64)>,
    memtable: BTreeMap<KeyBuf, Option<Payload>>,
    memtable_bytes: u64,
    wal: FileId,
    levels: Vec<Vec<SstMeta>>,
    tables: PrehashedMap<FileId, SstData>,
    /// Completion horizon of the background flush/compaction worker.
    bg_done: SimTime,
    live_user_bytes: u64,
    live_keys: u64,
    stats: LsmStats,
    /// Test probe: candidate tables handed to point lookups.
    #[cfg(test)]
    candidates_probed: std::cell::Cell<u64>,
}

impl LsmStore {
    /// Creates a store over a formatted filesystem.
    pub fn new(fs: ExtFs, config: LsmConfig) -> Self {
        config.validate();
        let mut cpu = HostCpu::new(config.host_cores);
        let bg_cpu = HostCpu::new(config.bg_threads);
        let mut fs = fs;
        let (_, wal) = fs.create(SimTime::ZERO, &mut cpu);
        LsmStore {
            page_cache: PageCache::new(config.page_cache_bytes),
            block_cache: LruCache::new(
                (config.block_cache_bytes / config.block_bytes).max(1) as usize
            ),
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            levels: vec![Vec::new()],
            tables: PrehashedMap::default(),
            bg_done: SimTime::ZERO,
            live_user_bytes: 0,
            live_keys: 0,
            stats: LsmStats::default(),
            #[cfg(test)]
            candidates_probed: std::cell::Cell::new(0),
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
        let mut t = self.cpu.run(now, self.config.cost_lookup * depth.max(1));
        if let Some(v) = self.memtable.get(key) {
            self.stats.gets_from_memtable += 1;
            return (t, v.clone());
        }
        // L0 newest-first, then the one candidate of each deeper level.
        let hash = key_hash(key);
        for lvl in 0..self.levels.len() {
            for i in self.candidates(lvl, key).rev() {
                let meta = &self.levels[lvl][i];
                if !meta.covers(key) {
                    continue;
                }
                t = self.cpu.run(t, self.config.cost_bloom);
                if !meta.bloom.may_contain(hash) {
                    continue;
                }
                let file = meta.file;
                let (done, hit) = self.probe_table(t, file, key);
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
        let visited: Vec<FileId> = self
            .levels
            .iter()
            .flatten()
            .filter(|m| m.max_key.as_slice() >= from)
            .map(|m| m.file)
            .collect();
        for file in visited {
            let size = self.fs.size_of(file).expect("live SST");
            t = self.read_block(t, file, u64::MAX, size);
        }
        // One run per source, newest first: the memtable, each L0 table
        // from the youngest back, then each deeper level's disjoint,
        // key-ordered files chained. The merge pulls lazily, so no
        // source is cut short of a version that shadows an older one.
        let tables = &self.tables;
        let tail = move |m: &SstMeta| tables[&m.file].entries_from(from).iter().cloned();
        let (l0, deeper) = self.levels.split_first().expect("L0 always exists");
        let mut runs: Vec<Box<dyn Iterator<Item = Entry> + '_>> = vec![Box::new(
            self.memtable
                .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
                .map(|(k, v)| (k.clone(), v.clone())),
        )];
        runs.extend(l0.iter().rev().map(|m| Box::new(tail(m)) as _));
        runs.extend(
            deeper
                .iter()
                .map(|metas| Box::new(metas.iter().flat_map(tail)) as _),
        );
        let mut out = Vec::new();
        for (k, v) in merge_runs(runs, false) {
            if out.len() >= limit {
                break;
            }
            if let Some(v) = v {
                t = self.cpu.run(t, self.config.cost_lookup);
                out.push((k.as_slice().into(), v));
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
        // WAL append (buffered; fsync per write only if configured).
        let mut t = self
            .fs
            .append(now, &mut self.cpu, &mut self.page_cache, self.wal, rec)
            .expect("WAL append");
        if self.config.wal_fsync {
            t = self
                .fs
                .fsync(t, &mut self.cpu, self.wal)
                .expect("WAL fsync");
        }
        // Memtable insert.
        let depth = (self.memtable.len().max(2) as f64).log2() as u64;
        t = self.cpu.run(
            t,
            self.config.cost_memtable_insert + self.config.cost_lookup * depth,
        );
        // Live-data accounting needs the previous version's size.
        let old_len = self.peek(key).map(Payload::len);
        match (old_len, &value) {
            (None, Some(v)) => {
                self.live_keys += 1;
                self.live_user_bytes += key.len() as u64 + v.len();
            }
            (Some(ov), Some(nv)) => {
                self.live_user_bytes = self.live_user_bytes - ov + nv.len();
            }
            (Some(ov), None) => {
                self.live_keys -= 1;
                self.live_user_bytes -= key.len() as u64 + ov;
            }
            (None, None) => {}
        }
        let prev = self.memtable.insert(KeyBuf::new(key), value);
        let prev_bytes = prev
            .map(|p| key.len() as u64 + p.map_or(0, |v| v.len()) + self.config.entry_overhead_bytes)
            .unwrap_or(0);
        self.memtable_bytes = self.memtable_bytes - prev_bytes + rec;

        if self.memtable_bytes >= self.config.memtable_bytes {
            // Stall when the background worker is too far behind (the
            // L0-depth and pending-compaction-bytes stalls of RocksDB,
            // expressed as a completion-horizon lag) .
            let lagged = self.bg_done.saturating_since(t) > self.config.stall_lag;
            if lagged || self.levels[0].len() >= self.config.l0_stall_trigger {
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

    /// Functional lookup (no timing) — used for live-data accounting.
    fn peek(&self, key: &[u8]) -> Option<&Payload> {
        if let Some(v) = self.memtable.get(key) {
            return v.as_ref();
        }
        let hash = key_hash(key);
        for lvl in 0..self.levels.len() {
            for i in self.candidates(lvl, key).rev() {
                let meta = &self.levels[lvl][i];
                // Bloom filters have no false negatives, so consulting
                // one before the binary search cannot change the answer.
                if !meta.covers(key) || !meta.bloom.may_contain(hash) {
                    continue;
                }
                let data = &self.tables[&meta.file];
                if let Some(idx) = data.find(key) {
                    return data.entry(idx).1;
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

    /// Reads one table's index + data block for `key`, via block cache,
    /// page cache, then device.
    fn probe_table(
        &mut self,
        now: SimTime,
        file: FileId,
        key: &[u8],
    ) -> (SimTime, Option<Option<Payload>>) {
        let data = &self.tables[&file];
        let idx = data.find(key);
        let size = self.fs.size_of(file).expect("SST exists");
        let entries = data.len() as u64;
        // Index block: cached as block u64::MAX.
        let mut t = now;
        t = self.read_block(t, file, u64::MAX, size);
        let Some(idx) = idx else {
            // Bloom false positive: the index probe already told us no.
            return (t, None);
        };
        let block_no = (idx as u64 * size / entries.max(1)) / self.config.block_bytes;
        t = self.read_block(t, file, block_no, size);
        t = self.cpu.run(t, self.config.cost_block_parse);
        let data = &self.tables[&file];
        let (_, v) = data.entry(idx);
        (t, Some(v.cloned()))
    }

    /// One block through block cache -> page cache -> device.
    fn read_block(&mut self, now: SimTime, file: FileId, block_no: u64, size: u64) -> SimTime {
        if self.block_cache.touch(&(file.0, block_no)) {
            self.stats.block_cache_hits += 1;
            return self.cpu.run(now, self.config.cost_lookup);
        }
        self.stats.block_cache_misses += 1;
        let offset = if block_no == u64::MAX {
            // Index block lives at the tail.
            (size / self.config.block_bytes).saturating_sub(1) * self.config.block_bytes
        } else {
            block_no * self.config.block_bytes
        };
        let offset = offset.min(size.saturating_sub(1));
        let len = self.config.block_bytes.min(size - offset);
        if len == 0 {
            return self.cpu.run(now, self.config.cost_lookup);
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
        let entries: Vec<Entry> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let data = SstData::from_sorted(entries);
        let start = self.bg_done.max(now);
        let t = self.write_sst_chain(start, vec![data], 0, true);
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
    }

    /// Writes SST runs to `level`, returning the completion time.
    fn write_sst_chain(
        &mut self,
        start: SimTime,
        runs: Vec<SstData>,
        level: usize,
        is_flush: bool,
    ) -> SimTime {
        let mut t = start;
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
        for data in runs {
            if data.is_empty() {
                continue;
            }
            let size = data.user_bytes(self.config.entry_overhead_bytes);
            let cpu_work = self.config.cost_merge_entry * data.len() as u64;
            t = self.bg_cpu.run(t, cpu_work);
            let (t2, file) = self.fs.create(t, &mut self.bg_cpu);
            let t3 = self
                .fs
                .append(t2, &mut self.bg_cpu, &mut self.page_cache, file, size)
                .expect("SST write");
            t = self
                .fs
                .fsync(t3, &mut self.bg_cpu, file)
                .expect("SST fsync");
            if is_flush {
                self.stats.bytes_flushed += size;
            } else {
                self.stats.bytes_compacted += size;
            }
            let meta = SstMeta::describe(file, &data, size, self.config.bloom_bits_per_key);
            self.tables.insert(file, data);
            if level == 0 {
                self.levels[0].push(meta);
            } else {
                let pos = self.levels[level]
                    .binary_search_by(|m| m.min_key.cmp(&meta.min_key))
                    .unwrap_or_else(|e| e);
                self.levels[level].insert(pos, meta);
            }
        }
        t
    }

    /// Target size of level `i` (1-based levels).
    fn level_target(&self, level: usize) -> u64 {
        self.config.level_base_bytes
            * self
                .config
                .level_multiplier
                .pow(level.saturating_sub(1) as u32)
    }

    /// Runs compactions until no level violates its trigger.
    fn run_compactions(&mut self) {
        loop {
            if self.levels[0].len() >= self.config.l0_compaction_trigger {
                self.compact_l0();
                self.stats.compactions += 1;
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
                }
                _ => break,
            }
        }
    }

    fn compact_l0(&mut self) {
        let l0: Vec<SstMeta> = std::mem::take(&mut self.levels[0]);
        if self.levels.len() < 2 {
            self.levels.push(Vec::new());
        }
        let lo = l0.iter().map(|m| &m.min_key).min().expect("L0 files");
        let hi = l0.iter().map(|m| &m.max_key).max().expect("L0 files");
        let l1_in = self.take_overlapping(1, lo, hi);
        self.merge_into(l0, l1_in, 1);
    }

    fn compact_level(&mut self, level: usize) {
        let src = self.levels[level].remove(0);
        while self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        let next_in = self.take_overlapping(level + 1, &src.min_key, &src.max_key);
        self.merge_into(vec![src], next_in, level + 1);
    }

    /// Removes and returns the files of `level` overlapping `[lo, hi]`,
    /// in key order.
    fn take_overlapping(&mut self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<SstMeta> {
        let (taken, kept) = std::mem::take(&mut self.levels[level])
            .into_iter()
            .partition(|m| m.overlaps(lo, hi));
        self.levels[level] = kept;
        taken
    }

    /// Merges `upper` (oldest first, each file its own run) with `dest`
    /// (the output level's overlapping files: disjoint and key-ordered,
    /// so one chained run) into `out_level`, charging reads of every
    /// input, CPU merge work, writes of the outputs, and deleting
    /// (TRIM-ing) the inputs — which is why the merge may consume them.
    fn merge_into(&mut self, upper: Vec<SstMeta>, dest: Vec<SstMeta>, out_level: usize) {
        let mut t = self.bg_done;
        // Read every input through the fs (sequential, page-cache aware),
        // newest first.
        for m in upper.iter().rev().chain(&dest) {
            let size = self.fs.size_of(m.file).expect("input exists");
            if size > 0 {
                t = self
                    .fs
                    .read(t, &mut self.bg_cpu, &mut self.page_cache, m.file, 0, size)
                    .expect("compaction input read");
            }
        }
        let mut take = |m: &SstMeta| self.tables.remove(&m.file).expect("input table");
        let mut runs: Vec<Vec<SstData>> = upper.iter().rev().map(|m| vec![take(m)]).collect();
        runs.push(dest.iter().map(take).collect());
        let runs = runs
            .into_iter()
            .map(|chain| chain.into_iter().flat_map(SstData::into_entries))
            .collect();
        // Tombstones drop when merging into the bottom-most populated level.
        let bottom = (out_level + 1..self.levels.len()).all(|l| self.levels[l].is_empty());
        // Split into target-sized output files.
        let mut outputs = Vec::new();
        let mut cur: Vec<Entry> = Vec::new();
        let mut cur_bytes = 0u64;
        for (k, v) in merge_runs(runs, bottom) {
            cur_bytes += k.len() as u64
                + v.as_ref().map_or(0, Payload::len)
                + self.config.entry_overhead_bytes;
            cur.push((k, v));
            if cur_bytes >= self.config.sst_target_bytes {
                let next = Vec::with_capacity(cur.len());
                outputs.push(SstData::from_sorted(std::mem::replace(&mut cur, next)));
                cur_bytes = 0;
            }
        }
        if !cur.is_empty() {
            outputs.push(SstData::from_sorted(cur));
        }
        self.bg_done = t;
        let mut t = self.write_sst_chain(t, outputs, out_level, false);
        // Delete the inputs (whole-file TRIM on the device).
        for m in upper.iter().chain(&dest) {
            t = self
                .fs
                .delete(t, &mut self.bg_cpu, &mut self.page_cache, m.file)
                .expect("compaction input delete");
            self.block_cache.remove_if(|&(f, _)| f == m.file.0);
        }
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
        let g = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 16,
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
        assert!(
            s.levels[0].len() < s.config.l0_compaction_trigger,
            "L0 drained"
        );
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
        // candidate tables below L0 that one `get` or one `peek` (run by
        // every put) was handed, over present and absent keys, with the
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
                let peeked = s.peek(&key(i)).cloned();
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
