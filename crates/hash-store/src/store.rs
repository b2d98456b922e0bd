//! The hash-index store implementation.

use std::collections::VecDeque;

use kvssd_block_ftl::BlockSsd;
use kvssd_core::{KeyBuf, Payload};
use kvssd_host_stack::{CpuCosts, HostCpu};
use kvssd_sim::{PrehashedMap, SimDuration, SimTime};

/// Configuration of the hash-index store.
#[derive(Debug, Clone, Copy)]
pub struct HashStoreConfig {
    /// Record alignment on the device. Aerospike's record granularity is
    /// 128 B — the source of its < 2x small-record space amplification.
    pub record_align: u64,
    /// Per-record header bytes (metadata, generation, checksum;
    /// Aerospike-class ~40 B).
    pub record_header: u64,
    /// Write-block size: records buffer here and hit the device as one
    /// large sequential write.
    pub write_block_bytes: u64,
    /// Defragment write blocks whose live fraction falls below this.
    pub defrag_threshold: f64,
    /// Live records copied per write while defrag has eligible blocks.
    pub defrag_copies_per_write: u32,
    /// Host cores.
    pub host_cores: usize,
    /// CPU cost of a hash-index operation.
    pub cost_index_op: SimDuration,
}

impl HashStoreConfig {
    /// Aerospike-like defaults (write blocks scaled to 128 KiB).
    pub fn aerospike_like() -> Self {
        HashStoreConfig {
            record_align: 128,
            record_header: 40,
            write_block_bytes: 128 * 1024,
            defrag_threshold: 0.5,
            defrag_copies_per_write: 4,
            host_cores: 8,
            cost_index_op: SimDuration::from_micros(1),
        }
    }
}

impl Default for HashStoreConfig {
    fn default() -> Self {
        Self::aerospike_like()
    }
}

/// Store counters.
#[derive(Debug, Clone, Default)]
pub struct HashStoreStats {
    /// Puts applied.
    pub puts: u64,
    /// Gets served.
    pub gets: u64,
    /// Deletes applied.
    pub deletes: u64,
    /// Write blocks flushed to the device.
    pub blocks_flushed: u64,
    /// Records copied by defragmentation.
    pub defrag_copies: u64,
    /// Write blocks reclaimed by defragmentation.
    pub defrag_reclaims: u64,
}

#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    wblock: u32,
    /// The record's position in its write block's key list.
    slot: u32,
    offset: u64,
    len: u64,
}

// The slot packs beside the block number: an index entry stays 24 B.
const _: () = assert!(std::mem::size_of::<RecordLoc>() == 24);

#[derive(Debug, Clone, Copy, Default)]
struct WBlockMeta {
    live_bytes: u64,
    used_bytes: u64,
    /// Device sectors [0, flushed_hi) already written for this block.
    flushed_hi: u64,
    sealed: bool,
    /// On the defrag queue.
    queued: bool,
}

/// The device and its write-block layout: everything a record append
/// touches except the index, so that one index probe can stay borrowed
/// as the record's slot across the append.
#[derive(Debug)]
struct WriteBlocks {
    device: BlockSsd,
    block_bytes: u64,
    defrag_threshold: f64,
    meta: Vec<WBlockMeta>,
    /// The key of every record appended to each write block, at the
    /// record's `RecordLoc::slot`; `None` once the record is dead, so
    /// defrag skips it without probing the index. Inline key copies:
    /// pushing one is allocation-free on the put path.
    keys: Vec<Vec<Option<KeyBuf>>>,
    free: Vec<u32>,
    current: u32,
    defrag_queue: VecDeque<u32>,
}

// `KeyBuf`'s tag leaves a niche: a tombstone costs no byte.
const _: () = assert!(std::mem::size_of::<Option<KeyBuf>>() == 24);

/// The Aerospike-like store (see crate docs). Owns its device directly
/// (direct I/O — no filesystem, no page cache).
#[derive(Debug)]
pub struct HashStore {
    config: HashStoreConfig,
    cpu: HostCpu,
    costs: CpuCosts,
    index: PrehashedMap<KeyBuf, (RecordLoc, Payload)>,
    blocks: WriteBlocks,
    user_bytes: u64,
    stats: HashStoreStats,
    #[cfg(test)]
    probe: WorkProbe,
}

/// Deterministic work counters for the scale test.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct WorkProbe {
    /// Index lookups (one hash plus one table walk each).
    index_probes: u64,
    /// Entries defrag popped off a block's key list, tombstones included.
    defrag_pops: u64,
}

impl HashStore {
    /// Creates a store over a block device.
    pub fn new(device: BlockSsd, config: HashStoreConfig) -> Self {
        let n_wblocks = (device.capacity_bytes() / config.write_block_bytes) as u32;
        assert!(n_wblocks >= 4, "device too small for the write-block size");
        HashStore {
            cpu: HostCpu::new(config.host_cores),
            costs: CpuCosts::xeon_like(),
            index: PrehashedMap::default(),
            blocks: WriteBlocks {
                device,
                block_bytes: config.write_block_bytes,
                defrag_threshold: config.defrag_threshold,
                meta: vec![WBlockMeta::default(); n_wblocks as usize],
                keys: vec![Vec::new(); n_wblocks as usize],
                free: (1..n_wblocks).rev().collect(),
                current: 0,
                defrag_queue: VecDeque::new(),
            },
            user_bytes: 0,
            stats: HashStoreStats::default(),
            config,
            #[cfg(test)]
            probe: WorkProbe::default(),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> &HashStoreStats {
        &self.stats
    }

    /// The device underneath.
    pub fn device(&self) -> &BlockSsd {
        &self.blocks.device
    }

    /// Host CPU pool (for utilization reporting).
    pub fn cpu(&self) -> &HostCpu {
        &self.cpu
    }

    /// Live key count.
    pub fn len(&self) -> u64 {
        self.index.len() as u64
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of live user data (keys + values).
    pub fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    /// Bytes of live records only (post-defrag steady state — what the
    /// paper's "actual SSD space utilization" converges to).
    pub fn live_device_bytes(&self) -> u64 {
        self.blocks.meta.iter().map(|w| w.live_bytes).sum()
    }

    /// Inserts or updates a key.
    pub fn put(&mut self, now: SimTime, key: &[u8], value: Payload) -> SimTime {
        self.stats.puts += 1;
        let klen = key.len() as u64;
        let rec = self.record_bytes(klen, value.len());
        let t = self
            .cpu
            .run(now, self.config.cost_index_op + self.costs.memcpy(rec));
        self.user_bytes += klen + value.len();
        // One probe settles whether the key exists, yields the previous
        // version to invalidate, and is the slot the new one lands in.
        self.count_probe();
        let t = match self.index.get_mut(key) {
            Some(slot) => {
                self.user_bytes -= klen + slot.1.len();
                self.blocks.invalidate(slot.0);
                let (loc, t) = self.blocks.append(&mut self.stats, t, key, rec);
                *slot = (loc, value);
                t
            }
            None => {
                let (loc, t) = self.blocks.append(&mut self.stats, t, key, rec);
                // Only first-time keys pay a second walk: std has no
                // entry API for borrowed keys.
                self.count_probe();
                self.index.insert(KeyBuf::new(key), (loc, value));
                t
            }
        };
        // Defragmentation tax rides on writes.
        for _ in 0..self.config.defrag_copies_per_write {
            if !self.defrag_step(t) {
                break;
            }
        }
        t
    }

    /// Point lookup: index + one direct device read.
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> (SimTime, Option<Payload>) {
        self.stats.gets += 1;
        let t = self.cpu.run(now, self.config.cost_index_op);
        self.count_probe();
        let Some((loc, value)) = self.index.get(key) else {
            return (t, None);
        };
        let t = self.blocks.read(t, *loc);
        (t, Some(value.clone()))
    }

    /// Deletes a key.
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        self.stats.deletes += 1;
        let t = self.cpu.run(now, self.config.cost_index_op);
        self.count_probe();
        match self.index.remove(key) {
            Some((loc, v)) => {
                self.user_bytes -= key.len() as u64 + v.len();
                self.blocks.invalidate(loc);
                (t, true)
            }
            None => (t, false),
        }
    }

    /// End-of-phase barrier. Records are written through at append
    /// time, so this only flushes the device's own volatile state.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        self.blocks.device.flush(now)
    }

    // ----- internals -------------------------------------------------

    fn record_bytes(&self, key_len: u64, value_len: u64) -> u64 {
        (self.config.record_header + key_len + value_len).div_ceil(self.config.record_align)
            * self.config.record_align
    }

    /// Test probe: an index lookup is about to happen.
    #[inline]
    fn count_probe(&mut self) {
        #[cfg(test)]
        {
            self.probe.index_probes += 1;
        }
    }

    /// Copies one live record off the defrag queue's head block; reclaims
    /// the block when empty. Returns false when idle.
    fn defrag_step(&mut self, now: SimTime) -> bool {
        let Some(&wb) = self.blocks.defrag_queue.front() else {
            return false;
        };
        // Pop entries off the block's key list until one is live; dead
        // records left a tombstone and cost no probe. The probe of a
        // live one is also the slot the copy re-points.
        while let Some(entry) = self.blocks.keys.get_mut(wb as usize).and_then(Vec::pop) {
            #[cfg(test)]
            {
                self.probe.defrag_pops += 1;
            }
            let Some(key) = entry else {
                continue;
            };
            self.count_probe();
            let found = self.index.get_mut(key.as_slice());
            debug_assert!(
                found.as_ref().is_some_and(|(loc, _)| {
                    let popped = self.blocks.keys.get(wb as usize).map_or(0, Vec::len);
                    (loc.wblock, loc.slot as usize) == (wb, popped)
                }),
                "a live key-list entry must index its own record"
            );
            let Some((loc, _)) = found else {
                continue;
            };
            // Read the record and re-append it. Its entry is popped
            // already, so `invalidate` finds no slot to tombstone.
            let old = *loc;
            let _ = self.blocks.read(now, old);
            self.blocks.invalidate(old);
            (*loc, _) = self.blocks.append(&mut self.stats, now, &key, old.len);
            self.stats.defrag_copies += 1;
            return true;
        }
        // Block fully dead: TRIM and recycle it.
        self.blocks.reclaim(now, wb);
        self.stats.defrag_reclaims += 1;
        true
    }
}

impl WriteBlocks {
    /// Direct read of the enclosing 512 B sectors of a record.
    fn read(&mut self, now: SimTime, loc: RecordLoc) -> SimTime {
        let base = loc.wblock as u64 * self.block_bytes;
        let lo = loc.offset / 512 * 512;
        let hi = (loc.offset + loc.len).div_ceil(512) * 512;
        self.device
            .read(now, base + lo, hi - lo)
            .expect("record read")
    }

    /// Appends a `rec`-byte record for `key` and writes it through to the
    /// device at its offset (commit-to-device semantics: the paper's
    /// Aerospike runs with direct I/O). Returns where the record went,
    /// for the caller to put in the key's index slot, and the device
    /// completion.
    fn append(
        &mut self,
        stats: &mut HashStoreStats,
        now: SimTime,
        key: &[u8],
        rec: u64,
    ) -> (RecordLoc, SimTime) {
        let cur = self.current as usize;
        if self.meta[cur].used_bytes + rec > self.block_bytes {
            // Seal the block; its records are already on the device.
            self.meta[cur].sealed = true;
            stats.blocks_flushed += 1;
            self.maybe_queue_defrag(self.current);
            self.current = self.free.pop().expect("device sized for the working set");
        }
        let cur = self.current as usize;
        let w = &mut self.meta[cur];
        let offset = w.used_bytes;
        w.used_bytes += rec;
        w.live_bytes += rec;
        let keys = &mut self.keys[cur];
        if keys.capacity() == 0 {
            // A block's first record: room for as many records of its
            // size as the block holds, in one allocation. A reclaimed
            // block keeps its list's capacity (`reclaim` only clears it).
            keys.reserve_exact((self.block_bytes / rec) as usize);
        }
        let loc = RecordLoc {
            wblock: self.current,
            slot: keys.len() as u32,
            offset,
            len: rec,
        };
        keys.push(Some(KeyBuf::new(key)));
        // Commit-to-device writes flush the not-yet-written enclosing
        // 512 B sectors (records are 128 B-aligned inside the block; the
        // shared boundary sector was already flushed with its
        // predecessor and is patched in the device's write buffer).
        let lo = (offset / 512 * 512).max(w.flushed_hi);
        let hi = (offset + rec).div_ceil(512) * 512;
        if hi <= lo {
            return (loc, now);
        }
        w.flushed_hi = hi;
        let base = cur as u64 * self.block_bytes;
        let done = self
            .device
            .write(now, base + lo, hi - lo)
            .expect("record write");
        (loc, done)
    }

    /// Marks the record at `loc` dead: tombstones its key-list entry
    /// (unless defrag already popped it) and takes its bytes off the
    /// block's live count.
    fn invalidate(&mut self, loc: RecordLoc) {
        let keys = self.keys.get_mut(loc.wblock as usize);
        if let Some(entry) = keys.and_then(|k| k.get_mut(loc.slot as usize)) {
            *entry = None;
        }
        self.meta[loc.wblock as usize].live_bytes -= loc.len;
        self.maybe_queue_defrag(loc.wblock);
    }

    fn maybe_queue_defrag(&mut self, wblock: u32) {
        let current = self.current;
        let Some(w) = self.meta.get_mut(wblock as usize) else {
            return;
        };
        if w.sealed
            && w.used_bytes > 0
            && (w.live_bytes as f64) < self.defrag_threshold * w.used_bytes as f64
            && !w.queued
            && wblock != current
        {
            w.queued = true;
            self.defrag_queue.push_back(wblock);
        }
    }

    /// TRIMs the fully dead block at the head of the defrag queue and
    /// returns it to the free list.
    fn reclaim(&mut self, now: SimTime, wb: u32) {
        self.defrag_queue.pop_front();
        self.keys[wb as usize].clear();
        let _ = self
            .device
            .trim(now, wb as u64 * self.block_bytes, self.block_bytes)
            .expect("defrag trim");
        self.meta[wb as usize] = WBlockMeta::default();
        self.free.push(wb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_block_ftl::BlockFtlConfig;
    use kvssd_flash::{FlashTiming, Geometry};

    fn store() -> HashStore {
        store_with_blocks_per_plane(16)
    }

    fn store_with_blocks_per_plane(blocks_per_plane: u32) -> HashStore {
        let g = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane,
            pages_per_block: 16,
            page_bytes: 32 * 1024,
        };
        let dev = BlockSsd::new(g, FlashTiming::pm983_like(), BlockFtlConfig::pm983_like());
        HashStore::new(dev, HashStoreConfig::aerospike_like())
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key{i:013}").into_bytes()
    }

    #[test]
    fn put_get_round_trips() {
        let mut s = store();
        let t = s.put(SimTime::ZERO, b"alpha", Payload::from_bytes(vec![5; 50]));
        let (_, v) = s.get(t, b"alpha");
        assert_eq!(v.unwrap().as_bytes().unwrap(), &[5u8; 50][..]);
    }

    #[test]
    fn get_missing_is_cheap_none() {
        let mut s = store();
        let (t, v) = s.get(SimTime::ZERO, b"ghost");
        assert!(v.is_none());
        assert!(t.since(SimTime::ZERO) < SimDuration::from_micros(10));
    }

    #[test]
    fn small_records_have_sub_2x_space_amp() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..1000u64 {
            t = s.put(t, &key(i), Payload::synthetic(50, i));
        }
        // 16 B key + 50 B value + 64 B header = 130 -> 256 B record.
        let amp = s.live_device_bytes() as f64 / s.user_bytes() as f64;
        assert!(amp < 4.0, "amp {amp}");
        assert!(amp > 1.0);
        // Aerospike's paper value for 50 B values is ~1.8x; with the
        // 64 B header our 256 B records over 66 user bytes give ~3.9 --
        // check the 100 B-value case lands under 2.
        let mut s2 = store();
        for i in 0..1000u64 {
            let _done = s2.put(t, &key(i), Payload::synthetic(150, i));
        }
        let amp2 = s2.live_device_bytes() as f64 / s2.user_bytes() as f64;
        assert!(amp2 < 2.0, "amp2 {amp2}");
        let _ = t;
    }

    #[test]
    fn updates_invalidate_and_defrag_reclaims() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..2_000u64 {
            t = s.put(t, &key(i), Payload::synthetic(500, 0));
        }
        // Update everything: old records die, defrag must reclaim.
        for i in 0..2_000u64 {
            t = s.put(t, &key(i), Payload::synthetic(500, 1));
        }
        assert!(s.stats().defrag_reclaims > 0, "defrag never reclaimed");
        assert_eq!(s.len(), 2_000);
        // All values current.
        for i in (0..2_000).step_by(97) {
            let (_, v) = s.get(t, &key(i));
            assert_eq!(v, Some(Payload::synthetic(500, 1)));
        }
    }

    #[test]
    fn writes_stream_sequentially_through_write_blocks() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..1_000u64 {
            t = s.put(t, &key(i), Payload::synthetic(400, 0));
        }
        let _done = s.flush(t);
        // Blocks seal as they fill; records write through at ascending
        // offsets, which the block-SSD sees as a sequential stream.
        assert!(s.stats().blocks_flushed > 0);
        assert_eq!(s.device().stats().host_writes, 1_000);
    }

    #[test]
    fn delete_removes_and_frees_space() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = s.put(t, &key(i), Payload::synthetic(100, 0));
        }
        let live_before = s.live_device_bytes();
        for i in 0..100u64 {
            let (t2, existed) = s.delete(t, &key(i));
            t = t2;
            assert!(existed);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.user_bytes(), 0);
        assert!(s.live_device_bytes() < live_before);
        let (_, gone) = s.delete(t, &key(0));
        assert!(!gone);
    }

    #[test]
    fn inserts_are_fast_updates_pay_defrag() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        let n = 3_000u64;
        let mut insert_total = SimDuration::ZERO;
        for i in 0..n {
            let done = s.put(t, &key(i), Payload::synthetic(512, 0));
            insert_total += done.since(t);
            t = done;
        }
        let copies_before = s.stats().defrag_copies;
        let mut update_total = SimDuration::ZERO;
        for i in 0..n {
            let done = s.put(t, &key((i * 7) % n), Payload::synthetic(512, 1));
            update_total += done.since(t);
            t = done;
        }
        assert!(
            s.stats().defrag_copies > copies_before,
            "updates must trigger defrag copies"
        );
    }

    /// Overwrites leave dead records in every block defrag empties: it
    /// pops their tombstones without probing the index, and probes once
    /// per record it copies.
    #[test]
    fn defrag_probes_the_index_once_per_copy() {
        let mut s = store();
        let mut t = SimTime::ZERO;
        for i in 0..2_000u64 {
            t = s.put(t, &key(i), Payload::synthetic(500, 0));
        }
        let (was, before) = (s.probe, s.stats().clone());
        for round in 1..4u64 {
            for i in 0..2_000u64 {
                t = s.put(
                    t,
                    &key((i * 7 + round) % 2_000),
                    Payload::synthetic(500, round),
                );
            }
        }
        let puts = s.stats().puts - before.puts;
        let copies = s.stats().defrag_copies - before.defrag_copies;
        let pops = s.probe.defrag_pops - was.defrag_pops;
        assert!(copies > 0 && pops > copies, "{pops} pops, {copies} copies");
        assert_eq!(s.probe.index_probes - was.index_probes, puts + copies);
    }

    /// Index lookups per op over a 20 000-op Zipfian update/read mix on a
    /// store of `n` 512 B pairs: (per get, per put beyond its defrag
    /// copies).
    fn index_probes_per_op(n: u64) -> (f64, f64) {
        use kvssd_sim::{DeterministicRng, ZipfianDistribution};
        // 64 MiB of flash per 16 blocks a plane; 50 000 x 640 B records
        // with their dead versions need the second 64.
        let mut s = store_with_blocks_per_plane(32);
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = s.put(t, &key(i), Payload::synthetic(512, 0));
        }
        let zipf = ZipfianDistribution::new(n, 0.9);
        let mut rng = DeterministicRng::seed_from(7);
        let (mut get_probes, mut put_probes) = (0, 0);
        let before = s.stats().clone();
        for op in 0..20_000u64 {
            let k = key(zipf.sample(&mut rng));
            let (was, copies) = (s.probe, s.stats().defrag_copies);
            if rng.chance(0.5) {
                t = s.put(t, &k, Payload::synthetic(512, op));
                put_probes += s.probe.index_probes - was.index_probes;
                put_probes -= s.stats().defrag_copies - copies;
            } else {
                let (done, v) = s.get(t, &k);
                assert!(v.is_some());
                t = done;
                get_probes += s.probe.index_probes - was.index_probes;
            }
        }
        let (gets, puts) = (s.stats().gets - before.gets, s.stats().puts - before.puts);
        assert!(s.stats().defrag_copies > before.defrag_copies);
        (
            get_probes as f64 / gets as f64,
            put_probes as f64 / puts as f64,
        )
    }

    /// A fill of 3 000 keys (every fifth one 40 B, so it spills out of
    /// a `KeyBuf`), then `ops` seeded ops over 3 300 indices on a 32 MiB
    /// device: puts with values of 100 B–6 KiB, deletes and gets, which
    /// keep defrag copying and recycling write blocks. Folds every
    /// completion instant, each delete's answer, each get's hit or miss
    /// and payload tag, then `HashStoreStats`, `live_device_bytes()` and
    /// the device's counters.
    fn history_digest(seed: u64, ops: u64) -> u64 {
        use kvssd_sim::rng::mix64;
        use kvssd_sim::DeterministicRng;
        let history_key = |i: u64| {
            let mut k = key(i);
            if i.is_multiple_of(5) {
                k.extend_from_slice(&[b'L'; 24]);
            }
            k
        };
        let mut s = store_with_blocks_per_plane(8);
        let mut rng = DeterministicRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        let mut fold = seed;
        for i in 0..3_000 {
            t = s.put(t, &history_key(i), Payload::synthetic(2_000, i));
            fold = mix64(fold ^ t.as_nanos());
        }
        for op in 0..ops {
            let k = history_key(rng.below(3_300));
            let answer = match rng.below(10) {
                0..=5 => {
                    let len = 100 + rng.below(6_000) as u32;
                    t = s.put(t, &k, Payload::synthetic(len, op));
                    0
                }
                6 => {
                    let existed;
                    (t, existed) = s.delete(t, &k);
                    existed as u64
                }
                _ => {
                    let v;
                    (t, v) = s.get(t, &k);
                    match v {
                        Some(Payload::Synthetic { tag, .. }) => tag,
                        Some(Payload::Bytes(_)) => unreachable!("only synthetic values stored"),
                        None => u64::MAX,
                    }
                }
            };
            fold = mix64(mix64(fold ^ t.as_nanos()) ^ answer);
        }
        let HashStoreStats {
            puts,
            gets,
            deletes,
            blocks_flushed,
            defrag_copies,
            defrag_reclaims,
        } = *s.stats();
        assert!(defrag_copies > 0 && defrag_reclaims > 0, "{:?}", s.stats());
        let live = s.live_device_bytes();
        let counters = [puts, gets, deletes, blocks_flushed, defrag_copies];
        let device = s.device().stats().values();
        for v in counters
            .into_iter()
            .chain([defrag_reclaims, live])
            .chain(device)
        {
            fold = mix64(fold ^ v);
        }
        fold
    }

    /// `history_digest` at three seeds, 30 000 ops each. Pinned before
    /// the index took inline keys and the key lists took tombstones;
    /// never re-pinned: it holds defrag's copy order.
    const HASH_STORE_HISTORY: [(u64, u64); 3] = [
        (7, 0xC995_01A9_58E9_180C),
        (0x51, 0x0D73_284F_9C9D_91D3),
        (0xB0B, 0xEF27_6DEF_30F1_08B0),
    ];

    #[test]
    fn hash_store_matches_pinned_history() {
        for (seed, want) in HASH_STORE_HISTORY {
            let got = history_digest(seed, 30_000);
            assert_eq!(got, want, "seed {seed}: {got:#X}");
        }
    }

    #[test]
    fn index_work_per_op_does_not_grow_with_population() {
        let small = index_probes_per_op(5_000);
        let large = index_probes_per_op(50_000);
        assert_eq!(small, (1.0, 1.0));
        assert_eq!(large, small);
    }
}
