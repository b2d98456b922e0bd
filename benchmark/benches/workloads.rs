//! The five workloads: what is built, how it is filled, what the
//! measured phase does, and the adapters that let the driver count
//! failures instead of panicking on them.
//!
//! Sizes follow ISSUE 11. Populations are fixed; the measured op count
//! is `ops_per_second x --seconds`, a per-workload rate chosen so that
//! one `--seconds` second is about one host second on the 2-core
//! reference box at the commit that defined the benchmark. The op count,
//! not the clock, ends a run, so two commits always do identical work.

use kvssd_bench::setup;
use kvssd_block_ftl::BlockSsd;
use kvssd_cluster::{ClusterConfig, KvCluster};
use kvssd_core::{KvConfig, KvError, KvSsd, Payload};
use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
use kvssd_hash_store::{HashStore, HashStoreConfig};
use kvssd_host_stack::{ExtFs, HostCpu};
use kvssd_kvbench::{AccessPattern, KvSsdStore, KvStore};
use kvssd_lsm_store::{LsmConfig, LsmStore};
use kvssd_sim::{SimDuration, SimTime};

/// Measured segments per run (one more, run first, is the warm-up).
pub const SEGMENTS: u64 = 48;

/// Which system a workload builds and drives.
#[derive(Debug, Clone, Copy)]
pub enum System {
    /// One KV-SSD behind the stock `KvSsdStore`, with this much index DRAM.
    KvSsd { index_dram_bytes: u64 },
    /// Replicated KV-SSD cluster over a lossy fabric.
    Cluster,
    /// `LsmStore` on `ExtFs` on a block SSD.
    Lsm,
    /// `HashStore` doing direct I/O on a block SSD.
    Hash,
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub system: System,
    /// Pairs loaded during set-up.
    pub population: u64,
    pub value_bytes: u32,
    /// Measured-phase keys are drawn from `population * reach_pct / 100`
    /// indices; above 100 the excess are known misses.
    pub reach_pct: u64,
    pub read_pct: u8,
    pub pattern: AccessPattern,
    pub queue_depth: usize,
    /// Nominal measured ops per `--seconds` second.
    pub ops_per_second: u64,
    /// Hard cap on measured ops (known product limit), if any.
    pub max_ops: Option<u64>,
}

const ZIPF: AccessPattern = AccessPattern::Zipfian { theta: 0.9 };

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "kv_update_gc",
        system: System::KvSsd {
            index_dram_bytes: 4 << 20,
        },
        // 80 % of the scaled PM983's data capacity in 4 KiB pairs
        // (capacity * 0.8 / 4160, as fig6 sizes it).
        population: 551_349,
        value_bytes: 4096,
        reach_pct: 100,
        read_pct: 20,
        pattern: ZIPF,
        queue_depth: 32,
        ops_per_second: 700_000,
        max_ops: None,
    },
    Workload {
        name: "kv_read_overflow",
        // Index ~27x DRAM at 1.2 M entries (Fig. 3 "high" occupancy).
        system: System::KvSsd {
            index_dram_bytes: 2 << 20,
        },
        population: 1_200_000,
        value_bytes: 512,
        reach_pct: 110,
        read_pct: 100,
        pattern: AccessPattern::Uniform,
        queue_depth: 8,
        ops_per_second: 2_200_000,
        max_ops: None,
    },
    Workload {
        name: "cluster_quorum_fabric",
        system: System::Cluster,
        population: 200_000,
        value_bytes: 1024,
        reach_pct: 100,
        read_pct: 50,
        pattern: AccessPattern::Uniform,
        queue_depth: 16,
        ops_per_second: 380_000,
        max_ops: None,
    },
    Workload {
        name: "lsm_block_mixed",
        system: System::Lsm,
        population: 120_000,
        value_bytes: 4096,
        reach_pct: 100,
        read_pct: 70,
        pattern: ZIPF,
        queue_depth: 8,
        ops_per_second: 200_000,
        // `ExtFs::allocate` never coalesces holes: LSM runs panic with
        // `WAL writeback: NoSpace` somewhere past 2.4 M ops (README,
        // "Known limits"). Warm-up and probes must fit under it too.
        max_ops: Some(2_400_000),
    },
    Workload {
        name: "hash_block_mixed",
        system: System::Hash,
        population: 50_000,
        value_bytes: 4096,
        reach_pct: 100,
        read_pct: 50,
        pattern: ZIPF,
        queue_depth: 8,
        ops_per_second: 50_000,
        max_ops: None,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Ops per measured segment for a run of `seconds`, at `1/shrink` size.
    pub fn segment_ops(&self, seconds: u64, shrink: u64) -> u64 {
        let total = self.ops_per_second * seconds / shrink;
        let total = self.max_ops.map_or(total, |cap| total.min(cap));
        (total / SEGMENTS).max(16)
    }
}

/// Every counter the per-layer metrics are built from, flattened to
/// integers (durations in virtual ns) so a measured-phase delta is one
/// subtraction and the sim digest one fold. A system fills in the layers
/// it has; the rest stay zero.
macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64),* }

        impl Counts {
            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field),* }
            }

            /// Every field's value, in declaration order.
            pub fn values(&self) -> Vec<u64> {
                vec![$(self.$field),*]
            }
        }
    };
}

counts! {
    // flash (summed over every device of the system)
    flash_reads, flash_programs, flash_erases, flash_bytes_written, die_busy_ns,
    // core (KV firmware; summed over shards in the cluster)
    kv_stores, kv_retrieves, kv_not_found, kv_bloom_negatives, kv_split_stores,
    kv_gc_copied_segments, kv_gc_erases, kv_fg_gc_events, kv_stall_ns,
    kv_write_buffer_hits, kv_index_flash_reads, kv_index_merges,
    // nvme submission queues (cluster shards)
    sq_submitted, sq_doorbells, sq_full_stalls, sq_stall_ns,
    // cluster
    cl_leg_retries, cl_retry_rescued, cl_hedged_read_spares, cl_hedged_write_spares,
    cl_dup_suppressed,
    // fabric
    fab_requests, fab_responses, fab_bytes, fab_dropped, fab_duplicated, fab_queue_stalls,
    // lsm-store
    lsm_puts, lsm_gets, lsm_flushes, lsm_compactions, lsm_stalls, lsm_stall_ns,
    lsm_bytes_flushed, lsm_bytes_compacted, lsm_memtable_gets, lsm_block_cache_hits,
    lsm_block_cache_misses,
    // host-stack
    fs_cache_hits, fs_cache_misses, fs_bytes_written, fs_creates, fs_journal_writes,
    cpu_busy_ns,
    // block-ftl
    blk_writes, blk_reads, blk_bytes_written, blk_bytes_read, blk_rmw_reads,
    blk_gc_copied_clusters, blk_gc_erases, blk_fg_gc_events, blk_stall_ns,
    // hash-store
    hash_puts, hash_gets, hash_blocks_flushed, hash_defrag_copies, hash_defrag_reclaims,
}

impl Counts {
    fn add_flash(&mut self, f: &kvssd_flash::FlashDevice) {
        let s = f.stats();
        self.flash_reads += s.reads;
        self.flash_programs += s.programs;
        self.flash_erases += s.erases;
        self.flash_bytes_written += s.bytes_written;
        self.die_busy_ns += f.die_busy_total().as_nanos();
    }

    pub fn add_kv_device(&mut self, d: &KvSsd) {
        self.add_flash(d.flash());
        let s = d.stats();
        self.kv_stores += s.stores;
        self.kv_retrieves += s.retrieves;
        self.kv_not_found += s.not_found;
        self.kv_bloom_negatives += s.bloom_negatives;
        self.kv_split_stores += s.split_stores;
        self.kv_gc_copied_segments += s.gc_copied_segments;
        self.kv_gc_erases += s.gc_erases;
        self.kv_fg_gc_events += s.foreground_gc_events;
        self.kv_stall_ns += s.stall_time.as_nanos();
        self.kv_write_buffer_hits += s.write_buffer_hits;
        let i = d.index_stats();
        self.kv_index_flash_reads += i.lookup_flash_reads;
        self.kv_index_merges += i.merges;
    }

    pub fn add_block_device(&mut self, d: &BlockSsd) {
        self.add_flash(d.flash());
        let s = d.stats();
        self.blk_writes += s.host_writes;
        self.blk_reads += s.host_reads;
        self.blk_bytes_written += s.host_bytes_written;
        self.blk_bytes_read += s.host_bytes_read;
        self.blk_rmw_reads += s.rmw_reads;
        self.blk_gc_copied_clusters += s.gc_copied_clusters;
        self.blk_gc_erases += s.gc_erases;
        self.blk_fg_gc_events += s.foreground_gc_events;
        self.blk_stall_ns += s.stall_time.as_nanos();
    }
}

/// A value's identity as the model map holds it.
pub type LenTag = (u32, u64);

fn len_tag(p: &Payload) -> LenTag {
    match p {
        Payload::Synthetic { len, tag } => (*len, *tag),
        Payload::Bytes(b) => (b.len() as u32, 0),
    }
}

/// A system under test as the driver sees it: fallible puts and gets in
/// virtual time, plus the counters and live handles the per-layer
/// probes need. Implemented by the stock [`KvSsdStore`] and by the three
/// adapters below.
pub trait Sut {
    fn label(&self) -> &'static str;
    fn put(&mut self, now: SimTime, key: &[u8], len: u32, tag: u64) -> Result<SimTime, KvError>;
    /// Timed lookup; `(completion, found)`.
    fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError>;
    /// Untimed lookup for the verification pass: what the system holds.
    fn fetch(&mut self, now: SimTime, key: &[u8]) -> Result<Option<LenTag>, KvError>;
    fn flush(&mut self, now: SimTime) -> SimTime;
    /// Modelled host CPU consumed so far.
    fn cpu_busy(&self) -> SimDuration;
    /// Media bytes per live user byte right now.
    fn space_amp(&self) -> f64;
    fn counts(&self) -> Counts;
    /// Flash dies across all devices (denominator of die utilisation).
    fn dies(&self) -> u64;
    /// Key counts per shard (one entry for single-device systems).
    fn shard_keys(&self) -> Vec<u64>;
    /// Live handles for the per-layer probes.
    fn live(&mut self) -> Live<'_>;
}

/// The live object a workload leaves behind, for on-state unit-cost
/// probes. Lower layers the top store does not expose mutably are probed
/// on stand-alone instances instead (see `layers.rs`).
pub enum Live<'a> {
    Kv(&'a mut KvSsd),
    Cluster(&'a mut KvCluster),
    Lsm(&'a mut LsmStore),
    Hash(&'a mut HashStore),
}

impl Sut for KvSsdStore {
    fn label(&self) -> &'static str {
        self.name()
    }

    fn put(&mut self, now: SimTime, key: &[u8], len: u32, tag: u64) -> Result<SimTime, KvError> {
        Ok(self.insert(now, key, len, tag))
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        Ok(self.read(now, key))
    }

    fn fetch(&mut self, now: SimTime, key: &[u8]) -> Result<Option<LenTag>, KvError> {
        let l = self.device_mut().retrieve(now, key)?;
        Ok(l.value.as_ref().map(len_tag))
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        KvStore::flush(self, now)
    }

    fn cpu_busy(&self) -> SimDuration {
        self.host_cpu_busy()
    }

    fn space_amp(&self) -> f64 {
        self.device().space().amplification()
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_kv_device(self.device());
        c.cpu_busy_ns = self.host_cpu_busy().as_nanos();
        c
    }

    fn dies(&self) -> u64 {
        self.device().flash().geometry().dies() as u64
    }

    fn shard_keys(&self) -> Vec<u64> {
        vec![self.device().len()]
    }

    fn live(&mut self) -> Live<'_> {
        Live::Kv(self.device_mut())
    }
}

/// The cluster behind the same thin API library as the stock
/// `ClusterStore` (1 us per call on an 8-core `HostCpu`), but returning
/// `QuorumUnavailable` to the driver, which counts it, where the stock
/// adapter would panic.
#[derive(Debug)]
pub struct ClusterSut {
    cluster: KvCluster,
    host: HostCpu,
    api_cost: SimDuration,
}

impl Sut for ClusterSut {
    fn label(&self) -> &'static str {
        "KV-SSD cluster"
    }

    fn put(&mut self, now: SimTime, key: &[u8], len: u32, tag: u64) -> Result<SimTime, KvError> {
        let t = self.host.run(now, self.api_cost);
        self.cluster.store(t, key, Payload::synthetic(len, tag))
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        let t = self.host.run(now, self.api_cost);
        let l = self.cluster.retrieve(t, key)?;
        Ok((l.at, l.value.is_some()))
    }

    fn fetch(&mut self, now: SimTime, key: &[u8]) -> Result<Option<LenTag>, KvError> {
        Ok(self.cluster.retrieve(now, key)?.value.as_ref().map(len_tag))
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        // A flush that cannot reach its quorum leaves the phase clock
        // where it was; the failed legs already show in the counters.
        self.cluster.flush(now).unwrap_or(now)
    }

    fn cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn space_amp(&self) -> f64 {
        self.cluster.space().amplification()
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for shard in self.cluster.shards() {
            c.add_kv_device(shard.device());
            let sq = shard.sq_stats();
            c.sq_submitted += sq.submitted;
            c.sq_doorbells += sq.doorbells;
            c.sq_full_stalls += sq.full_stalls;
            c.sq_stall_ns += sq.stall_time.as_nanos();
        }
        let s = self.cluster.stats();
        c.cl_leg_retries = s.leg_retries;
        c.cl_retry_rescued = s.retry_rescued_ops;
        c.cl_hedged_read_spares = s.hedged_spares;
        c.cl_hedged_write_spares = s.hedged_write_spares;
        c.cl_dup_suppressed = s.dup_suppressed;
        c.fab_requests = s.transport.requests;
        c.fab_responses = s.transport.responses;
        c.fab_bytes = s.transport.bytes;
        c.fab_dropped = s.transport.dropped;
        c.fab_duplicated = s.transport.duplicated;
        c.fab_queue_stalls = s.transport.queue_stalls;
        c.cpu_busy_ns = self.host.busy_total().as_nanos();
        c
    }

    fn dies(&self) -> u64 {
        self.cluster
            .shards()
            .iter()
            .map(|s| s.device().flash().geometry().dies() as u64)
            .sum()
    }

    fn shard_keys(&self) -> Vec<u64> {
        self.cluster
            .shards()
            .iter()
            .map(|s| s.key_count() as u64)
            .collect()
    }

    fn live(&mut self) -> Live<'_> {
        Live::Cluster(&mut self.cluster)
    }
}

/// `LsmStore` on `ExtFs` on `BlockSsd`; owns the store (the stock
/// `LsmKvStore` only lends it immutably, and the verification pass and
/// probes need `&mut`).
#[derive(Debug)]
pub struct LsmSut(LsmStore);

impl Sut for LsmSut {
    fn label(&self) -> &'static str {
        "RocksDB"
    }

    fn put(&mut self, now: SimTime, key: &[u8], len: u32, tag: u64) -> Result<SimTime, KvError> {
        Ok(self.0.put(now, key, Payload::synthetic(len, tag)))
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        let (t, v) = self.0.get(now, key);
        Ok((t, v.is_some()))
    }

    fn fetch(&mut self, now: SimTime, key: &[u8]) -> Result<Option<LenTag>, KvError> {
        Ok(self.0.get(now, key).1.as_ref().map(len_tag))
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.0.flush_all(now)
    }

    fn cpu_busy(&self) -> SimDuration {
        self.0.cpu_busy_total()
    }

    fn space_amp(&self) -> f64 {
        self.0.disk_bytes() as f64 / self.0.user_bytes().max(1) as f64
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_block_device(self.0.fs().device());
        let s = self.0.stats();
        c.lsm_puts = s.puts;
        c.lsm_gets = s.gets;
        c.lsm_flushes = s.flushes;
        c.lsm_compactions = s.compactions;
        c.lsm_stalls = s.stalls;
        c.lsm_stall_ns = s.stall_time.as_nanos();
        c.lsm_bytes_flushed = s.bytes_flushed;
        c.lsm_bytes_compacted = s.bytes_compacted;
        c.lsm_memtable_gets = s.gets_from_memtable;
        c.lsm_block_cache_hits = s.block_cache_hits;
        c.lsm_block_cache_misses = s.block_cache_misses;
        let f = self.0.fs().stats();
        c.fs_cache_hits = f.cache_hits;
        c.fs_cache_misses = f.cache_misses;
        c.fs_bytes_written = f.bytes_written;
        c.fs_creates = f.creates;
        c.fs_journal_writes = f.journal_writes;
        c.cpu_busy_ns = self.0.cpu_busy_total().as_nanos();
        c
    }

    fn dies(&self) -> u64 {
        self.0.fs().device().flash().geometry().dies() as u64
    }

    fn shard_keys(&self) -> Vec<u64> {
        vec![self.0.len()]
    }

    fn live(&mut self) -> Live<'_> {
        Live::Lsm(&mut self.0)
    }
}

/// `HashStore` doing direct I/O on a `BlockSsd`; owns the store for the
/// same reason as [`LsmSut`].
#[derive(Debug)]
pub struct HashSut(HashStore);

impl Sut for HashSut {
    fn label(&self) -> &'static str {
        "Aerospike"
    }

    fn put(&mut self, now: SimTime, key: &[u8], len: u32, tag: u64) -> Result<SimTime, KvError> {
        Ok(self.0.put(now, key, Payload::synthetic(len, tag)))
    }

    fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        let (t, v) = self.0.get(now, key);
        Ok((t, v.is_some()))
    }

    fn fetch(&mut self, now: SimTime, key: &[u8]) -> Result<Option<LenTag>, KvError> {
        Ok(self.0.get(now, key).1.as_ref().map(len_tag))
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.0.flush(now)
    }

    fn cpu_busy(&self) -> SimDuration {
        self.0.cpu().busy_total()
    }

    fn space_amp(&self) -> f64 {
        self.0.live_device_bytes() as f64 / self.0.user_bytes().max(1) as f64
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_block_device(self.0.device());
        let s = self.0.stats();
        c.hash_puts = s.puts;
        c.hash_gets = s.gets;
        c.hash_blocks_flushed = s.blocks_flushed;
        c.hash_defrag_copies = s.defrag_copies;
        c.hash_defrag_reclaims = s.defrag_reclaims;
        c.cpu_busy_ns = self.0.cpu().busy_total().as_nanos();
        c
    }

    fn dies(&self) -> u64 {
        self.0.device().flash().geometry().dies() as u64
    }

    fn shard_keys(&self) -> Vec<u64> {
        vec![self.0.len()]
    }

    fn live(&mut self) -> Live<'_> {
        Live::Hash(&mut self.0)
    }
}

/// Shards, replicas and link shape of `cluster_quorum_fabric`.
pub const CLUSTER_SHARDS: usize = 8;
pub const CLUSTER_REPLICAS: usize = 3;

pub fn build_kv(index_dram_bytes: u64) -> KvSsdStore {
    setup::kv_ssd_with(KvConfig {
        index_dram_bytes,
        ..setup::kv_config_macro()
    })
}

pub fn build_cluster(seed: u64) -> ClusterSut {
    let us = SimDuration::from_micros;
    let config = ClusterConfig::new(CLUSTER_SHARDS, seed)
        .replication(CLUSTER_REPLICAS)
        .lean_reads(Some(us(200)))
        .deadlines(us(500), 2)
        .hedged_writes(Some(us(200)));
    let link = LinkConfig::datacenter()
        .latency(us(15))
        .jitter(us(5))
        .drop_ppm(10_000);
    let fabric = Fabric::new(FabricConfig::new(seed, link), CLUSTER_SHARDS);
    let kv = setup::kv_config_macro();
    ClusterSut {
        cluster: KvCluster::with_transport(config, Box::new(fabric), |_| {
            KvSsd::new(setup::geometry(), setup::timing(), kv)
        }),
        host: HostCpu::new(8),
        api_cost: us(1),
    }
}

pub fn lsm_config() -> LsmConfig {
    LsmConfig::rocksdb_like_small_host()
}

pub fn build_lsm() -> LsmSut {
    LsmSut(LsmStore::new(
        ExtFs::format(setup::block_ssd()),
        lsm_config(),
    ))
}

pub fn build_hash() -> HashSut {
    HashSut(HashStore::new(
        setup::block_ssd(),
        HashStoreConfig::aerospike_like(),
    ))
}
