//! Per-layer metrics, measured from outside the layers.
//!
//! A layer is a crate directory. Its share of a workload's host time is
//! **unit cost x count**: counts are measured-phase deltas of the
//! layer's public statistics (exact), unit costs are host ns per call of
//! its public entry points, timed here in batches on the state the
//! workload left behind. What the layers do not explain is reported as
//! `bench.unattributed_ns_per_op`.

use std::collections::BTreeMap;
use std::hint::black_box;

use kvssd_bench::setup;
use kvssd_cluster::ClusterConfig;
use kvssd_core::{hash::key_hash, KvSsd, Payload};
use kvssd_flash::{BlockId, FlashDevice, PageAddr};
use kvssd_host_stack::{ExtFs, HostCpu, LruCache, PageCache};
use kvssd_kvbench::keys::KeyGen;
use kvssd_kvbench::{run_phase, KvStore, OpMix, SpaceUsage, WorkloadSpec};
use kvssd_nvme::{NvmeConfig, NvmeLink, SubmissionQueue};
use kvssd_sim::rng::mix64;
use kvssd_sim::{LatencyHistogram, PrehashedMap, QueueRunner, SimDuration, SimTime};

use crate::host::{self, Clock, Tracer};
use crate::run::{Driver, Key, Metric, KEY_BYTES};
use crate::workloads::{self, Counts, Live, Sut, Workload, CLUSTER_REPLICAS, CLUSTER_SHARDS};

/// Every host unit cost the benchmark reports (ns per call). A layer
/// that does no work on a workload is not probed there and reads 0.
const UNIT_COSTS: [&str; 29] = [
    "kvbench.plan_ns_per_op",
    "kvbench.keygen_ns",
    "sim.histogram_record_ns",
    "sim.queue_runner_submit_ns",
    "sim.prehash_lookup_ns",
    "nvme.sq_submit_ns",
    "nvme.link_submit_ns",
    "flash.read_page_ns",
    "flash.program_page_ns",
    "flash.erase_block_ns",
    "core.store_ns",
    "core.retrieve_ns",
    "core.retrieve_miss_ns",
    "cluster.ring_lookup_ns",
    "cluster.store_ns",
    "cluster.retrieve_ns",
    "fabric.request_ns",
    "fabric.response_ns",
    "lsm-store.put_ns",
    "lsm-store.get_ns",
    "host-stack.fs_append_ns",
    "host-stack.fs_read_ns",
    "host-stack.lru_touch_ns",
    "block-ftl.write_ns",
    "block-ftl.read_ns",
    "block-ftl.trim_ns",
    "hash-store.put_ns",
    "hash-store.get_ns",
    "bench.driver_ns_per_op",
];

/// Batches per unit cost.
const BATCHES: usize = 15;
/// Calls per batch unless a probe says otherwise.
const CALLS: usize = 1_000;
/// Stores per batch on a live KV device: garbage collection comes in
/// bursts many thousands of stores apart, so the probe must span several
/// (15 000 stores of `kv_update_gc` read 590 ns each, 300 000 read 1 350).
const GC_STORE_CALLS: usize = 20_000;
/// LSM puts per batch: the large compactions (70 ms of host time each)
/// come about every 15 000 puts. More would not fit under the workload's
/// op cap (see `Workload::max_ops`).
const LSM_PUT_CALLS: usize = 4_000;

/// What the measured phase of a traced run hands to this module.
pub struct Measured {
    pub workload: &'static Workload,
    pub population: u64,
    pub seg_ops: u64,
    pub ops: u64,
    pub delta: Counts,
    pub client_writes: u64,
    pub client_reads: u64,
    pub user_bytes: u64,
    pub sim_ns: u64,
    /// Virtual time at which the measured phase ended; probes continue
    /// from here.
    pub sim_end: SimTime,
    /// p99.9 latencies (virtual us) of the phase the end-to-end write and
    /// read metrics describe.
    pub read_p999_us: f64,
    pub write_p999_us: f64,
    pub dies: u64,
    pub shard_keys: Vec<u64>,
    /// Host ns per op over all measured segments.
    pub host_ns_per_op: f64,
    /// Median host ns per op of the segments that recorded batch spans,
    /// and of those that did not.
    pub traced_ns_per_op: f64,
    pub untraced_ns_per_op: f64,
    pub alloc_bytes: u64,
    pub cpu_ns: u64,
    pub runq_ns: u64,
    pub calib_ns: f64,
    pub calib_drift_pct: f64,
    pub segment_iqr_pct: f64,
}

/// Times entry points in batches and keeps the medians.
struct Prober<'a> {
    clock: Clock,
    tracer: &'a mut Tracer,
    parent: u32,
    units: BTreeMap<&'static str, f64>,
}

impl Prober<'_> {
    /// Times `BATCHES` batches of `calls` calls of `f`, which receives
    /// the call's index over the whole probe; returns ns per call of
    /// each batch.
    fn batches(&mut self, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
        let mut per_call = Vec::with_capacity(BATCHES);
        for batch in 0..BATCHES {
            let span = self.tracer.begin(name, Some(self.parent));
            let t0 = self.clock.secs();
            for i in batch * calls..(batch + 1) * calls {
                f(i);
            }
            per_call.push((self.clock.secs() - t0) * 1e9 / calls as f64);
            self.tracer.end(span);
        }
        per_call
    }

    /// Prices a call that does the same work every time: the median of
    /// its batches, which a stray interrupt cannot move.
    fn time(&mut self, name: &'static str, calls: usize, f: impl FnMut(usize)) {
        let per_call = self.batches(name, calls, f);
        self.units.insert(name, host::median(&per_call));
    }

    /// Prices an entry point of a live store, arriving through a
    /// [`ClosedLoop`]. Such calls carry amortised background work
    /// (garbage collection, compaction, defragmentation) that comes in
    /// bursts longer than a batch, and the bursts are the cost: the
    /// price is the mean over all batches, where a median would drop
    /// them. The loop's own submit cost (priced by `probe_common`) is
    /// taken back out.
    fn time_closed(
        &mut self,
        name: &'static str,
        calls: usize,
        lp: &mut ClosedLoop,
        mut f: impl FnMut(usize, SimTime) -> Option<SimTime>,
    ) {
        let per_call = self.batches(name, calls, |i| lp.run(|t| f(i, t)));
        let mean = per_call.iter().sum::<f64>() / per_call.len() as f64;
        let submit = self.units["sim.queue_runner_submit_ns"];
        self.units.insert(name, mean - submit);
    }
}

/// A closed loop at the workload's queue depth, continuing from where
/// the measured phase stopped. Live probes arrive through it so the
/// system stays in the regime the workload left it in: a probe that
/// waited for every completion would hand a saturated device idle time
/// to collect garbage in, and price a cheaper call.
struct ClosedLoop(QueueRunner);

impl ClosedLoop {
    fn new(depth: usize, start: SimTime) -> Self {
        ClosedLoop(QueueRunner::starting_at(depth, start))
    }

    /// Runs `op` at the next issue time; `op` returns its completion, or
    /// `None` on failure, which frees the slot at once.
    fn run(&mut self, op: impl FnOnce(SimTime) -> Option<SimTime>) {
        self.0.submit(|issue| op(issue).unwrap_or(issue).max(issue));
    }
}

/// A `KvStore` that completes every op at its issue time. Replaying a
/// spec against it prices the planner, runner and recorder alone; with
/// `keys` set it also records the keys the spec plans, so probes can
/// replay the workload's own key distribution.
#[derive(Default)]
struct Replay {
    keys: Option<Vec<Key>>,
}

impl Replay {
    fn note(&mut self, key: &[u8]) {
        if let Some(keys) = &mut self.keys {
            keys.push(key.try_into().expect("16-byte keys"));
        }
    }
}

impl KvStore for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }
    fn insert(&mut self, now: SimTime, key: &[u8], _len: u32, _tag: u64) -> SimTime {
        self.note(key);
        now
    }
    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        self.note(key);
        (now, true)
    }
    fn delete(&mut self, now: SimTime, _key: &[u8]) -> SimTime {
        now
    }
    fn flush(&mut self, now: SimTime) -> SimTime {
        now
    }
    fn host_cpu_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }
    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: 1,
            stored_bytes: 1,
        }
    }
}

/// An empty system under test that completes every op at its issue
/// time, for pricing the driver itself.
struct NullSut;

impl Sut for NullSut {
    fn label(&self) -> &'static str {
        "null"
    }
    fn put(
        &mut self,
        now: SimTime,
        _k: &[u8],
        _l: u32,
        _t: u64,
    ) -> Result<SimTime, kvssd_core::KvError> {
        Ok(now)
    }
    fn get(&mut self, now: SimTime, _k: &[u8]) -> Result<(SimTime, bool), kvssd_core::KvError> {
        Ok((now, false))
    }
    fn fetch(
        &mut self,
        _n: SimTime,
        _k: &[u8],
    ) -> Result<Option<workloads::LenTag>, kvssd_core::KvError> {
        Ok(None)
    }
    fn flush(&mut self, now: SimTime) -> SimTime {
        now
    }
    fn cpu_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }
    fn space_amp(&self) -> f64 {
        1.0
    }
    fn counts(&self) -> Counts {
        Counts::default()
    }
    fn dies(&self) -> u64 {
        1
    }
    fn shard_keys(&self) -> Vec<u64> {
        Vec::new()
    }
    fn live(&mut self) -> Live<'_> {
        unreachable!("the null system has no layers to probe")
    }
}

/// `n` keys drawn the way the workload draws them from `key_space`.
fn planned_keys(w: &Workload, key_space: u64, n: usize, seed: u64) -> Vec<Key> {
    let spec = WorkloadSpec::new("probe-keys", n as u64, key_space.max(1))
        .mix(OpMix::UpdateOnly)
        .pattern(w.pattern)
        .key_bytes(KEY_BYTES)
        .seed(seed);
    let mut replay = Replay {
        keys: Some(Vec::with_capacity(n)),
    };
    run_phase(&mut replay, &spec, SimTime::ZERO);
    replay.keys.unwrap_or_default()
}

fn key_of(keygen: &KeyGen, index: u64) -> Key {
    keygen
        .key(index)
        .as_slice()
        .try_into()
        .expect("16-byte keys")
}

/// Mean bytes per call, rounded up to whole 512 B sectors.
fn mean_io_bytes(bytes: u64, calls: u64, default: u64) -> u64 {
    if calls == 0 {
        return default;
    }
    (bytes / calls).div_ceil(512).clamp(1, 2048) * 512
}

/// The three KV-firmware entry points on `dev`, whose population is
/// `hits`; `misses` are keys it does not hold.
fn probe_core(
    p: &mut Prober<'_>,
    dev: &mut KvSsd,
    lp: &mut ClosedLoop,
    hits: &[Key],
    misses: &[Key],
    value_bytes: u32,
    store_calls: usize,
) {
    p.time_closed("core.store_ns", store_calls, lp, |i, t| {
        let payload = Payload::synthetic(value_bytes, i as u64);
        dev.store(t, &hits[i % hits.len()], payload).ok()
    });
    p.time_closed("core.retrieve_ns", CALLS, lp, |i, t| {
        dev.retrieve(t, &hits[i % hits.len()]).ok().map(|l| l.at)
    });
    p.time_closed("core.retrieve_miss_ns", CALLS, lp, |i, t| {
        dev.retrieve(t, &misses[i % misses.len()])
            .ok()
            .map(|l| l.at)
    });
}

/// Probes that need no workload state: the planner, the sim primitives,
/// the NVMe queue and link, and the flash timing model.
fn probe_common(p: &mut Prober<'_>, m: &Measured, seed: u64) {
    let w = m.workload;
    let keygen = KeyGen::new(KEY_BYTES);

    // kvbench: the measured spec against a null store, one phase per
    // batch; then the same replay through the driver over an empty
    // system, which adds what the driver's model map and checks cost.
    let spec = crate::run::segment_spec(w, m.population, m.seg_ops, seed);
    let per_op = |per_phase: Vec<f64>| host::median(&per_phase) / m.seg_ops as f64;
    let plan = per_op(p.batches("kvbench.plan_ns_per_op", 1, |_| {
        black_box(run_phase(&mut Replay::default(), &spec, SimTime::ZERO));
    }));
    let mut driver = Driver::new(NullSut, m.population * 2, p.clock);
    let driven = per_op(p.batches("bench.driver_ns_per_op", 1, |_| {
        black_box(run_phase(&mut driver, &spec, SimTime::ZERO));
    }));
    p.units.insert("kvbench.plan_ns_per_op", plan);
    p.units.insert("bench.driver_ns_per_op", driven - plan);

    let mut key = Vec::with_capacity(KEY_BYTES);
    p.time("kvbench.keygen_ns", CALLS, |i| {
        keygen.key_into(mix64(i as u64) % m.population, &mut key);
        black_box(&key);
    });

    // sim
    let mut hist = LatencyHistogram::new();
    p.time("sim.histogram_record_ns", CALLS, |i| {
        hist.record(SimDuration::from_nanos(
            20_000 + (mix64(i as u64) & 0xF_FFFF),
        ));
    });
    let mut runner = QueueRunner::new(w.queue_depth);
    p.time("sim.queue_runner_submit_ns", CALLS, |i| {
        let service = SimDuration::from_nanos(20_000 + (mix64(i as u64) & 0xFFFF));
        black_box(runner.submit(|issue| issue + service));
    });
    let entries = m.population.min(1 << 20);
    let map: PrehashedMap<u64, u64> = (0..entries).map(|i| (mix64(i), i)).collect();
    p.time("sim.prehash_lookup_ns", CALLS, |i| {
        black_box(map.get(&mix64(mix64(i as u64) % entries)));
    });
    drop(map);

    // nvme
    let mut sq = SubmissionQueue::new(ClusterConfig::default().sq);
    let mut now = SimTime::ZERO;
    p.time("nvme.sq_submit_ns", CALLS, |_| {
        now += SimDuration::from_micros(1);
        black_box(sq.submit(now, |issue| issue + SimDuration::from_micros(50)));
    });
    let mut link = NvmeLink::new(NvmeConfig::pm983_like());
    let mut t = SimTime::ZERO;
    p.time("nvme.link_submit_ns", CALLS, |_| {
        let fe = link.submit(t, 1, w.value_bytes as u64);
        t = link.complete(fe, 0);
    });

    // flash: program fresh pages, read them back, erase blocks.
    let g = setup::geometry();
    let mut flash = FlashDevice::new(g, setup::timing());
    let page_bytes = g.page_bytes as u64;
    let mut t = SimTime::ZERO;
    p.time("flash.program_page_ns", CALLS, |i| {
        let addr = PageAddr {
            block: BlockId(i as u32 / g.pages_per_block),
            page: i as u32 % g.pages_per_block,
        };
        t = flash
            .program_page(t, addr, page_bytes)
            .expect("fresh page")
            .done;
    });
    let programmed = (BATCHES * CALLS) as u64;
    p.time("flash.read_page_ns", CALLS, |i| {
        let n = (mix64(i as u64) % programmed) as u32;
        let addr = PageAddr {
            block: BlockId(n / g.pages_per_block),
            page: n % g.pages_per_block,
        };
        t = flash
            .read_page(t, addr, page_bytes)
            .expect("programmed page");
    });
    p.time("flash.erase_block_ns", CALLS, |i| {
        let block = BlockId(i as u32 % g.total_blocks());
        t = flash.erase_block(t, block).expect("good block").done;
    });
}

/// A stand-alone block device under the workload's mean I/O sizes.
fn probe_block_ftl(p: &mut Prober<'_>, m: &Measured) {
    const REGION: u64 = 256 << 20;
    const CHUNK: u64 = 128 << 10;
    let mut dev = setup::block_ssd();
    let mut t = SimTime::ZERO;
    for off in (0..REGION).step_by(CHUNK as usize) {
        t = dev.write(t, off, CHUNK).expect("prefill in range");
    }
    let d = &m.delta;
    let wsize = mean_io_bytes(d.blk_bytes_written, d.blk_writes, 4096);
    let rsize = mean_io_bytes(d.blk_bytes_read, d.blk_reads, 4096);
    p.time("block-ftl.write_ns", CALLS, |i| {
        let off = mix64(i as u64) % (REGION / wsize) * wsize;
        t = dev.write(t, off, wsize).expect("write in range");
    });
    p.time("block-ftl.read_ns", CALLS, |i| {
        let off = mix64(i as u64) % (REGION / rsize) * rsize;
        t = dev.read(t, off, rsize).expect("read in range");
    });
    p.time("block-ftl.trim_ns", CALLS, |i| {
        let off = mix64(i as u64) % (REGION / 4096) * 4096;
        t = dev.trim(t, off, 4096).expect("trim in range");
    });
}

/// A stand-alone filesystem and caches shaped like the LSM store's.
fn probe_host_stack(p: &mut Prober<'_>, m: &Measured) {
    const SST_BYTES: u64 = 64 << 20;
    let cfg = workloads::lsm_config();
    let mut fs = ExtFs::format(setup::block_ssd());
    let mut cpu = HostCpu::new(cfg.host_cores);
    let mut cache = PageCache::new(cfg.page_cache_bytes);
    let (t, wal) = fs.create(SimTime::ZERO, &mut cpu);
    let (t, sst) = fs.create(t, &mut cpu);
    let t = fs
        .append(t, &mut cpu, &mut cache, sst, SST_BYTES)
        .expect("SST append");
    let mut t = fs.fsync(t, &mut cpu, sst).expect("SST fsync");
    let record = KEY_BYTES as u64 + m.workload.value_bytes as u64 + cfg.entry_overhead_bytes;
    p.time("host-stack.fs_append_ns", CALLS, |_| {
        t = fs
            .append(t, &mut cpu, &mut cache, wal, record)
            .expect("WAL append");
    });
    let blocks = SST_BYTES / cfg.block_bytes;
    p.time("host-stack.fs_read_ns", CALLS, |i| {
        let off = mix64(i as u64) % blocks * cfg.block_bytes;
        t = fs
            .read(t, &mut cpu, &mut cache, sst, off, cfg.block_bytes)
            .expect("SST read");
    });
    let capacity = (cfg.block_cache_bytes / cfg.block_bytes).max(1);
    let mut lru = LruCache::new(capacity as usize);
    for i in 0..capacity {
        lru.insert((0u64, i));
    }
    p.time("host-stack.lru_touch_ns", CALLS, |i| {
        black_box(lru.touch(&(0, mix64(i as u64) % (2 * capacity))));
    });
}

/// Unit costs on the live object the workload left behind, plus
/// stand-alone instances of the layers under it.
fn probe_live<S: Sut>(p: &mut Prober<'_>, m: &Measured, sut: &mut S, seed: u64) {
    let w = m.workload;
    let keygen = KeyGen::new(KEY_BYTES);
    let n = BATCHES * LSM_PUT_CALLS;
    let hits = planned_keys(w, m.population, n, seed);
    let misses: Vec<Key> = (0..CALLS as u64)
        .map(|i| key_of(&keygen, m.population * 2 + i))
        .collect();
    let vb = w.value_bytes;
    let mut lp = ClosedLoop::new(w.queue_depth, m.sim_end);
    match sut.live() {
        Live::Kv(dev) => probe_core(p, dev, &mut lp, &hits, &misses, vb, GC_STORE_CALLS),
        Live::Cluster(cluster) => {
            let mut replicas = Vec::with_capacity(CLUSTER_REPLICAS);
            p.time("cluster.ring_lookup_ns", CALLS, |i| {
                let h = key_hash(&hits[i % hits.len()]);
                cluster
                    .ring()
                    .replica_set_into(h, CLUSTER_REPLICAS, &mut replicas);
                black_box(&replicas);
            });
            p.time_closed("cluster.store_ns", CALLS, &mut lp, |i, t| {
                let payload = Payload::synthetic(vb, i as u64);
                cluster.store(t, &hits[i % hits.len()], payload).ok()
            });
            p.time_closed("cluster.retrieve_ns", CALLS, &mut lp, |i, t| {
                cluster
                    .retrieve(t, &hits[i % hits.len()])
                    .ok()
                    .map(|l| l.at)
            });
            let fabric = cluster.fabric_mut().expect("the cluster runs on a fabric");
            let request = kvssd_cluster::REQUEST_CAPSULE_BYTES + KEY_BYTES as u64 + vb as u64;
            p.time_closed("fabric.request_ns", CALLS, &mut lp, |i, t| {
                fabric.request(t, i % CLUSTER_SHARDS, request)
            });
            p.time_closed("fabric.response_ns", CALLS, &mut lp, |i, t| {
                fabric.response(t, i % CLUSTER_SHARDS, kvssd_cluster::RESPONSE_CAPSULE_BYTES)
            });
            // Shards are not reachable mutably: price the firmware on a
            // stand-alone device holding one shard's share of the pairs.
            let share = m.population * CLUSTER_REPLICAS as u64 / CLUSTER_SHARDS as u64;
            let mut dev = KvSsd::new(setup::geometry(), setup::timing(), setup::kv_config_macro());
            let mut at = SimTime::ZERO;
            let shard_hits: Vec<Key> = (0..share).map(|i| key_of(&keygen, i)).collect();
            for (i, key) in shard_hits.iter().enumerate() {
                at = dev
                    .store(at, key, Payload::synthetic(vb, i as u64))
                    .expect("shard-sized fill");
            }
            let scattered: Vec<Key> = (0..n as u64)
                .map(|i| shard_hits[(mix64(i) % share) as usize])
                .collect();
            let mut lp = ClosedLoop::new(w.queue_depth, at);
            probe_core(p, &mut dev, &mut lp, &scattered, &misses, vb, CALLS);
        }
        Live::Lsm(store) => {
            p.time_closed("lsm-store.put_ns", LSM_PUT_CALLS, &mut lp, |i, t| {
                Some(store.put(t, &hits[i % hits.len()], Payload::synthetic(vb, i as u64)))
            });
            p.time_closed("lsm-store.get_ns", CALLS, &mut lp, |i, t| {
                Some(store.get(t, &hits[i % hits.len()]).0)
            });
            probe_host_stack(p, m);
            probe_block_ftl(p, m);
        }
        Live::Hash(store) => {
            p.time_closed("hash-store.put_ns", CALLS, &mut lp, |i, t| {
                Some(store.put(t, &hits[i % hits.len()], Payload::synthetic(vb, i as u64)))
            });
            p.time_closed("hash-store.get_ns", CALLS, &mut lp, |i, t| {
                Some(store.get(t, &hits[i % hits.len()]).0)
            });
            probe_block_ftl(p, m);
        }
    }
}

/// `num / den`, or 0 when the denominator is (the layer was idle).
fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Count metrics: exact deltas of the layers' public statistics over the
/// measured phase, per client op.
fn count_metrics(m: &Measured) -> Vec<Metric> {
    let d = &m.delta;
    let ops = m.ops as f64;
    let kops = ops / 1e3;
    let user = m.user_bytes as f64;
    let f = |v: u64| v as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_keys = per(
        m.shard_keys.iter().sum::<u64>() as f64,
        m.shard_keys.len() as f64,
    );
    let max_keys = m.shard_keys.iter().copied().max().unwrap_or(0) as f64;
    let rows: Vec<(&str, f64, &'static str)> = vec![
        // The p99.9 tails ride here, unbounded: across seeds their spread
        // (30 % on `lsm_block_mixed` reads) is wider than any bound the
        // end-to-end list may carry, so that list reports p99.
        ("kvbench.sim_read_p999_us", m.read_p999_us, "sim_us"),
        ("kvbench.sim_write_p999_us", m.write_p999_us, "sim_us"),
        (
            "nvme.sq_full_stalls_per_kop",
            per(f(d.sq_full_stalls), kops),
            "1/kop",
        ),
        (
            "nvme.sq_stall_us_per_op",
            per(us(d.sq_stall_ns), ops),
            "sim_us/op",
        ),
        ("nvme.doorbells_per_op", per(f(d.sq_doorbells), ops), "1/op"),
        (
            "flash.page_reads_per_op",
            per(f(d.flash_reads), ops),
            "1/op",
        ),
        (
            "flash.page_programs_per_op",
            per(f(d.flash_programs), ops),
            "1/op",
        ),
        (
            "flash.erases_per_kop",
            per(f(d.flash_erases), kops),
            "1/kop",
        ),
        (
            "flash.die_util_pct",
            100.0 * per(f(d.die_busy_ns), f(m.dies * m.sim_ns)),
            "%",
        ),
        (
            "core.index_flash_reads_per_op",
            per(f(d.kv_index_flash_reads), ops),
            "1/op",
        ),
        (
            "core.index_merges_per_kop",
            per(f(d.kv_index_merges), kops),
            "1/kop",
        ),
        (
            "core.bloom_negative_pct",
            100.0 * per(f(d.kv_bloom_negatives), f(d.kv_retrieves)),
            "%",
        ),
        (
            "core.gc_copied_segs_per_op",
            per(f(d.kv_gc_copied_segments), ops),
            "1/op",
        ),
        (
            "core.gc_erases_per_kop",
            per(f(d.kv_gc_erases), kops),
            "1/kop",
        ),
        (
            "core.fg_gc_events_per_kop",
            per(f(d.kv_fg_gc_events), kops),
            "1/kop",
        ),
        (
            "core.stall_us_per_op",
            per(us(d.kv_stall_ns), ops),
            "sim_us/op",
        ),
        (
            "core.split_stores_pct",
            100.0 * per(f(d.kv_split_stores), f(d.kv_stores)),
            "%",
        ),
        (
            "core.write_buffer_hit_pct",
            100.0 * per(f(d.kv_write_buffer_hits), f(d.kv_retrieves)),
            "%",
        ),
        ("cluster.legs_per_op", per(f(d.fab_requests), ops), "1/op"),
        (
            "cluster.leg_retries_per_kop",
            per(f(d.cl_leg_retries), kops),
            "1/kop",
        ),
        (
            "cluster.retry_rescued_per_kop",
            per(f(d.cl_retry_rescued), kops),
            "1/kop",
        ),
        (
            "cluster.hedged_read_spares_per_kop",
            per(f(d.cl_hedged_read_spares), kops),
            "1/kop",
        ),
        (
            "cluster.hedged_write_spares_per_kop",
            per(f(d.cl_hedged_write_spares), kops),
            "1/kop",
        ),
        (
            "cluster.dup_suppressed_per_kop",
            per(f(d.cl_dup_suppressed), kops),
            "1/kop",
        ),
        (
            "cluster.shard_imbalance_pct",
            if m.shard_keys.len() > 1 {
                100.0 * per(max_keys - mean_keys, mean_keys)
            } else {
                0.0
            },
            "%",
        ),
        (
            "fabric.messages_per_op",
            per(f(d.fab_requests + d.fab_responses), ops),
            "1/op",
        ),
        ("fabric.bytes_per_op", per(f(d.fab_bytes), ops), "B/op"),
        (
            "fabric.dropped_pct",
            100.0 * per(f(d.fab_dropped), f(d.fab_requests + d.fab_responses)),
            "%",
        ),
        (
            "fabric.duplicated_pct",
            100.0 * per(f(d.fab_duplicated), f(d.fab_requests + d.fab_responses)),
            "%",
        ),
        (
            "fabric.queue_stalls_per_kop",
            per(f(d.fab_queue_stalls), kops),
            "1/kop",
        ),
        (
            "lsm-store.compactions_per_kop",
            per(f(d.lsm_compactions), kops),
            "1/kop",
        ),
        (
            "lsm-store.bytes_compacted_per_user_byte",
            per(f(d.lsm_bytes_compacted), user),
            "B/B",
        ),
        (
            "lsm-store.block_cache_hit_pct",
            100.0
                * per(
                    f(d.lsm_block_cache_hits),
                    f(d.lsm_block_cache_hits + d.lsm_block_cache_misses),
                ),
            "%",
        ),
        (
            "lsm-store.memtable_hit_pct",
            100.0 * per(f(d.lsm_memtable_gets), f(d.lsm_gets)),
            "%",
        ),
        (
            "lsm-store.stalls_per_kop",
            per(f(d.lsm_stalls), kops),
            "1/kop",
        ),
        (
            "lsm-store.stall_us_per_op",
            per(us(d.lsm_stall_ns), ops),
            "sim_us/op",
        ),
        (
            "host-stack.fs_cache_hit_pct",
            100.0 * per(f(d.fs_cache_hits), f(d.fs_cache_hits + d.fs_cache_misses)),
            "%",
        ),
        (
            "host-stack.fs_bytes_written_per_user_byte",
            per(f(d.fs_bytes_written), user),
            "B/B",
        ),
        (
            "host-stack.journal_writes_per_kop",
            per(f(d.fs_journal_writes), kops),
            "1/kop",
        ),
        (
            "host-stack.cpu_busy_us_per_op",
            per(us(d.cpu_busy_ns), ops),
            "sim_us/op",
        ),
        (
            "block-ftl.gc_copied_clusters_per_op",
            per(f(d.blk_gc_copied_clusters), ops),
            "1/op",
        ),
        (
            "block-ftl.gc_erases_per_kop",
            per(f(d.blk_gc_erases), kops),
            "1/kop",
        ),
        (
            "block-ftl.fg_gc_events_per_kop",
            per(f(d.blk_fg_gc_events), kops),
            "1/kop",
        ),
        (
            "block-ftl.rmw_reads_per_op",
            per(f(d.blk_rmw_reads), ops),
            "1/op",
        ),
        (
            "block-ftl.stall_us_per_op",
            per(us(d.blk_stall_ns), ops),
            "sim_us/op",
        ),
        (
            "block-ftl.dev_bytes_written_per_user_byte",
            per(f(d.blk_bytes_written), user),
            "B/B",
        ),
        (
            "hash-store.defrag_copies_per_op",
            per(f(d.hash_defrag_copies), ops),
            "1/op",
        ),
        (
            "hash-store.defrag_reclaims_per_kop",
            per(f(d.hash_defrag_reclaims), kops),
            "1/kop",
        ),
        (
            "hash-store.blocks_flushed_per_kop",
            per(f(d.hash_blocks_flushed), kops),
            "1/kop",
        ),
    ];
    rows.into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit, m.ops))
        .collect()
}

/// Host ns per client op each layer's entry points account for,
/// *including* the layers they call (unit cost x count / ops).
struct Inclusive {
    plan: f64,
    driver: f64,
    sim: f64,
    cluster: f64,
    fabric: f64,
    nvme_sq: f64,
    nvme_link: f64,
    core: f64,
    lsm: f64,
    hash: f64,
    host_stack: f64,
    block_writes: f64,
    block_reads: f64,
    flash: f64,
}

fn inclusive(m: &Measured, units: &BTreeMap<&'static str, f64>) -> Inclusive {
    let d = &m.delta;
    let ops = m.ops as f64;
    let u = |name: &str| units.get(name).copied().unwrap_or(0.0);
    let x = |name: &str, count: u64| u(name) * count as f64 / ops;
    let on_cluster = d.fab_requests > 0;
    let kv_hits = d.kv_retrieves - d.kv_not_found;
    // Work inside `ExtFs` and `LruCache`, in the units their probes
    // price: WAL-record-sized appends (larger appends pro rata by bytes),
    // pages touched by reads (block reads and whole-file compaction reads
    // alike), and one LRU touch per block-cache lookup.
    let record = KEY_BYTES as u64
        + m.workload.value_bytes as u64
        + workloads::lsm_config().entry_overhead_bytes;
    let fs_appends = d.fs_bytes_written / record;
    let fs_pages_read = d.fs_cache_hits + d.fs_cache_misses;
    let lru_touches = d.lsm_block_cache_hits + d.lsm_block_cache_misses;
    Inclusive {
        plan: u("kvbench.plan_ns_per_op"),
        driver: u("bench.driver_ns_per_op"),
        sim: u("sim.histogram_record_ns") + u("sim.queue_runner_submit_ns"),
        cluster: if on_cluster {
            x("cluster.store_ns", m.client_writes) + x("cluster.retrieve_ns", m.client_reads)
        } else {
            0.0
        },
        fabric: x("fabric.request_ns", d.fab_requests) + x("fabric.response_ns", d.fab_responses),
        nvme_sq: x("nvme.sq_submit_ns", d.sq_submitted),
        nvme_link: x(
            "nvme.link_submit_ns",
            d.kv_stores + d.kv_retrieves + d.blk_writes + d.blk_reads,
        ),
        core: x("core.store_ns", d.kv_stores)
            + x("core.retrieve_ns", kv_hits)
            + x("core.retrieve_miss_ns", d.kv_not_found),
        lsm: x("lsm-store.put_ns", d.lsm_puts) + x("lsm-store.get_ns", d.lsm_gets),
        hash: x("hash-store.put_ns", d.hash_puts) + x("hash-store.get_ns", d.hash_gets),
        host_stack: x("host-stack.fs_append_ns", fs_appends)
            + x("host-stack.fs_read_ns", fs_pages_read)
            + x("host-stack.lru_touch_ns", lru_touches),
        block_writes: x("block-ftl.write_ns", d.blk_writes),
        block_reads: x("block-ftl.read_ns", d.blk_reads),
        flash: x("flash.read_page_ns", d.flash_reads)
            + x("flash.program_page_ns", d.flash_programs)
            + x("flash.erase_block_ns", d.flash_erases),
    }
}

/// Self time per client op of each layer: its inclusive time minus that
/// of the layers it calls on this workload. The call tree is
///
/// ```text
/// kvbench -> sim (runner, recorder)
/// cluster -> core, fabric, nvme (submission queues)
/// lsm-store -> host-stack (WAL appends, block reads, LRU), block-ftl (writes)
/// host-stack -> block-ftl (reads)
/// hash-store -> block-ftl
/// core | block-ftl -> flash, nvme (link)
/// ```
///
/// so the selves sum to `plan + top-level store calls`, and whatever is
/// left of the measured ns/op is unattributed.
fn self_times(i: &Inclusive) -> [(&'static str, f64); 11] {
    let block_ftl = i.block_writes + i.block_reads;
    let device_children = i.flash + i.nvme_link;
    let under = |parent: f64, children: f64| if parent > 0.0 { parent - children } else { 0.0 };
    [
        ("kvbench", i.plan - i.sim),
        ("sim", i.sim),
        ("cluster", under(i.cluster, i.core + i.fabric + i.nvme_sq)),
        ("fabric", i.fabric),
        ("nvme", i.nvme_sq + i.nvme_link),
        ("core", under(i.core, device_children)),
        ("lsm-store", under(i.lsm, i.host_stack + i.block_writes)),
        ("hash-store", under(i.hash, block_ftl)),
        ("host-stack", under(i.host_stack, i.block_reads)),
        ("block-ftl", under(block_ftl, device_children)),
        ("flash", i.flash),
    ]
}

/// Every per-layer metric of a traced run, in a fixed order and with the
/// same names on every workload.
pub fn per_layer<S: Sut>(
    m: &Measured,
    driver: &mut Driver<S>,
    tracer: &mut Tracer,
    parent: u32,
    seed: u64,
) -> Vec<Metric> {
    let mut p = Prober {
        clock: driver.clock(),
        tracer,
        parent,
        units: BTreeMap::new(),
    };
    probe_common(&mut p, m, seed);
    probe_live(&mut p, m, &mut driver.sut, seed);
    let units = p.units;

    let inc = inclusive(m, &units);
    let selves = self_times(&inc);
    let attributed: f64 = selves.iter().map(|(_, ns)| ns).sum::<f64>() + inc.driver;
    let batch = (BATCHES * CALLS) as u64;

    let mut out = count_metrics(m);
    for name in UNIT_COSTS {
        let value = units.get(name).copied().unwrap_or(0.0);
        out.push(Metric::new(name, value, "ns/call", batch));
    }
    let cluster_self = selves
        .iter()
        .find(|(l, _)| *l == "cluster")
        .map_or(0.0, |s| s.1);
    out.push(Metric::new(
        "cluster.self_ns_per_op",
        cluster_self,
        "ns/op",
        m.ops,
    ));
    for (layer, ns) in selves {
        out.push(Metric::new(
            format!("{layer}.share_pct"),
            100.0 * ns / m.host_ns_per_op,
            "%",
            m.ops,
        ));
    }
    let bench: [(&str, f64, &'static str); 8] = [
        (
            "bench.alloc_bytes_per_op",
            m.alloc_bytes as f64 / m.ops as f64,
            "B/op",
        ),
        ("bench.calib_ns", m.calib_ns, "ns/call"),
        ("bench.calib_drift_pct", m.calib_drift_pct, "%"),
        (
            "bench.cpu_s_per_mop",
            m.cpu_ns as f64 / 1e9 / (m.ops as f64 / 1e6),
            "s/Mop",
        ),
        (
            "bench.runq_wait_pct",
            100.0 * per(m.runq_ns as f64, (m.cpu_ns + m.runq_ns) as f64),
            "%",
        ),
        ("bench.segment_iqr_pct", m.segment_iqr_pct, "%"),
        (
            "bench.tracing_overhead_pct",
            100.0 * (m.traced_ns_per_op - m.untraced_ns_per_op) / m.untraced_ns_per_op,
            "%",
        ),
        (
            "bench.unattributed_ns_per_op",
            m.host_ns_per_op - attributed,
            "ns/op",
        ),
    ];
    for (name, value, unit) in bench {
        out.push(Metric::new(name, value, unit, m.ops));
    }
    out
}
