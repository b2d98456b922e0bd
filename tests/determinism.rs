//! Cross-run determinism: identical seeds must give bit-identical
//! virtual-time results for every system and for whole experiments —
//! the property that makes the reproduction's numbers citable.

use kvssd_study::bench::experiments::{fig5, fig7};
use kvssd_study::bench::{setup, Scale};
use kvssd_study::cluster::{ClusterConfig, KvCluster};
use kvssd_study::core::{KvConfig, KvSsd};
use kvssd_study::flash::{FlashTiming, Geometry};
use kvssd_study::kvbench::keys::KeyGen;
use kvssd_study::kvbench::{
    run_phase, AccessPattern, ClusterStore, KvStore, OpBatch, OpMix, PhaseRecorder, ValueSize,
    WorkloadSpec,
};
use kvssd_study::sim::rng::mix64;
use kvssd_study::sim::{
    BandwidthSeries, DeterministicRng, LatencyHistogram, QueueRunner, SimDuration, SimTime,
};

fn signature(store: &mut dyn KvStore) -> (u64, u64, u64) {
    let spec = WorkloadSpec::new("sig", 1_500, 1_500)
        .mix(OpMix::InsertOnly)
        .pattern(AccessPattern::Uniform)
        .value(ValueSize::Uniform { lo: 32, hi: 6_000 })
        .queue_depth(8)
        .seed(20_26);
    let f = run_phase(store, &spec, SimTime::ZERO);
    let mixed = WorkloadSpec::new("mix", 2_000, 1_500)
        .mix(OpMix::Mixed { read_pct: 60 })
        .pattern(AccessPattern::Zipfian { theta: 0.8 })
        .value(ValueSize::facebook_like())
        .queue_depth(16)
        .seed(7_7);
    let m = run_phase(store, &mixed, f.finished);
    (
        m.finished.as_nanos(),
        m.writes.mean().as_nanos(),
        m.reads.percentile(99.0).as_nanos(),
    )
}

#[test]
fn every_stack_is_deterministic_per_seed() {
    let kv = |_: ()| signature(&mut setup::kv_ssd());
    assert_eq!(kv(()), kv(()), "KV-SSD");
    let rdb = |_: ()| signature(&mut setup::rocksdb());
    assert_eq!(rdb(()), rdb(()), "RocksDB");
    let hs = |_: ()| signature(&mut setup::aerospike());
    assert_eq!(hs(()), hs(()), "Aerospike");
    let blk = |_: ()| signature(&mut setup::block_direct(4096));
    assert_eq!(blk(()), blk(()), "block direct");
}

#[test]
fn cluster_runs_are_deterministic_per_seed() {
    // Same seed + shard count → byte-identical report tables, across
    // routing, per-shard queues, device GC, and a live rebalance.
    let run = || {
        let config = ClusterConfig::new(4, 42);
        let mut store = ClusterStore::new(setup::kv_cluster(config, None, Scale::Tiny));
        let spec = WorkloadSpec::new("cluster-sig", 1_000, 1_000)
            .mix(OpMix::Mixed { read_pct: 40 })
            .pattern(AccessPattern::Zipfian { theta: 0.9 })
            .value(ValueSize::Uniform { lo: 64, hi: 4_096 })
            .queue_depth(16)
            .seed(12_21);
        let m = run_phase(&mut store, &spec, SimTime::ZERO);
        let cluster = store.cluster_mut();
        let rep = cluster
            .remove_shard(m.finished, cluster.shards()[2].id())
            .unwrap();
        format!(
            "{}\nmoved={} bytes={} done={}",
            cluster.report(),
            rep.moved_keys,
            rep.moved_bytes,
            rep.completed.as_nanos()
        )
    };
    let a = run();
    assert_eq!(a, run(), "cluster report bytes diverged across runs");
    // And the report really carries the run (not a blank table).
    assert!(a.contains("cluster shards=3"), "unexpected report: {a}");
}

#[test]
fn replication_runs_are_deterministic_per_seed() {
    // Replicated quorum I/O plus a repair keep byte-identical reports:
    // fan-out order, quorum selection, and the BTreeSet repair walk are
    // all pure functions of the seed.
    let run = || {
        let config = ClusterConfig::new(4, 42).replication(3);
        let mut store = ClusterStore::new(setup::kv_cluster(config, None, Scale::Tiny));
        let spec = WorkloadSpec::new("replication-sig", 800, 800)
            .mix(OpMix::Mixed { read_pct: 50 })
            .pattern(AccessPattern::Zipfian { theta: 0.9 })
            .value(ValueSize::Uniform { lo: 64, hi: 2_048 })
            .queue_depth(8)
            .seed(19_84);
        let m = run_phase(&mut store, &spec, SimTime::ZERO);
        let cluster = store.cluster_mut();
        let rep = cluster
            .remove_shard(m.finished, cluster.shards()[1].id())
            .unwrap();
        format!(
            "{}\nmoved={} copied={} dropped={} done={}",
            cluster.report(),
            rep.moved_keys,
            rep.copied_replicas,
            rep.dropped_replicas,
            rep.completed.as_nanos()
        )
    };
    let a = run();
    assert_eq!(a, run(), "replicated report bytes diverged across runs");
    assert!(a.contains("replication r=3"), "unexpected report: {a}");
    assert!(!a.contains("copied=0"), "repair did nothing: {a}");
}

#[test]
fn whole_experiments_are_deterministic() {
    let a = fig7::run(Scale::Tiny);
    let b = fig7::run(Scale::Tiny);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.system, rb.system);
        assert_eq!(
            ra.amplification.to_bits(),
            rb.amplification.to_bits(),
            "fig7 {}@{}",
            ra.system,
            ra.value_bytes
        );
    }
    let a = fig5::run(Scale::Tiny);
    let b = fig5::run(Scale::Tiny);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.kv_mbps.to_bits(), rb.kv_mbps.to_bits());
        assert_eq!(ra.blk_mbps.to_bits(), rb.blk_mbps.to_bits());
    }
}

/// The per-op `dyn KvStore` driver and the batched `KvStore::run_ops`
/// driver the figures use (the trait's default, compiled for
/// `ClusterStore`) are both production paths over the same cluster
/// code; batching is a host-side optimization only. Replays one
/// fixed-seed churn (85 % stores, 15 % reads) through each on identically
/// filled N=4, R=2 clusters and folds everything either could have
/// perturbed into one checksum, pinned.
#[test]
fn per_op_and_batched_cluster_drivers_agree() {
    const SEED: u64 = 0xC1_05_7E_12;
    const KEYS: u64 = 2_000;
    const VSIZE: u32 = 1024;
    const QD: usize = 16;
    const PINNED: u64 = 0x5611ef23c5b7c6b9;

    let mut rng = DeterministicRng::seed_from(SEED);
    let plan: Vec<(u64, u64, bool)> = (0..2 * KEYS)
        .map(|op| (rng.below(KEYS), op, rng.below(100) < 15))
        .collect();
    let keygen = KeyGen::new(16);

    let run = |batched: bool| -> u64 {
        let mut store = ClusterStore::new(KvCluster::new(
            ClusterConfig::new(4, SEED).replication(2),
            |_| {
                KvSsd::new(
                    Geometry {
                        channels: 4,
                        dies_per_channel: 2,
                        planes_per_die: 2,
                        blocks_per_plane: 64,
                        pages_per_block: 64,
                        page_bytes: 32 * 1024,
                    },
                    FlashTiming::pm983_like(),
                    KvConfig {
                        iterator_buckets: false,
                        max_kvps: 1_000_000,
                        ..KvConfig::pm983_scaled()
                    },
                )
            },
        ));
        let fill = WorkloadSpec::new("fill", KEYS, KEYS)
            .mix(OpMix::InsertOnly)
            .pattern(AccessPattern::Sequential)
            .value(ValueSize::Fixed(VSIZE))
            .queue_depth(QD);
        run_phase(&mut store, &fill, SimTime::ZERO);
        let start = store.cluster().quiesce_time() + SimDuration::from_millis(200);

        let mut runner = QueueRunner::starting_at(QD, start);
        let mut writes = LatencyHistogram::new();
        let mut reads = LatencyHistogram::new();
        if batched {
            let mut bandwidth = BandwidthSeries::new(SimDuration::from_millis(100));
            let mut not_found = 0u64;
            let mut key_buf = Vec::with_capacity(16);
            let mut batch = OpBatch::default();
            for chunk in plan.chunks(256) {
                batch.clear();
                for &(idx, tag, is_read) in chunk {
                    keygen.key_into(idx, &mut key_buf);
                    batch.push(&key_buf, VSIZE, tag, is_read);
                }
                let mut rec = PhaseRecorder {
                    writes: &mut writes,
                    reads: &mut reads,
                    bandwidth: &mut bandwidth,
                    not_found: &mut not_found,
                    phase_start: start,
                };
                store.run_ops(&mut runner, &batch, &mut rec);
            }
        } else {
            let store: &mut dyn KvStore = &mut store;
            for &(idx, tag, is_read) in &plan {
                let key = keygen.key(idx);
                if is_read {
                    let t = runner.submit(|issue| store.read(issue, &key).0);
                    reads.record(t.latency());
                } else {
                    let t = runner.submit(|issue| store.insert(issue, &key, VSIZE, tag));
                    writes.record(t.latency());
                }
            }
        }
        let finished = runner.drain();
        let end = store.flush(finished).max(finished);

        let cluster = store.cluster();
        let dev = cluster.stats().devices;
        let mut c = mix64(end.since(SimTime::ZERO).as_nanos());
        for part in [
            dev.stores,
            dev.retrieves,
            dev.not_found,
            dev.foreground_gc_events,
            writes.count(),
            reads.count(),
            writes.mean().as_nanos(),
            reads.mean().as_nanos(),
            cluster.len(),
        ] {
            c = mix64(c ^ part);
        }
        for shard in cluster.shards() {
            c = mix64(c ^ shard.key_count() as u64);
        }
        c
    };

    let per_op = run(false);
    assert_eq!(
        per_op,
        run(true),
        "the batched driver changed cluster behavior"
    );
    assert_eq!(per_op, PINNED, "got {per_op:#018x}");
}
