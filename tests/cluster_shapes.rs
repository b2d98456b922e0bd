//! Cluster-scale shapes: the degenerate 1-shard case collapses to the
//! single-device reproduction exactly, and spreading a uniform workload
//! over more shards increases aggregate bandwidth.

use kvssd_study::bench::experiments::{fabric, fabric_faults, replication, scaleout};
use kvssd_study::bench::{setup, Scale};
use kvssd_study::cluster::{ClusterConfig, KvCluster};
use kvssd_study::kvbench::{
    run_phase, AccessPattern, ClusterStore, KvStore, OpMix, ValueSize, WorkloadSpec,
};
use kvssd_study::sim::SimTime;

/// A two-phase workload signature capturing virtual-time results to the
/// nanosecond: any divergence between two stores shows up here.
fn signature(store: &mut dyn KvStore) -> (u64, u64, u64, u64) {
    let fill = WorkloadSpec::new("fill", 1_200, 1_200)
        .mix(OpMix::InsertOnly)
        .pattern(AccessPattern::Uniform)
        .value(ValueSize::Uniform { lo: 32, hi: 6_000 })
        .queue_depth(8)
        .seed(20_26);
    let f = run_phase(store, &fill, SimTime::ZERO);
    let mixed = WorkloadSpec::new("mix", 1_600, 1_200)
        .mix(OpMix::Mixed { read_pct: 60 })
        .pattern(AccessPattern::Zipfian { theta: 0.8 })
        .value(ValueSize::facebook_like())
        .queue_depth(16)
        .seed(7_7);
    let m = run_phase(store, &mixed, f.finished);
    (
        f.finished.as_nanos(),
        m.finished.as_nanos(),
        m.writes.mean().as_nanos(),
        m.reads.percentile(99.0).as_nanos(),
    )
}

/// A 1-shard cluster of scaled-PM983 devices placed by `seed`.
fn one_shard(seed: u64) -> ClusterStore {
    ClusterStore::new(setup::kv_cluster(
        ClusterConfig::new(1, seed),
        None,
        Scale::Quick,
    ))
}

/// The acceptance anchor: a 1-shard cluster (pass-through submission
/// queue) must reproduce the bare single-device store's virtual-time
/// results exactly — same seed, same nanoseconds.
#[test]
fn one_shard_cluster_equals_bare_device_exactly() {
    // Same device config on both sides.
    let bare = signature(&mut setup::kv_ssd_with(setup::kv_config_macro()));
    let clustered = signature(&mut one_shard(99));
    assert_eq!(
        bare, clustered,
        "a 1-shard cluster must be bit-identical to the single device"
    );
}

/// The ring seed must not matter at N = 1 (everything routes to the one
/// shard regardless of placement).
#[test]
fn one_shard_routing_is_seed_independent() {
    let a = signature(&mut one_shard(1));
    let b = signature(&mut one_shard(2_000));
    assert_eq!(a, b);
}

/// Uniform-workload aggregate bandwidth grows monotonically with shard
/// count at N ∈ {1, 2, 4}: independent devices under one clock.
#[test]
fn aggregate_bandwidth_monotone_in_shards() {
    // Size the population for the 1-shard case (the tightest): half of
    // one small device's capacity, so no shard comes near full even
    // with consistent hashing's uneven spread.
    let small = |shards| setup::kv_cluster(ClusterConfig::new(shards, 42), None, Scale::Tiny);
    let cap = small(1).space().capacity_bytes;
    let n = (cap / 2) / 4160;
    let mbps = |shards: usize| {
        let mut store = ClusterStore::new(small(shards));
        let spec = WorkloadSpec::new("uniform-fill", n, n)
            .mix(OpMix::InsertOnly)
            .pattern(AccessPattern::Uniform)
            .value(ValueSize::Fixed(4096))
            .queue_depth(32)
            .seed(11);
        run_phase(&mut store, &spec, SimTime::ZERO).mean_mbps()
    };
    let one = mbps(1);
    let two = mbps(2);
    let four = mbps(4);
    assert!(two > one, "2 shards not faster than 1: {two} vs {one}");
    assert!(four > two, "4 shards not faster than 2: {four} vs {two}");
}

/// The scaleout experiment's Tiny sweep keeps the paper-facing shapes:
/// bandwidth up with N, per-shard GC collapse windows visible, and tail
/// latency still exposing the per-shard pauses.
#[test]
fn scaleout_experiment_shapes() {
    let res = scaleout::run(Scale::Tiny);
    assert_eq!(res.points.len(), scaleout::SHARD_COUNTS.len());
    let p1 = res.point(1);
    let p4 = res.point(4);
    assert!(
        p4.agg_mbps > p1.agg_mbps,
        "aggregate bandwidth must scale: N=4 {} vs N=1 {}",
        p4.agg_mbps,
        p1.agg_mbps
    );
    for p in &res.points {
        // 80 % occupancy + uniform updates force foreground GC (Fig. 6);
        // its collapse windows must stay visible per shard...
        assert!(p.fg_gc_events > 0, "N={} saw no foreground GC", p.shards);
        assert!(
            p.shard_dip_windows > 0,
            "N={} lost its per-shard collapse windows",
            p.shards
        );
        // ...and in the host-observed tail.
        assert!(
            p.p999_us > p.p50_us,
            "N={} tail does not expose GC pauses",
            p.shards
        );
    }
    // Collapses decorrelate: per-shard dip windows dominate synchronized
    // whole-cluster dips once there is more than one shard.
    for p in res.points.iter().filter(|p| p.shards >= 4) {
        assert!(
            p.synchronized_dip_windows <= p.shard_dip_windows,
            "N={}: sync windows exceed total dip windows",
            p.shards
        );
    }
}

/// The replication experiment's Tiny sweep keeps the durability-cost
/// shapes: the majority-quorum ack costs more at R = 3 than R = 1, the
/// repair after losing a shard re-replicates at N ≥ 4, and at N = 2
/// with R ≥ 2 the survivor already holds everything so the repair bill
/// is zero.
#[test]
fn replication_experiment_shapes() {
    let res = replication::run(Scale::Tiny);
    assert_eq!(res.points.len(), replication::SWEEP.len());
    for p in &res.points {
        assert!(p.resident_kvps > 0, "N={} R={} empty", p.shards, p.replicas);
        assert!(p.write_mbps > 0.0);
        assert!(p.write_p99_us >= p.write_p50_us);
        assert!(p.read_p99_us >= p.read_p50_us);
        assert!(p.repair_ms >= 0.0);
    }
    for &n in &[4usize, 8] {
        let r1 = res.point(n, 1);
        let r3 = res.point(n, 3);
        assert!(
            r3.write_p50_us > r1.write_p50_us,
            "N={n}: R=3 write ack {} not above R=1 {}",
            r3.write_p50_us,
            r1.write_p50_us
        );
        assert!(
            r3.read_p50_us > r1.read_p50_us,
            "N={n}: R=3 read ack {} not above R=1 {}",
            r3.read_p50_us,
            r1.read_p50_us
        );
        for r in 1..=3 {
            let p = res.point(n, r);
            assert!(
                p.moved_keys > 0 && p.copied_replicas >= p.moved_keys,
                "N={n} R={r}: repair moved {} copied {}",
                p.moved_keys,
                p.copied_replicas
            );
        }
    }
    for r in 2..=3 {
        let p = res.point(2, r);
        assert_eq!(
            p.copied_replicas, 0,
            "N=2 R={r}: the lone survivor already holds every key"
        );
    }
}

/// The fabric experiment's Tiny sweep keeps the transport shapes: read
/// latency climbs with link latency, unhedged cells never launch a
/// spare leg, the slow-replica cell eats the gray link in its p99.9,
/// and hedging pulls that tail back down for a sub-one-leg extra-read
/// bill — the acceptance shape for the transport figure.
#[test]
fn fabric_experiment_shapes() {
    let res = fabric::run(Scale::Tiny);
    assert_eq!(res.points.len(), fabric::SWEEP.len());
    // Link sweep: the whole read distribution tracks the one-way latency.
    let (l5, l20, l80) = (res.point("lat5"), res.point("lat20"), res.point("lat80"));
    assert!(
        l5.read_p50_us < l20.read_p50_us && l20.read_p50_us < l80.read_p50_us,
        "read p50 must climb with link latency: {} / {} / {}",
        l5.read_p50_us,
        l20.read_p50_us,
        l80.read_p50_us
    );
    // Nobody hedges without a hedge delay.
    for p in res.points.iter().filter(|p| p.hedge_us == 0) {
        assert_eq!(p.hedged_spares, 0, "{}: spare legs without a hedge", p.name);
        assert_eq!(p.extra_read_pct, 0.0);
    }
    // Slow replica: lean quorums that include the gray link stall on it...
    let slow = res.point("slow");
    let hedged = res.point("slow-hedge");
    assert!(
        slow.read_p999_us >= slow.slow_link_us as f64,
        "slow p99.9 {} should eat the {} µs gray link",
        slow.read_p999_us,
        slow.slow_link_us
    );
    // ...and the hedged spare leg caps the tail below the unhedged one.
    assert!(
        hedged.read_p999_us < slow.read_p999_us,
        "hedging must cut p99.9: {} vs {}",
        hedged.read_p999_us,
        slow.read_p999_us
    );
    assert!(
        hedged.hedged_spares > 0,
        "the slow link never tripped a hedge"
    );
    assert!(
        hedged.extra_read_pct > 0.0 && hedged.extra_read_pct < 100.0,
        "extra-read bill {}% should be a fraction of a leg per read",
        hedged.extra_read_pct
    );
}

/// Fault-sweep shapes: without deadlines a lossy wire strands quorums
/// (typed `QuorumUnavailable`, never a hang), arming retries rescues
/// them — availability climbs with the retry budget — and every rescue
/// is paid for in re-sent leg bytes, not free. The acceptance shape
/// for the fabric_faults figure.
#[test]
fn fabric_faults_experiment_shapes() {
    let res = fabric_faults::run(Scale::Tiny);
    assert_eq!(res.points.len(), fabric_faults::SWEEP.len());
    for p in &res.points {
        assert_eq!(
            p.ops,
            p.ok_ops + p.unavailable,
            "{}: ops must split",
            p.name
        );
        assert!(p.dropped > 0, "{}: the lossy link never dropped", p.name);
    }
    // Raw transports lose quorums and rescue nothing.
    let raw = res.point("drop20-raw");
    assert!(raw.unavailable > 0, "20% loss must strand some quorums");
    assert_eq!(raw.rescued, 0);
    assert_eq!(raw.leg_retries, 0);
    // Availability climbs with the retry budget and every armed cell
    // rescues ops the raw wire would have failed.
    let r1 = res.point("drop20-t500r1");
    let r3 = res.point("drop20-t500r3");
    assert!(
        raw.availability_pct < r1.availability_pct && r1.availability_pct <= r3.availability_pct,
        "availability must climb with retries: {} / {} / {}",
        raw.availability_pct,
        r1.availability_pct,
        r3.availability_pct
    );
    for name in ["drop2-t500r2", "drop20-t500r1", "drop20-t500r3"] {
        let p = res.point(name);
        assert!(p.rescued > 0, "{name}: retries rescued nothing");
        assert!(p.leg_retries >= p.rescued);
        assert!(
            res.extra_bytes_vs_raw(name) > 0,
            "{name}: rescues must cost wire bytes"
        );
    }
    // Hedged writes launch spares; their duplicates dedupe at replicas.
    let hw = res.point("drop20-t500r3-hw");
    assert!(hw.write_spares > 0, "the write hedge never fired");
    assert!(
        hw.dup_suppressed > 0,
        "spare legs must dedupe, not double-run"
    );
}

/// Rebalance accounting: keys move only when membership changes, the
/// moved share tracks the ring delta, and nothing is lost.
#[test]
fn rebalance_conserves_data() {
    let mut cluster = KvCluster::for_test_replicated(2, 1);
    let mut t = SimTime::ZERO;
    let n = 400u64;
    for i in 0..n {
        t = cluster
            .store(
                t,
                format!("rk{i:08}").as_bytes(),
                kvssd_study::core::Payload::synthetic(512, i),
            )
            .unwrap();
    }
    let (id, rep) = cluster
        .add_shard(
            t,
            kvssd_study::core::KvSsd::new(
                kvssd_study::flash::Geometry::small(),
                kvssd_study::flash::FlashTiming::pm983_like(),
                kvssd_study::core::KvConfig::small(),
            ),
        )
        .unwrap();
    assert!(rep.moved_keys > 0);
    assert_eq!(cluster.len(), n);
    assert!(rep.completed >= rep.started, "rebalance must take time");
    let rep2 = cluster.remove_shard(rep.completed, id).unwrap();
    assert_eq!(cluster.len(), n);
    assert!(rep2.moved_keys > 0);
    for i in 0..n {
        let l = cluster
            .retrieve(rep2.completed, format!("rk{i:08}").as_bytes())
            .unwrap();
        assert!(l.value.is_some(), "lost rk{i:08} across rebalances");
    }
}
