//! Fabric-backed cluster properties: the degenerate-equivalence anchor
//! (an ideal fabric is the in-process transport, byte for byte), the
//! durability contract under seeded message loss and partitions
//! (acknowledged quorum writes are never lost), determinism across
//! thread counts, and the deadline/retry/hedged-write machinery —
//! quorum-failure payloads, duplicate-delivery idempotency,
//! partition-aware hedging, repair under partitions, and liveness
//! under combined faults. The lossy client and repair scenarios are
//! also pinned byte for byte (digests of their rendered summaries), so
//! a refactor of the leg engine cannot move a retry, a dedupe or a
//! repair leg unnoticed. A register check holds quorum reads to the
//! newest acknowledged write, and a counting test holds every client op
//! to one hash of its key.

use kvssd_cluster::{ClusterConfig, KvCluster};
use kvssd_core::{KvConfig, KvError, KvSsd, Payload};
use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
use kvssd_sim::check::check;
use kvssd_sim::{digest64, DeterministicRng, SimDuration, SimTime};

fn device(_id: usize) -> KvSsd {
    KvSsd::new(
        kvssd_flash::Geometry::small(),
        kvssd_flash::FlashTiming::pm983_like(),
        KvConfig::small(),
    )
}

fn fabric_cluster(shards: usize, r: usize, link: LinkConfig) -> KvCluster {
    KvCluster::with_transport(
        ClusterConfig::new(shards, 42).replication(r),
        Box::new(Fabric::new(FabricConfig::new(42, link), shards)),
        device,
    )
}

fn key(i: u64) -> String {
    format!("key{i:08}")
}

#[test]
fn ideal_fabric_is_the_in_process_transport_exactly() {
    // Zero-latency, infinite-bandwidth, fault-free links must reproduce
    // the in-process transport operation by operation — the anchor that
    // ties every fabric number back to the seed tables.
    let mut base = KvCluster::new(ClusterConfig::new(4, 42).replication(3), device);
    let mut fab = fabric_cluster(4, 3, LinkConfig::ideal());
    let mut tb = SimTime::ZERO;
    let mut tf = SimTime::ZERO;
    for i in 0..200u64 {
        let k = key(i);
        tb = base
            .store(tb, k.as_bytes(), Payload::synthetic(768, i))
            .unwrap();
        tf = fab
            .store(tf, k.as_bytes(), Payload::synthetic(768, i))
            .unwrap();
        assert_eq!(tb, tf, "stores diverged at {i}");
    }
    for i in (0..200u64).step_by(7) {
        let lb = base.retrieve(tb, key(i).as_bytes()).unwrap();
        let lf = fab.retrieve(tf, key(i).as_bytes()).unwrap();
        assert_eq!(lb.at, lf.at, "retrieves diverged at {i}");
        assert_eq!(lb.value.is_some(), lf.value.is_some());
    }
    let db = base.delete(tb, key(3).as_bytes()).unwrap();
    let df = fab.delete(tf, key(3).as_bytes()).unwrap();
    assert_eq!(db, df);
    assert_eq!(base.quiesce_time(), fab.quiesce_time());
    assert_eq!(base.len(), fab.len());
}

#[test]
fn acked_quorum_writes_survive_drops() {
    // 20 % per-message loss each way. Whatever the fabric eats, the
    // contract holds: a store that returned Ok reached its write
    // quorum, so at least `write_quorum` replicas physically hold the
    // key — and a later quorum read finds the value.
    let link = LinkConfig {
        drop_ppm: 200_000,
        ..LinkConfig::ideal()
    };
    let mut c = fabric_cluster(4, 3, link);
    let wq = c.config().write_quorum;
    let mut t = SimTime::ZERO;
    let mut acked_keys = Vec::new();
    let mut unavailable = 0u64;
    for i in 0..300u64 {
        let k = key(i);
        match c.store(t, k.as_bytes(), Payload::synthetic(512, i)) {
            Ok(done) => {
                t = done;
                let holders = c.shards().iter().filter(|s| s.holds(k.as_bytes())).count();
                assert!(
                    holders >= wq,
                    "key {k} acked at quorum {wq} but only {holders} replicas hold it"
                );
                acked_keys.push(k);
            }
            Err(KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas,
                write,
            }) => {
                assert!(acked < quorum);
                assert!(write, "a failed store must flag itself as a mutation");
                assert_eq!(
                    acked_replicas.count_ones() as usize,
                    acked,
                    "lane mask must carry exactly the acked replicas"
                );
                unavailable += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        !acked_keys.is_empty() && unavailable > 0,
        "20 % loss should produce both outcomes (acked {}, unavailable {unavailable})",
        acked_keys.len()
    );
    // Every acknowledged write stays readable through the same lossy
    // fabric whenever the read itself assembles its quorum.
    let late = c.quiesce_time() + SimDuration::from_millis(1);
    for k in &acked_keys {
        match c.retrieve(late, k.as_bytes()) {
            Ok(l) => assert!(l.value.is_some(), "acked key {k} lost its value"),
            Err(KvError::QuorumUnavailable { .. }) => {} // read legs lost, not data
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[test]
fn partition_loses_no_acked_writes_and_heals() {
    let mut c = fabric_cluster(4, 3, LinkConfig::ideal());
    let wq = c.config().write_quorum;
    c.fabric_mut().expect("fabric-backed").partition(1);
    let mut t = SimTime::ZERO;
    for i in 0..120u64 {
        let k = key(i);
        // Legs to the partitioned shard vanish; the two survivors in
        // every 3-replica set still form the majority, so every store
        // acks — and the holders back the ack with real copies.
        t = c
            .store(t, k.as_bytes(), Payload::synthetic(512, i))
            .unwrap();
        let holders = c.shards().iter().filter(|s| s.holds(k.as_bytes())).count();
        assert!(holders >= wq, "key {k}: {holders} holders < quorum {wq}");
        assert!(
            !c.shards()[1].holds(k.as_bytes()),
            "partitioned shard executed a request"
        );
    }
    assert!(c.stats().transport.partition_drops > 0);
    c.fabric_mut().expect("fabric-backed").heal(1);
    // Healed: the shard takes writes again.
    let k = key(10_000);
    t = c
        .store(t, k.as_bytes(), Payload::synthetic(512, 1))
        .unwrap();
    let l = c.retrieve(t, k.as_bytes()).unwrap();
    assert!(l.value.is_some());
}

#[test]
fn faulty_fabric_report_is_deterministic_across_thread_counts() {
    // One seeded run's byte-stable report, reproduced on every thread
    // of a contended pool: virtual time and seeded fault streams owe
    // nothing to the host scheduler.
    let run = || -> String {
        let link = LinkConfig {
            latency: SimDuration::from_micros(15),
            jitter: SimDuration::from_micros(30),
            drop_ppm: 50_000,
            duplicate_ppm: 20_000,
            ..LinkConfig::ideal()
        };
        let mut c = fabric_cluster(4, 3, link);
        let mut t = SimTime::ZERO;
        for i in 0..150u64 {
            match c.store(t, key(i).as_bytes(), Payload::synthetic(512, i)) {
                Ok(done) => t = done,
                Err(KvError::QuorumUnavailable { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let _ = c.retrieve(c.quiesce_time(), key(42).as_bytes());
        c.report()
    };
    let reference = run();
    assert!(
        reference.contains("transport "),
        "faulty-fabric report must carry the transport line"
    );
    let outcomes: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(run)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run thread panicked"))
            .collect()
    });
    for o in outcomes {
        assert_eq!(o, reference, "fabric-backed run diverged across threads");
    }
}

#[test]
fn hedged_lean_reads_route_around_a_slow_replica() {
    // One link degraded to 1 ms each way. Lean reads whose quorum
    // includes it stall; the hedged spare leg caps the ack near the
    // hedge delay instead.
    let base = LinkConfig {
        latency: SimDuration::from_micros(10),
        ..LinkConfig::ideal()
    };
    let slow = LinkConfig {
        latency: SimDuration::from_millis(1),
        ..LinkConfig::ideal()
    };
    let hedge = SimDuration::from_micros(400);
    let build = |hedged: bool| {
        let mut cfg = ClusterConfig::new(8, 42).replication(3);
        cfg = cfg.lean_reads(hedged.then_some(hedge));
        let mut c = KvCluster::with_transport(
            cfg,
            Box::new(Fabric::new(FabricConfig::new(42, base), 8)),
            device,
        );
        c.fabric_mut().expect("fabric-backed").shape_link(1, slow);
        c
    };
    let mut plain = build(false);
    let mut hedged = build(true);
    let mut tp = SimTime::ZERO;
    let mut th = SimTime::ZERO;
    for i in 0..200u64 {
        let k = key(i);
        tp = plain
            .store(tp, k.as_bytes(), Payload::synthetic(512, i))
            .unwrap();
        th = hedged
            .store(th, k.as_bytes(), Payload::synthetic(512, i))
            .unwrap();
    }
    // Sequential closed-loop reads so each latency is the quorum path,
    // not device queueing from a burst.
    let mut now_p = tp + SimDuration::from_millis(5);
    let mut now_h = th + SimDuration::from_millis(5);
    let mut worst_plain = SimDuration::ZERO;
    let mut worst_hedged = SimDuration::ZERO;
    for i in 0..200u64 {
        let k = key(i);
        let lp = plain.retrieve(now_p, k.as_bytes()).unwrap();
        let lh = hedged.retrieve(now_h, k.as_bytes()).unwrap();
        assert!(lp.value.is_some() && lh.value.is_some());
        worst_plain = worst_plain.max(lp.at.since(now_p));
        worst_hedged = worst_hedged.max(lh.at.since(now_h));
        now_p = lp.at;
        now_h = lh.at;
    }
    assert!(
        hedged.stats().hedged_spares > 0,
        "the slow link never tripped a hedge"
    );
    assert!(
        worst_plain >= SimDuration::from_millis(2),
        "unhedged worst case should eat the slow RTT, got {worst_plain}"
    );
    assert!(
        worst_hedged < SimDuration::from_millis(2),
        "hedged worst case should duck the slow RTT, got {worst_hedged}"
    );
}

#[test]
fn quorum_unavailable_payload_names_the_acked_lanes() {
    // Seeded 20 % loss each way. Every quorum failure must say exactly
    // which replica lanes acked: each lane bit in the mask maps to a
    // replica that really acknowledged (and for stores, therefore
    // physically holds the key), writes flag partial replication,
    // reads do not.
    let link = LinkConfig {
        drop_ppm: 200_000,
        ..LinkConfig::ideal()
    };
    let mut c = fabric_cluster(6, 3, link);
    let mut t = SimTime::ZERO;
    let mut failed_stores = 0u64;
    let mut partially_replicated = 0u64;
    for i in 0..300u64 {
        let k = key(i);
        match c.store(t, k.as_bytes(), Payload::synthetic(512, i)) {
            Ok(done) => t = done,
            Err(KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas,
                write,
            }) => {
                failed_stores += 1;
                assert!(acked < quorum);
                assert!(write, "a failed store must flag itself as a mutation");
                assert_eq!(acked_replicas.count_ones() as usize, acked);
                let routes = c.replica_routes(k.as_bytes()).unwrap();
                for (lane, &idx) in routes.iter().enumerate() {
                    if acked_replicas & (1 << lane) != 0 {
                        assert!(
                            c.shards()[idx].holds(k.as_bytes()),
                            "lane {lane} acked store of {k} but shard {idx} does not hold it"
                        );
                    }
                }
                if acked > 0 {
                    partially_replicated += 1;
                    let msg = KvError::QuorumUnavailable {
                        acked,
                        quorum,
                        acked_replicas,
                        write,
                    }
                    .to_string();
                    assert!(
                        msg.contains("partially replicated"),
                        "write failures with acks must warn about partial replication: {msg}"
                    );
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        failed_stores > 0 && partially_replicated > 0,
        "20 % loss should produce partially replicated failures \
         (failed {failed_stores}, partial {partially_replicated})"
    );
    let late = c.quiesce_time() + SimDuration::from_millis(1);
    let mut failed_reads = 0u64;
    for i in 0..300u64 {
        match c.retrieve(late, key(i).as_bytes()) {
            Ok(_) => {}
            Err(KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas,
                write,
            }) => {
                failed_reads += 1;
                assert!(acked < quorum);
                assert!(!write, "a failed retrieve must not flag a mutation");
                assert_eq!(acked_replicas.count_ones() as usize, acked);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed_reads > 0, "20 % loss should fail some reads");
}

#[test]
fn duplicate_deliveries_are_idempotent_at_the_replica() {
    // Every message duplicated on the wire: each store leg arrives
    // twice at its replica, yet the device must execute it exactly
    // once — the second delivery is deduped by op id and re-acks the
    // recorded completion.
    let link = LinkConfig {
        duplicate_ppm: 1_000_000,
        ..LinkConfig::ideal()
    };
    let mut c = fabric_cluster(4, 3, link);
    let mut t = SimTime::ZERO;
    for i in 0..50u64 {
        t = c
            .store(t, key(i).as_bytes(), Payload::synthetic(512, i))
            .unwrap();
    }
    assert_eq!(
        c.stats().devices.stores,
        150,
        "duplicated store legs must not re-execute on the device"
    );
    assert_eq!(c.len(), 150, "every replica holds exactly one copy");
    assert_eq!(
        c.stats().dup_suppressed,
        150,
        "each of the 150 duplicated request legs deduped exactly once"
    );
    // Updates stay idempotent too: re-storing the same keys must not
    // inflate the key population.
    for i in 0..50u64 {
        t = c
            .store(t, key(i).as_bytes(), Payload::synthetic(256, i + 1000))
            .unwrap();
    }
    assert_eq!(c.len(), 150, "duplicated updates must not duplicate keys");
    // Deletes dedupe by the same mechanism.
    let (t2, existed) = c.delete(t, key(7).as_bytes()).unwrap();
    assert!(existed);
    assert_eq!(c.stats().devices.deletes, 3, "one delete per replica");
    assert_eq!(c.len(), 147);
    let l = c.retrieve(t2, key(7).as_bytes()).unwrap();
    assert!(l.value.is_none());
}

#[test]
fn hedged_read_spare_skips_partitioned_links() {
    // R = 4 with lean quorum-2 reads: legs go to lanes 0 and 1, spares
    // come from lanes 2 and 3. Partition lane 0 (to starve the quorum)
    // and lane 2 (the first spare candidate): the hedge must skip the
    // dead lane-2 link and win through lane 3.
    let mk = || {
        KvCluster::with_transport(
            ClusterConfig::new(8, 42)
                .replication(4)
                .quorums(2, 3)
                .lean_reads(Some(SimDuration::from_micros(100))),
            Box::new(Fabric::new(FabricConfig::new(42, LinkConfig::ideal()), 8)),
            device,
        )
    };
    let mut c = mk();
    let k = key(0);
    let t = c
        .store(SimTime::ZERO, k.as_bytes(), Payload::synthetic(512, 0))
        .unwrap();
    let routes = c.replica_routes(k.as_bytes()).unwrap();
    assert_eq!(routes.len(), 4);
    {
        let f = c.fabric_mut().expect("fabric-backed");
        f.partition(routes[0]);
        f.partition(routes[2]);
    }
    let l = c
        .retrieve(t, k.as_bytes())
        .expect("the spare must route around the partitioned candidate");
    assert!(l.value.is_some());
    assert_eq!(c.stats().hedged_spares, 1, "exactly one spare leg launched");
    // Control: with *every* spare candidate partitioned the hedge is
    // never launched (it could only be wasted) and the read fails
    // typed with the one surviving ack in the mask.
    let mut c2 = mk();
    let t2 = c2
        .store(SimTime::ZERO, k.as_bytes(), Payload::synthetic(512, 0))
        .unwrap();
    {
        let f = c2.fabric_mut().expect("fabric-backed");
        f.partition(routes[0]);
        f.partition(routes[2]);
        f.partition(routes[3]);
    }
    match c2.retrieve(t2, k.as_bytes()) {
        Err(KvError::QuorumUnavailable {
            acked,
            acked_replicas,
            write,
            ..
        }) => {
            assert_eq!(acked, 1, "only the lane-1 leg can ack");
            assert_eq!(acked_replicas, 0b10);
            assert!(!write);
        }
        other => panic!("expected a typed quorum failure, got {other:?}"),
    }
    assert_eq!(
        c2.stats().hedged_spares,
        0,
        "a spare with only partitioned candidates must not launch"
    );
}

#[test]
fn repair_completes_and_accounts_failures_across_a_partition() {
    // Repair traffic rides the fabric: decommissioning a shard while
    // another survivor's link is cut must terminate (no hang), count
    // the unreachable legs as typed failures in the report, and leave
    // the cluster serviceable.
    let link = LinkConfig {
        latency: SimDuration::from_micros(10),
        ..LinkConfig::ideal()
    };
    let mut c = KvCluster::with_transport(
        ClusterConfig::new(4, 42)
            .replication(2)
            .deadlines(SimDuration::from_micros(500), 1),
        Box::new(Fabric::new(FabricConfig::new(42, link), 4)),
        device,
    );
    let mut t = SimTime::ZERO;
    for i in 0..120u64 {
        t = c
            .store(t, key(i).as_bytes(), Payload::synthetic(512, i))
            .unwrap();
    }
    c.fabric_mut().expect("fabric-backed").partition(2);
    let victim = c.shards()[1].id();
    let rep = c.remove_shard(t, victim).unwrap();
    assert!(rep.completed >= rep.started);
    assert!(
        rep.failed_copies + rep.failed_drops > 0,
        "legs into the cut link must surface as failed repair legs"
    );
    assert!(
        rep.copied_replicas > 0,
        "repair must still converge keys on surviving links"
    );
    assert!(
        c.stats().leg_retries > 0,
        "deadline retries must fire before a repair leg is failed"
    );
    // Heal whatever link index the partition shifted to and confirm the
    // cluster still serves reads: every key resolves Ok or typed.
    for i in 0..c.shard_count() {
        if c.fabric_mut().expect("fabric-backed").is_partitioned(i) {
            c.fabric_mut().expect("fabric-backed").heal(i);
        }
    }
    let late = c.quiesce_time() + SimDuration::from_millis(1);
    let mut found = 0u64;
    for i in 0..120u64 {
        match c.retrieve(late, key(i).as_bytes()) {
            Ok(l) => {
                if l.value.is_some() {
                    found += 1;
                }
            }
            Err(KvError::QuorumUnavailable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        found > 60,
        "most keys must survive a partitioned repair, found {found}"
    );
}

/// One closed-loop run over a lossy, partitioning fabric with
/// deadlines, retries, and hedged writes armed. Returns a byte-stable
/// summary so determinism can be asserted across threads.
fn lossy_scenario(seed: u64) -> String {
    let link = LinkConfig {
        latency: SimDuration::from_micros(15),
        jitter: SimDuration::from_micros(30),
        drop_ppm: 200_000,
        duplicate_ppm: 20_000,
        ..LinkConfig::ideal()
    };
    let mut c = KvCluster::with_transport(
        ClusterConfig::new(8, seed)
            .replication(3)
            .deadlines(SimDuration::from_millis(1), 2)
            .hedged_writes(Some(SimDuration::from_micros(200))),
        Box::new(Fabric::new(FabricConfig::new(seed, link), 8)),
        device,
    );
    let mut t = SimTime::ZERO;
    let mut ok = 0u64;
    let mut unavailable = 0u64;
    for i in 0..400u64 {
        match i {
            150 => c.fabric_mut().expect("fabric-backed").partition(2),
            250 => {
                let f = c.fabric_mut().expect("fabric-backed");
                f.heal(2);
                f.partition(5);
            }
            350 => c.fabric_mut().expect("fabric-backed").heal(5),
            _ => {}
        }
        let k = key(i % 200);
        let done = match i % 3 {
            0 => c.store(t, k.as_bytes(), Payload::synthetic(512, i)),
            1 => c.retrieve(t, k.as_bytes()).map(|l| l.at),
            _ => c.delete(t, k.as_bytes()).map(|(d, _)| d),
        };
        match done {
            Ok(at) => {
                assert!(at >= t, "an acked op never completes before it starts");
                ok += 1;
                t = at;
            }
            Err(KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas,
                ..
            }) => {
                assert!(acked < quorum);
                assert_eq!(acked_replicas.count_ones() as usize, acked);
                unavailable += 1;
            }
            Err(e) => panic!("op {i} must resolve Ok or QuorumUnavailable, got {e}"),
        }
    }
    let st = c.stats();
    format!(
        "seed={seed} ok={ok} unavailable={unavailable} retries={} rescued={} \
         write_spares={} dup={}\n{}",
        st.leg_retries,
        st.retry_rescued_ops,
        st.hedged_write_spares,
        st.dup_suppressed,
        c.report()
    )
}

#[test]
fn every_op_resolves_under_drops_partitions_and_deadlines() {
    // The lost-leg black hole, closed: 20 % loss, wire duplicates, and
    // roaming partitions, with per-op deadlines and hedged writes
    // armed. Every op resolves Ok or with a typed quorum failure (the
    // per-op asserts live in `lossy_scenario`), retries rescue real
    // quorums, and the whole story is deterministic across seeds and
    // 1/2/4 concurrent runs.
    for seed in [1u64, 7, 13] {
        let reference = lossy_scenario(seed);
        assert!(
            reference.contains("rescued="),
            "summary must quote rescue counters: {reference}"
        );
        let rescued: u64 = reference
            .split("rescued=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("summary carries rescued=N");
        assert!(
            rescued > 0,
            "seed {seed}: retries should rescue some quorums\n{reference}"
        );
        for threads in [2usize, 4] {
            let outcomes: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(move || lossy_scenario(seed)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("run thread panicked"))
                    .collect()
            });
            for o in outcomes {
                assert_eq!(
                    o, reference,
                    "seed {seed} diverged across {threads} threads"
                );
            }
        }
    }
}

fn check_pin(name: &str, rendered: &str, want: u64) {
    let got = digest64(rendered.as_bytes());
    assert_eq!(
        got, want,
        "{name} drifted from its pinned digest (got 0x{got:016x}); the leg \
         engine must not move a byte of fault-path behaviour.\n{rendered}"
    );
}

/// Client ops interleaved with membership changes over a wire that
/// drops, duplicates, jitters and partitions, deadlines and hedged
/// writes armed (`lean` adds lean hedged reads): every repair read,
/// copy and drop leg crosses the faulty fabric. Renders every
/// `RebalanceReport`, the final `stats()` and `report()`.
fn lossy_repair_scenario(seed: u64, lean: bool) -> String {
    let link = LinkConfig {
        latency: SimDuration::from_micros(15),
        jitter: SimDuration::from_micros(30),
        drop_ppm: 200_000,
        duplicate_ppm: 20_000,
        ..LinkConfig::ideal()
    };
    let mut cfg = ClusterConfig::new(6, seed)
        .replication(3)
        .deadlines(SimDuration::from_millis(1), 2)
        .hedged_writes(Some(SimDuration::from_micros(200)));
    if lean {
        cfg = cfg.lean_reads(Some(SimDuration::from_micros(300)));
    }
    let mut c = KvCluster::with_transport(
        cfg,
        Box::new(Fabric::new(FabricConfig::new(seed, link), 6)),
        device,
    );
    let mut out = format!("seed={seed} lean={lean}\n");
    let mut t = SimTime::ZERO;
    let mut ok = 0u64;
    let mut unavailable = 0u64;
    for i in 0..600u64 {
        // Membership changes and roaming partitions, all under the
        // same 20 % loss: repair legs retry, fail over and fail typed.
        match i {
            100 => c.fabric_mut().expect("fabric-backed").partition(1),
            150 | 400 => {
                let (id, rep) = c.add_shard(t, device(0)).unwrap();
                t = rep.completed;
                out.push_str(&format!("op {i}: add {id} {rep:?}\n"));
            }
            250 => {
                let f = c.fabric_mut().expect("fabric-backed");
                f.heal(1);
                f.partition(4);
            }
            300 | 500 => {
                let victim = c.shards()[if i == 300 { 2 } else { 0 }].id();
                let rep = c.remove_shard(t, victim).unwrap();
                t = rep.completed;
                out.push_str(&format!("op {i}: remove {victim} {rep:?}\n"));
            }
            350 => {
                for link in 0..c.shard_count() {
                    c.fabric_mut().expect("fabric-backed").heal(link);
                }
            }
            450 => c.fabric_mut().expect("fabric-backed").partition(0),
            _ => {}
        }
        let k = key(i % 150);
        let done = match i % 4 {
            0 | 1 => c.store(t, k.as_bytes(), Payload::synthetic(512, i)),
            2 => c.retrieve(t, k.as_bytes()).map(|l| l.at),
            _ => c.delete(t, k.as_bytes()).map(|(d, _)| d),
        };
        match done {
            Ok(at) => {
                assert!(at >= t, "an acked op never completes before it starts");
                ok += 1;
                t = at;
            }
            Err(KvError::QuorumUnavailable { acked, quorum, .. }) => {
                assert!(acked < quorum);
                unavailable += 1;
            }
            Err(e) => panic!("op {i} must resolve Ok or QuorumUnavailable, got {e}"),
        }
    }
    let st = c.stats();
    let ts = st.transport;
    // The device counters, then the index merges, which the device
    // counters carried a copy of when these digests were pinned.
    let devices = format!("{:?}", st.devices);
    let devices = devices.strip_suffix(" }").expect("a struct's Debug form");
    let merges: u64 = c
        .shards()
        .iter()
        .map(|s| s.device().index_stats().merges)
        .sum();
    out.push_str(&format!(
        "ok={ok} unavailable={unavailable} len={} quiesce={:?}\n{devices}, merges: {merges} }}\n\
         sq_stalls={} sq_stall={:?} rebalanced={}/{} spares={} retries={} rescued={} \
         write_spares={} dup={}\n\
         wire req={} resp={} dropped={} partition_drops={} dup={} stalls={} bytes={}\n{}",
        c.len(),
        c.quiesce_time(),
        st.sq.full_stalls,
        st.sq.stall_time,
        st.rebalanced_keys,
        st.rebalanced_bytes,
        st.hedged_spares,
        st.leg_retries,
        st.retry_rescued_ops,
        st.hedged_write_spares,
        st.dup_suppressed,
        ts.requests,
        ts.responses,
        ts.dropped,
        ts.partition_drops,
        ts.duplicated,
        ts.queue_stalls,
        ts.bytes,
        c.report()
    ));
    out
}

#[test]
fn lossy_scenarios_match_their_pinned_digests() {
    // The client pins were computed on the six-leg-function code before
    // the leg engine replaced it (see CHANGES.md, PR 15) and were never
    // re-pinned. The repair pins were re-pinned once, when repair legs
    // took the client legs' contract (CHANGES.md, PR 42).
    for (seed, want) in [
        (1u64, 0xe25a03ade0311c5cu64),
        (7, 0x56e5f1c95b51998d),
        (13, 0x92481df077148eb8),
    ] {
        check_pin("lossy_scenario", &lossy_scenario(seed), want);
    }
    for (seed, lean, want) in [
        (1u64, false, 0x252c248c7bd8b98cu64),
        (1, true, 0x7891e544f57684c9),
        (7, false, 0xc9cfcaacfb768a6b),
        (7, true, 0x0a17a87a6701811e),
        (13, false, 0x362c9fd35e262916),
        (13, true, 0xb951084853f848de),
    ] {
        let rendered = lossy_repair_scenario(seed, lean);
        assert!(
            rendered.contains("failed_copies") && rendered.contains("deadlines retries="),
            "the repair scenario must exercise repair legs and retries:\n{rendered}"
        );
        check_pin("lossy_repair_scenario", &rendered, want);
    }
}

/// One hash per client op, whatever the wire does: the router computes
/// the key's id once, and every replica leg, deadline retry, hedged
/// spare and wire duplicate hands that id to the device and the
/// registry. A repair pass reuses the ids the registries hold and hashes
/// nothing. Debug builds count every hash pass over key bytes.
#[cfg(debug_assertions)]
#[test]
fn each_client_op_hashes_its_key_once_and_repair_hashes_none() {
    use kvssd_core::hash::key_passes;
    let link = LinkConfig {
        latency: SimDuration::from_micros(15),
        jitter: SimDuration::from_micros(30),
        drop_ppm: 200_000,
        duplicate_ppm: 20_000,
        ..LinkConfig::ideal()
    };
    let cfg = ClusterConfig::new(6, 9)
        .replication(3)
        .deadlines(SimDuration::from_millis(1), 2)
        .hedged_writes(Some(SimDuration::from_micros(200)))
        .lean_reads(Some(SimDuration::from_micros(300)));
    let fabric = Fabric::new(FabricConfig::new(9, link), 6);
    let mut c = KvCluster::with_transport(cfg, Box::new(fabric), device);
    let mut t = SimTime::ZERO;
    for i in 0..600u64 {
        if i == 300 {
            let before = key_passes();
            let (_, rep) = c.add_shard(t, device(0)).unwrap();
            let rep_remove = c.remove_shard(rep.completed, 0).unwrap();
            assert!(rep.copied_replicas > 0 && rep_remove.copied_replicas > 0);
            assert_eq!(key_passes(), before, "repair hashed a key");
            t = rep_remove.completed;
        }
        let k = key(i % 150);
        let before = key_passes();
        let done = match i % 3 {
            0 => c.store(t, k.as_bytes(), Payload::synthetic(512, i)),
            1 => c.retrieve(t, k.as_bytes()).map(|l| l.at),
            _ => c.delete(t, k.as_bytes()).map(|(d, _)| d),
        };
        assert_eq!(key_passes() - before, 1, "op {i}: one hash per op");
        match done {
            Ok(at) => t = at,
            Err(KvError::QuorumUnavailable { .. }) => {}
            Err(e) => panic!("op {i}: {e}"),
        }
    }
    let st = c.stats();
    let faults = [
        st.leg_retries,
        st.dup_suppressed,
        st.hedged_write_spares,
        st.hedged_spares,
    ];
    assert!(
        faults.iter().all(|&n| n > 0),
        "retries, duplicate deliveries and both hedges happened: {faults:?}"
    );
}

/// One op of the register check, on key `key(k)` of eight.
#[derive(Debug, Clone, Copy)]
enum RegisterOp {
    /// Store `Payload::synthetic(512, .1)`.
    Store(u8, u64),
    Delete(u8),
    Read(u8),
}

/// Closed-loop ops over eight keys, two stores per read.
fn register_ops(rng: &mut DeterministicRng) -> Vec<RegisterOp> {
    (0..rng.between(100, 600))
        .map(|i| {
            let k = rng.below(8) as u8;
            match rng.below(10) {
                0..=5 => RegisterOp::Store(k, i),
                6 => RegisterOp::Delete(k),
                _ => RegisterOp::Read(k),
            }
        })
        .collect()
}

/// Replays `ops` on 4 shards at R = 3 (quorums of 2, every read asking
/// all three replicas) over a fabric that drops `drop_ppm` of messages,
/// no deadlines armed. Each key is a register: a read that completes
/// must return the value of the last acknowledged write to its key (a
/// delete's is "absent"), or of a later write that ended in
/// `QuorumUnavailable`, which may or may not have taken effect.
fn register_holds(ops: &[RegisterOp], drop_ppm: u32) -> Result<(), String> {
    let link = LinkConfig {
        drop_ppm,
        ..LinkConfig::ideal()
    };
    let mut c = fabric_cluster(4, 3, link);
    let value = |tag: u64| Payload::synthetic(512, tag);
    // Per key: the last acknowledged write's tag (`None`: absent) first,
    // then the tags of the writes since that failed their quorum.
    let mut allowed: Vec<Vec<Option<u64>>> = vec![vec![None]; 8];
    let mut t = SimTime::ZERO;
    for (i, &op) in ops.iter().enumerate() {
        let (k, write) = match op {
            RegisterOp::Store(k, tag) => (k, Some(Some(tag))),
            RegisterOp::Delete(k) => (k, Some(None)),
            RegisterOp::Read(k) => (k, None),
        };
        let name = key(u64::from(k));
        let may = &mut allowed[k as usize];
        let done = match op {
            RegisterOp::Store(_, tag) => c.store(t, name.as_bytes(), value(tag)),
            RegisterOp::Delete(_) => c.delete(t, name.as_bytes()).map(|(at, _)| at),
            RegisterOp::Read(_) => match c.retrieve(t, name.as_bytes()) {
                Ok(l) if !may.iter().any(|&tag| tag.map(value) == l.value) => {
                    return Err(format!(
                        "op {i}: read of key {k} returned {:?}; the last acked \
                         write and the failed ones since are {may:?}",
                        l.value
                    ));
                }
                read => read.map(|l| l.at),
            },
        };
        match (done, write) {
            (Ok(at), Some(tag)) => {
                *may = vec![tag];
                t = at;
            }
            (Ok(at), None) => t = at,
            (Err(KvError::QuorumUnavailable { .. }), Some(tag)) => may.push(tag),
            (Err(KvError::QuorumUnavailable { .. }), None) => {}
            (Err(e), _) => return Err(format!("op {i} {op:?}: {e}")),
        }
    }
    Ok(())
}

/// The register check's control: with no message lost every write
/// acknowledges, and every read returns the last one.
#[test]
fn quorum_reads_on_a_lossless_fabric_return_the_last_write() {
    check(0..8, register_ops, |_| None, |ops| register_holds(ops, 0));
}

/// Filed, not fixed: a replica a write's leg never reached keeps the
/// old value, and a quorum read takes the first acked replica that holds
/// one, so at a 1 % drop rate a read can return a value older than the
/// last acknowledged write, or a deleted one.
#[test]
#[ignore = "ROADMAP item 23: a quorum read returns a value older than the last acknowledged write at 1 % drop: seed 0, 401 ops shrunk to 10"]
fn quorum_reads_return_the_newest_acknowledged_write() {
    check(
        0..1,
        register_ops,
        |_| None,
        |ops| register_holds(ops, 10_000),
    );
}
