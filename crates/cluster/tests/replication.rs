//! R-way replication: replica-set placement properties, quorum I/O
//! end-to-end, repair after membership changes, the rebalance
//! barrier/quiesce regression, and the pinned key-registry history.

use kvssd_cluster::{ClusterConfig, HashRing, KvCluster};
use kvssd_core::{KvConfig, KvError, KvSsd, Payload};
use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_sim::{digest64, mix64, DeterministicRng, SimDuration, SimTime};

fn small_device() -> KvSsd {
    KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    )
}

fn fill(cluster: &mut KvCluster, n: u64) -> SimTime {
    let mut t = SimTime::ZERO;
    for i in 0..n {
        t = cluster
            .store(
                t,
                format!("rep{i:08}").as_bytes(),
                Payload::synthetic(512, i),
            )
            .unwrap();
    }
    t
}

/// Shards currently holding a replica of `key`, by registry.
fn holder_count(cluster: &KvCluster, key: &[u8]) -> usize {
    cluster.shards().iter().filter(|s| s.holds(key)).count()
}

// ---------------------------------------------------------------- ring

/// `replica_set` returns `min(r, shard_count)` distinct shards and
/// always starts with `shard_for(h)`.
#[test]
fn replica_set_size_and_head_properties() {
    for &n in &[1usize, 2, 3, 5, 8] {
        let ids: Vec<usize> = (0..n).collect();
        let ring = HashRing::new(17, 48, &ids);
        for k in 0..1_000u64 {
            let h = mix64(k);
            for r in 1..=(n + 2) {
                let set = ring.replica_set(h, r);
                assert_eq!(set.len(), r.min(n), "n={n} r={r}");
                assert_eq!(set[0], ring.shard_for(h), "n={n} r={r}");
                let mut uniq = set.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), set.len(), "repeated shard in replica set");
            }
        }
    }
}

/// Placement is a pure function of the seed.
#[test]
fn replica_set_is_deterministic_per_seed() {
    let a = HashRing::new(23, 64, &[0, 1, 2, 3, 4]);
    let b = HashRing::new(23, 64, &[0, 1, 2, 3, 4]);
    let c = HashRing::new(24, 64, &[0, 1, 2, 3, 4]);
    let mut moved = 0usize;
    for k in 0..1_000u64 {
        let h = mix64(k);
        assert_eq!(a.replica_set(h, 3), b.replica_set(h, 3));
        if a.replica_set(h, 3) != c.replica_set(h, 3) {
            moved += 1;
        }
    }
    assert!(moved > 250, "different seeds should reshuffle placement");
}

/// Adding a shard only changes replica sets that now *contain* the new
/// shard, and the surviving members keep their walk order (the old set
/// minus the displaced tail is a prefix).
#[test]
fn replica_sets_change_only_adjacent_to_an_added_shard() {
    let mut ring = HashRing::new(31, 48, &[0, 1, 2, 3]);
    let before: Vec<Vec<usize>> = (0..2_000u64)
        .map(|k| ring.replica_set(mix64(k), 3))
        .collect();
    ring.add_shard(4);
    let mut changed = 0usize;
    for (k, old) in before.iter().enumerate() {
        let new = ring.replica_set(mix64(k as u64), 3);
        if *old == new {
            continue;
        }
        changed += 1;
        assert!(
            new.contains(&4),
            "key {k}: replica set changed without involving the new shard: {old:?} -> {new:?}"
        );
        let without: Vec<usize> = new.iter().copied().filter(|&s| s != 4).collect();
        assert_eq!(
            without,
            old[..without.len()],
            "key {k}: surviving members reordered: {old:?} -> {new:?}"
        );
    }
    // Some keys must sit next to the new shard's vnodes...
    assert!(changed > 0, "adding a shard changed no replica set");
    // ...and change ⟺ adoption: a set changed exactly when the new
    // shard joined it, so `changed` matches the new shard's share of
    // 3-way placement (≈ 3/5 of keys here, never all of them).
    let adopted = (0..before.len() as u64)
        .filter(|&k| ring.replica_set(mix64(k), 3).contains(&4))
        .count();
    assert_eq!(changed, adopted, "a set changed without adopting shard 4");
    assert!(
        changed < before.len() * 3 / 4,
        "adding one shard to four rewrote {changed}/{} replica sets",
        before.len()
    );
}

/// Removing a shard only changes replica sets that contained it, and
/// the survivors keep their walk order as a prefix of the new set.
#[test]
fn replica_sets_change_only_adjacent_to_a_removed_shard() {
    let mut ring = HashRing::new(31, 48, &[0, 1, 2, 3, 4]);
    let before: Vec<Vec<usize>> = (0..2_000u64)
        .map(|k| ring.replica_set(mix64(k), 3))
        .collect();
    ring.remove_shard(2);
    for (k, old) in before.iter().enumerate() {
        let new = ring.replica_set(mix64(k as u64), 3);
        if *old == new {
            continue;
        }
        assert!(
            old.contains(&2),
            "key {k}: replica set changed without having held the removed shard: {old:?} -> {new:?}"
        );
        let survivors: Vec<usize> = old.iter().copied().filter(|&s| s != 2).collect();
        assert_eq!(
            survivors,
            new[..survivors.len()],
            "key {k}: surviving members reordered: {old:?} -> {new:?}"
        );
    }
}

// ------------------------------------------------------------- cluster

/// R = 1 replication config is the plain cluster: same completion
/// times, op for op.
#[test]
fn r1_replication_is_the_plain_cluster() {
    let mut plain = KvCluster::new(ClusterConfig::new(4, 42), |_| small_device());
    let mut r1 = KvCluster::for_test_replicated(4, 1);
    let mut tp = SimTime::ZERO;
    let mut tr = SimTime::ZERO;
    for i in 0..200u64 {
        let k = format!("eq{i:08}");
        tp = plain
            .store(tp, k.as_bytes(), Payload::synthetic(768, i))
            .unwrap();
        tr = r1
            .store(tr, k.as_bytes(), Payload::synthetic(768, i))
            .unwrap();
        assert_eq!(tp, tr, "diverged at store {i}");
    }
    let lp = plain.retrieve(tp, b"eq00000042").unwrap();
    let lr = r1.retrieve(tr, b"eq00000042").unwrap();
    assert_eq!(lp.at, lr.at);
    assert_eq!(plain.report(), r1.report());
}

/// Every key lands on min(R, N) distinct shards, registry and device
/// agreeing.
#[test]
fn stores_replicate_to_min_r_n_shards() {
    for &(n, r) in &[(2usize, 3usize), (4, 3), (4, 2), (3, 1)] {
        let mut c = KvCluster::for_test_replicated(n, r);
        let _done = fill(&mut c, 100);
        let want = r.min(n);
        for i in 0..100u64 {
            let key = format!("rep{i:08}");
            assert_eq!(
                holder_count(&c, key.as_bytes()),
                want,
                "key {key} on N={n} R={r}"
            );
            assert_eq!(c.replica_routes(key.as_bytes()).unwrap().len(), want);
        }
        assert_eq!(c.len(), 100 * want as u64);
    }
}

/// The acceptance end-to-end: R = 3 on 4 shards. After removing ANY
/// single shard, a quorum read returns the last quorum-acknowledged
/// value for every key, and repair leaves every key with exactly
/// min(R, N) = 3 live replicas on the surviving 3 shards.
#[test]
fn quorum_reads_survive_any_single_shard_removal() {
    let n_keys = 150u64;
    let victims: Vec<usize> = KvCluster::for_test_replicated(4, 3)
        .shards()
        .iter()
        .map(|s| s.id())
        .collect();
    for victim in victims {
        let mut c = KvCluster::for_test_replicated(4, 3);
        let mut t = fill(&mut c, n_keys);
        // Overwrite a slice of keys so "last acknowledged value" is not
        // just the fill value.
        for i in 0..n_keys / 3 {
            t = c
                .store(
                    t,
                    format!("rep{i:08}").as_bytes(),
                    Payload::synthetic(640, 1_000 + i),
                )
                .unwrap();
        }
        let rep = c.remove_shard(t, victim).unwrap();
        assert_eq!(c.shard_count(), 3);
        assert!(rep.copied_replicas > 0, "repair must re-replicate");
        for i in 0..n_keys {
            let key = format!("rep{i:08}");
            let l = c.retrieve(rep.completed, key.as_bytes()).unwrap();
            let expect_tag = if i < n_keys / 3 { 1_000 + i } else { i };
            match l.value {
                Some(Payload::Synthetic { tag, .. }) => assert_eq!(
                    tag, expect_tag,
                    "key {key} lost its last acknowledged value after removing {victim}"
                ),
                other => panic!("key {key} unreadable after removing {victim}: {other:?}"),
            }
            assert_eq!(
                holder_count(&c, key.as_bytes()),
                3,
                "key {key} not fully re-replicated after removing {victim}"
            );
        }
    }
}

/// `add_shard` is symmetric: keys adopt the new shard where the ring
/// says so, demoted replicas are dropped, and every key ends with
/// exactly min(R, N) copies.
#[test]
fn add_shard_demotes_and_promotes_symmetrically() {
    let mut c = KvCluster::for_test_replicated(3, 2);
    let t = fill(&mut c, 200);
    assert_eq!(c.len(), 400);
    let (id, rep) = c.add_shard(t, small_device()).unwrap();
    assert_eq!(c.shard_count(), 4);
    assert!(rep.copied_replicas > 0, "the new shard should adopt keys");
    assert!(
        rep.dropped_replicas > 0,
        "demoted replicas should be dropped"
    );
    // With R fixed, copies in == copies out.
    assert_eq!(rep.copied_replicas, rep.dropped_replicas);
    assert_eq!(c.len(), 400, "replica count must be conserved");
    let new_idx = c.shards().iter().position(|s| s.id() == id).unwrap();
    assert!(c.shards()[new_idx].key_count() > 0);
    for i in 0..200u64 {
        let key = format!("rep{i:08}");
        assert_eq!(holder_count(&c, key.as_bytes()), 2, "key {key}");
        let l = c.retrieve(rep.completed, key.as_bytes()).unwrap();
        assert!(l.value.is_some(), "key {key} unreadable after add_shard");
    }
}

/// Regression (pre-fix failure): the rebalance barrier must be covered
/// by `quiesce_time()` after `remove_shard` — the removed shard's lane
/// leaves, but every leg the report's `completed` covers ran on a
/// surviving shard.
#[test]
fn quiesce_covers_the_rebalance_barrier() {
    for r in [1usize, 3] {
        let mut c = KvCluster::for_test_replicated(3, r);
        let t = fill(&mut c, 200);
        let victim = c.shards()[1].id();
        let rep = c.remove_shard(t, victim).unwrap();
        assert!(
            c.quiesce_time() >= rep.completed,
            "R={r}: quiesce {} < rebalance barrier {}",
            c.quiesce_time(),
            rep.completed
        );
        // And again for add_shard (all lanes survive there).
        let (_, rep2) = c.add_shard(rep.completed, small_device()).unwrap();
        assert!(
            c.quiesce_time() >= rep2.completed,
            "R={r}: quiesce {} < add barrier {}",
            c.quiesce_time(),
            rep2.completed
        );
    }
}

/// Quorum choice shapes the acknowledged latency: under a burst (all
/// stores issued at the same instant, so per-shard backlogs diverge
/// and the three legs of each op finish at different times), waiting
/// for all replicas never acknowledges before a majority, which never
/// acknowledges before the fastest replica — while the total work
/// (quiesce time) is identical regardless of quorum size.
#[test]
fn quorum_size_orders_acknowledged_completion() {
    let ack_with = |wq: usize| {
        let config = ClusterConfig::new(4, 42).replication(3).quorums(1, wq);
        let mut c = KvCluster::new(config, |_| small_device());
        let mut total = SimDuration::ZERO;
        for i in 0..100u64 {
            let t = c
                .store(
                    SimTime::ZERO,
                    format!("qk{i:08}").as_bytes(),
                    Payload::synthetic(2048, i),
                )
                .unwrap();
            total += t.since(SimTime::ZERO);
        }
        (total, c.quiesce_time())
    };
    let (w1, q1) = ack_with(1);
    let (w2, q2) = ack_with(2);
    let (w3, q3) = ack_with(3);
    assert!(
        w1 < w2 && w2 < w3,
        "quorum acks out of order: {w1} {w2} {w3}"
    );
    // The quorum only moves the acknowledgement point, not the work.
    assert_eq!(q1, q2);
    assert_eq!(q2, q3);
}

/// Deletes fan out too: after a quorum delete, no replica still serves
/// the key, even after repairing around a removed shard.
#[test]
fn quorum_delete_clears_every_replica() {
    let mut c = KvCluster::for_test_replicated(4, 3);
    let t = fill(&mut c, 60);
    let (t, existed) = c.delete(t, b"rep00000007").unwrap();
    assert!(existed);
    assert_eq!(holder_count(&c, b"rep00000007"), 0);
    let l = c.retrieve(t, b"rep00000007").unwrap();
    assert!(l.value.is_none());
    let victim = c.shards()[0].id();
    let rep = c.remove_shard(t, victim).unwrap();
    let l = c.retrieve(rep.completed, b"rep00000007").unwrap();
    assert!(l.value.is_none(), "deleted key resurrected by repair");
}

// ------------------------------------------------- registry history pin

/// Every key the registry scenario may touch: short keys stay inline in
/// the registry's key copy, every seventh one is long enough to spill.
fn registry_key(i: u64) -> String {
    if i.is_multiple_of(7) {
        format!("registry-spilled-key-{i:012}")
    } else {
        format!("reg{i:05}")
    }
}

/// Seeded stores, retrieves and deletes over 120 keys, interleaved with
/// two `add_shard` and two `remove_shard`, on the in-process transport
/// or (`lossy`) on a fabric with 20 % drops, 2 % duplicates, a roaming
/// partition and armed deadlines. After every membership change it
/// renders each shard's id and `key_count()`, `holds(key)` for every
/// key, and the whole `RebalanceReport`; at the end, `report()`.
fn registry_scenario(seed: u64, r: usize, lossy: bool) -> String {
    const KEYS: u64 = 120;
    let config = ClusterConfig::new(4, seed).replication(r);
    let mut c = if lossy {
        let link = LinkConfig {
            latency: SimDuration::from_micros(10),
            drop_ppm: 200_000,
            duplicate_ppm: 20_000,
            ..LinkConfig::ideal()
        };
        KvCluster::with_transport(
            config.deadlines(SimDuration::from_micros(500), 2),
            Box::new(Fabric::new(FabricConfig::new(seed, link), 4)),
            |_| small_device(),
        )
    } else {
        KvCluster::new(config, |_| small_device())
    };
    let mut rng = DeterministicRng::seed_from(mix64(seed ^ r as u64));
    let mut out = format!("seed={seed} r={r} lossy={lossy}\n");
    let mut t = SimTime::ZERO;
    for i in 0..360u64 {
        if lossy && i % 45 == 20 {
            // The partition roams: heal every link, cut the next one.
            let links = c.shard_count();
            let f = c.fabric_mut().expect("fabric-backed");
            for link in 0..links {
                f.heal(link);
            }
            f.partition((i / 45) as usize % links);
        }
        let change = match i {
            90 | 250 => {
                let (id, rep) = c.add_shard(t, small_device()).unwrap();
                Some((format!("add {id}"), rep))
            }
            170 | 320 => {
                let victim = c.shards()[rng.below(c.shard_count() as u64) as usize].id();
                Some((
                    format!("remove {victim}"),
                    c.remove_shard(t, victim).unwrap(),
                ))
            }
            _ => None,
        };
        if let Some((what, rep)) = change {
            t = t.max(rep.completed);
            out.push_str(&format!("op {i}: {what} {rep:?}\nshards"));
            for s in c.shards() {
                out.push_str(&format!(" {}:{}", s.id(), s.key_count()));
            }
            out.push_str("\nholds ");
            for k in 0..KEYS {
                for s in c.shards() {
                    out.push(if s.holds(registry_key(k).as_bytes()) {
                        '1'
                    } else {
                        '0'
                    });
                }
                out.push(' ');
            }
            out.push('\n');
        }
        let key = registry_key(rng.below(KEYS));
        let done = match rng.below(10) {
            0..=4 => c.store(
                t,
                key.as_bytes(),
                Payload::synthetic(300 + (i as u32 % 5) * 200, i),
            ),
            5..=7 => c.retrieve(t, key.as_bytes()).map(|l| l.at),
            _ => c.delete(t, key.as_bytes()).map(|(d, _)| d),
        };
        match done {
            Ok(at) => t = t.max(at),
            Err(KvError::QuorumUnavailable { .. }) if lossy => {}
            Err(e) => panic!("op {i} on seed {seed} r={r} lossy={lossy}: {e}"),
        }
    }
    out.push_str(&c.report());
    out
}

/// `(seed, R, lossy)` → digest of [`registry_scenario`]'s rendering,
/// computed on the hash-keyed registry with its collision spill list,
/// before the registry was keyed by `(key_hash, key_fingerprint)`.
/// Never re-pinned.
const REGISTRY_REFERENCE_HISTORY: [((u64, usize, bool), u64); 18] = [
    ((3, 1, false), 0xbcf0bc6b6ad284ea),
    ((3, 1, true), 0xe1613f192318fedc),
    ((3, 2, false), 0x2248d893d6311374),
    ((3, 2, true), 0x2f1d09e377b8ae42),
    ((3, 3, false), 0x39651ad7cdd18385),
    ((3, 3, true), 0x010bf1eebd20192d),
    ((8, 1, false), 0xfc1704e03afc71d5),
    ((8, 1, true), 0xd3826b64a89b0425),
    ((8, 2, false), 0xd12ff4af34902ba3),
    ((8, 2, true), 0xa5741facd4415c6e),
    ((8, 3, false), 0x2091e0ca29987964),
    ((8, 3, true), 0xce635aca882ef674),
    ((21, 1, false), 0x5ca3f14b5843fa8d),
    ((21, 1, true), 0x6cf668f707af3c93),
    ((21, 2, false), 0xcc2306bd8bca9cce),
    ((21, 2, true), 0x5607495e529dd291),
    ((21, 3, false), 0x0756278e188d4cc6),
    ((21, 3, true), 0xbe7c6d497e7cf5ea),
];

#[test]
fn registry_reference_history() {
    let mut drifted = Vec::new();
    for ((seed, r, lossy), want) in REGISTRY_REFERENCE_HISTORY {
        let rendered = registry_scenario(seed, r, lossy);
        let got = digest64(rendered.as_bytes());
        if got != want {
            drifted.push(format!("(({seed}, {r}, {lossy}), 0x{got:016x}),"));
        }
    }
    assert!(
        drifted.is_empty(),
        "the key registry's history drifted:\n{}",
        drifted.join("\n")
    );
}
