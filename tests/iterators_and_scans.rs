//! Iterator/scan surfaces across the stacks (the workload-E shape).

use kvssd_study::bench::setup;
use kvssd_study::core::Payload;
use kvssd_study::host_stack::ExtFs;
use kvssd_study::lsm_store::{LsmConfig, LsmStore};
use kvssd_study::sim::SimTime;

#[test]
fn device_iterators_cover_prefix_buckets_exactly() {
    let mut s = setup::kv_ssd();
    let dev = s.device_mut();
    let mut t = SimTime::ZERO;
    // Two buckets: "usr." and "dev." keys.
    for i in 0..40u32 {
        t = dev
            .store(
                t,
                format!("usr.{i:08}").as_bytes(),
                Payload::synthetic(64, i as u64),
            )
            .unwrap();
    }
    for i in 0..25u32 {
        t = dev
            .store(
                t,
                format!("dev.{i:08}").as_bytes(),
                Payload::synthetic(64, i as u64),
            )
            .unwrap();
    }
    // Iterate each bucket with small batches; counts must be exact and
    // batches disjoint.
    for (prefix, expect) in [(*b"usr.", 40usize), (*b"dev.", 25)] {
        let (mut t2, h) = dev.iter_open(t, prefix);
        let mut seen = kvssd_sim::PrehashedSet::default();
        loop {
            let (t3, keys) = dev.iter_next(t2, h, 7).unwrap();
            t2 = t3;
            if keys.is_empty() {
                break;
            }
            for k in keys {
                assert_eq!(&k[..4], &prefix);
                assert!(seen.insert(k), "duplicate key in iteration");
            }
        }
        let _done = dev.iter_close(t2, h).unwrap();
        assert_eq!(seen.len(), expect, "bucket {:?}", prefix);
    }
}

#[test]
fn iteration_reflects_deletes_and_iterators_take_time() {
    let mut s = setup::kv_ssd();
    let dev = s.device_mut();
    let mut t = SimTime::ZERO;
    for i in 0..20u32 {
        t = dev
            .store(
                t,
                format!("scan{i:08}").as_bytes(),
                Payload::synthetic(32, 0),
            )
            .unwrap();
    }
    let (t2, removed) = dev.delete(t, b"scan00000007").unwrap();
    assert!(removed);
    let (t3, h) = dev.iter_open(t2, *b"scan");
    let (t4, keys) = dev.iter_next(t3, h, 100).unwrap();
    assert_eq!(keys.len(), 19);
    assert!(t4 > t3, "iteration consumes virtual time");
    let _done = dev.iter_close(t4, h).unwrap();
}

#[test]
fn lsm_scan_matches_device_iteration_contents() {
    // The same population through both stacks: the LSM's ordered scan
    // and the device's bucket iteration must agree on the key set.
    let mut kv = setup::kv_ssd();
    let mut lsm = LsmStore::new(ExtFs::format(setup::block_ssd()), LsmConfig::tiny());
    let mut t = SimTime::ZERO;
    let mut t2 = SimTime::ZERO;
    for i in 0..150u32 {
        let key = format!("rng.{i:09}");
        t = kv
            .device_mut()
            .store(t, key.as_bytes(), Payload::synthetic(64, i as u64))
            .unwrap();
        t2 = lsm.put(t2, key.as_bytes(), Payload::synthetic(64, i as u64));
    }
    t2 = lsm.flush_all(t2);
    let (_, scanned) = lsm.scan(t2, b"rng.", 1000);
    let (t5, h) = kv.device_mut().iter_open(t, *b"rng.");
    let (_, iterated) = kv.device_mut().iter_next(t5, h, 1000).unwrap();
    let mut a: Vec<Vec<u8>> = scanned.into_iter().map(|(k, _)| k.to_vec()).collect();
    let mut b: Vec<Vec<u8>> = iterated.into_iter().map(|k| k.to_vec()).collect();
    a.sort();
    b.sort();
    assert_eq!(a.len(), 150);
    assert_eq!(a, b);
}

#[test]
fn lsm_scan_latency_scales_with_tables_probed() {
    let mut lsm = LsmStore::new(ExtFs::format(setup::block_ssd()), LsmConfig::tiny());
    let mut t = SimTime::ZERO;
    for i in 0..2_000u32 {
        t = lsm.put(
            t,
            format!("sk.{i:09}").as_bytes(),
            Payload::synthetic(200, 0),
        );
    }
    t = lsm.flush_all(t);
    let before = t;
    let (after, got) = lsm.scan(t, b"sk.", 50);
    assert_eq!(got.len(), 50);
    assert!(after > before, "scans consume time");
}
