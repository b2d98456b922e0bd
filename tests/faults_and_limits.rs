//! Failure injection and limit behavior across the stack.

use kvssd_study::block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_study::core::{KvConfig, KvError, KvSsd, Payload};
use kvssd_study::flash::{FaultPlan, FlashDevice, FlashTiming, Geometry};
use kvssd_study::sim::SimTime;

fn key(i: u64) -> Vec<u8> {
    format!("fault.{i:010}").into_bytes()
}

#[test]
fn kvssd_survives_program_and_erase_faults() {
    let flash = FlashDevice::with_faults(
        Geometry::small(),
        FlashTiming::pm983_like(),
        FaultPlan {
            program_fail_one_in: Some(15),
            erase_fail_one_in: Some(30),
        },
    );
    let mut dev = KvSsd::over(flash, KvConfig::small());
    let mut t = SimTime::ZERO;
    let n = 400u64;
    for round in 0..2u64 {
        for i in 0..n {
            t = dev
                .store(t, &key(i), Payload::synthetic(1500, round * n + i))
                .unwrap();
        }
    }
    assert!(
        dev.flash().stats().program_failures > 0,
        "the plan must actually have injected faults"
    );
    // All data must survive retirements, re-placements, and GC around
    // dead blocks.
    for i in 0..n {
        let got = dev.retrieve(t, &key(i)).unwrap();
        assert_eq!(
            got.value,
            Some(Payload::synthetic(1500, n + i)),
            "key {i} lost or stale after faults"
        );
    }
}

#[test]
fn block_ssd_survives_program_faults() {
    let flash = FlashDevice::with_faults(
        Geometry::small(),
        FlashTiming::pm983_like(),
        FaultPlan {
            program_fail_one_in: Some(40),
            erase_fail_one_in: None,
        },
    );
    let mut dev = BlockSsd::over(flash, BlockFtlConfig::pm983_like());
    let mut t = SimTime::ZERO;
    let cap = dev.capacity_bytes();
    for off in (0..cap / 4).step_by(4096) {
        t = dev.write(t, off, 4096).unwrap();
    }
    let _flushed = dev.flush(t);
    assert!(dev.flash().stats().program_failures > 0);
    assert!(dev.stats().replaced_after_failure > 0);
    // Mapping accounting stayed exact: one 4 KiB cluster per write.
    let writes = (cap / 4).div_ceil(4096);
    assert_eq!(dev.valid_bytes(), writes * 4096);
}

#[test]
fn kvp_limit_reports_index_full() {
    let mut cfg = KvConfig::small();
    cfg.max_kvps = 100;
    let mut dev = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(), cfg);
    let mut t = SimTime::ZERO;
    for i in 0..100u64 {
        t = dev.store(t, &key(i), Payload::synthetic(32, i)).unwrap();
    }
    match dev.store(t, &key(100), Payload::synthetic(32, 0)) {
        Err(KvError::IndexFull { max_kvps }) => assert_eq!(max_kvps, 100),
        other => panic!("expected IndexFull, got {other:?}"),
    }
    // Updates and deletes still work at the limit.
    let (t, existed) = dev.delete(t, &key(0)).unwrap();
    assert!(existed);
    let _stored = dev
        .store(t, &key(100), Payload::synthetic(32, 0))
        .expect("a slot freed by delete is reusable");
}

#[test]
fn device_full_is_reported_not_hung() {
    let mut dev = KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    );
    let mut t = SimTime::ZERO;
    let mut full_seen = false;
    for i in 0..20_000u64 {
        match dev.store(t, &key(i), Payload::synthetic(512 * 1024, i)) {
            Ok(t2) => t = t2,
            Err(KvError::DeviceFull) => {
                full_seen = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(full_seen, "filling past capacity must report DeviceFull");
    // The device still serves reads afterwards.
    let got = dev.retrieve(t, &key(0)).unwrap();
    assert!(got.value.is_some());
}

#[test]
fn key_and_value_limits_are_exact() {
    let mut dev = KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    );
    // 4 B and 255 B keys are legal bounds; 2 MiB values are the cap.
    let t = dev
        .store(SimTime::ZERO, b"abcd", Payload::synthetic(1, 0))
        .unwrap();
    let long = vec![b'k'; 255];
    let t = dev.store(t, &long, Payload::synthetic(1, 0)).unwrap();
    let _stored = dev
        .store(t, b"maxval", Payload::synthetic(2 * 1024 * 1024, 0))
        .unwrap();
    assert!(matches!(
        dev.store(t, b"abc", Payload::synthetic(1, 0)),
        Err(KvError::KeyTooShort { .. })
    ));
    assert!(matches!(
        dev.store(t, &vec![b'k'; 256], Payload::synthetic(1, 0)),
        Err(KvError::KeyTooLong { .. })
    ));
    assert!(matches!(
        dev.store(t, b"toolarge", Payload::synthetic(2 * 1024 * 1024 + 1, 0)),
        Err(KvError::ValueTooLarge { .. })
    ));
}
