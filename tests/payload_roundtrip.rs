//! Round-trip guarantees for the `Arc<Vec<u8>>` payload representation:
//! retrieve must return exactly what was stored (including zero-length
//! and blob-split cases) while sharing storage with the index instead
//! of copying value bytes per lookup.

use kvssd_study::core::{KvConfig, KvSsd, Payload};
use kvssd_study::flash::{FlashTiming, Geometry};
use kvssd_study::sim::SimTime;

fn dev() -> KvSsd {
    KvSsd::new(
        Geometry::small(),
        FlashTiming::pm983_like(),
        KvConfig::small(),
    )
}

#[test]
fn byte_payloads_round_trip_exactly() {
    let mut d = dev();
    let cases: Vec<(&[u8], Vec<u8>)> = vec![
        (b"tiny-val", vec![0xAB]),
        (b"ascii-val", b"the quick brown fox".to_vec()),
        (b"page-ish", (0..4096u32).map(|i| (i % 251) as u8).collect()),
    ];
    let mut t = SimTime::ZERO;
    for (key, val) in &cases {
        t = d.store(t, key, Payload::from_bytes(val.clone())).unwrap();
    }
    for (key, val) in &cases {
        let got = d.retrieve(t, key).unwrap();
        assert_eq!(
            got.value.unwrap().as_bytes().unwrap(),
            &val[..],
            "key {:?} must read back verbatim",
            String::from_utf8_lossy(key)
        );
    }
}

#[test]
fn zero_length_payload_round_trips() {
    let mut d = dev();
    let t = d
        .store(SimTime::ZERO, b"empty-one", Payload::from_bytes(vec![]))
        .unwrap();
    let got = d.retrieve(t, b"empty-one").unwrap();
    let p = got.value.expect("present");
    assert!(p.is_empty());
    assert_eq!(p.as_bytes(), Some(&[][..]));
    assert_eq!(p, Payload::from_bytes(vec![]));
}

#[test]
fn split_blob_payload_round_trips() {
    let mut d = dev();
    // 100 KiB of real bytes: far past the per-page value budget, so the
    // blob splits into multiple segments (the Fig. 4/5 mechanism).
    let big: Vec<u8> = (0..100 * 1024u32).map(|i| (i * 31 % 253) as u8).collect();
    let stored = Payload::from_bytes(big.clone());
    let t = d.store(SimTime::ZERO, b"big-blob", stored.clone()).unwrap();
    assert_eq!(d.stats().split_stores, 1, "100 KiB must split");
    assert!(
        d.segments_of(b"big-blob").unwrap().len() > 1,
        "split blob must occupy multiple segments"
    );
    let got = d.retrieve(t, b"big-blob").unwrap();
    let p = got.value.expect("present");
    assert_eq!(p, stored);
    assert_eq!(p.as_bytes().unwrap(), &big[..]);
}

#[test]
fn retrieve_shares_storage_instead_of_copying() {
    let mut d = dev();
    let stored = Payload::from_bytes(vec![9u8; 512]);
    let ptr = stored.as_bytes().unwrap().as_ptr();
    let t = d.store(SimTime::ZERO, b"shared-key", stored).unwrap();
    let got = d.retrieve(t, b"shared-key").unwrap();
    let p = got.value.expect("present");
    assert_eq!(
        p.as_bytes().unwrap().as_ptr(),
        ptr,
        "retrieve must return a refcount bump of the stored bytes, not a copy"
    );
}

#[test]
fn overwrites_do_not_leak_old_bytes() {
    let mut d = dev();
    let t = d
        .store(
            SimTime::ZERO,
            b"version-key",
            Payload::from_bytes(vec![1; 64]),
        )
        .unwrap();
    let t = d
        .store(t, b"version-key", Payload::from_bytes(vec![2; 128]))
        .unwrap();
    let got = d.retrieve(t, b"version-key").unwrap();
    assert_eq!(got.value.unwrap().as_bytes().unwrap(), &[2u8; 128][..]);
}
