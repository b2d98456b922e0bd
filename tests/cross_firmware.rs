//! Cross-crate integration: the two firmware personalities over the same
//! NAND substrate, and the four store stacks behind one interface.

use kvssd_study::bench::setup;
use kvssd_study::kvbench::{run_phase, AccessPattern, KvStore, OpMix, ValueSize, WorkloadSpec};
use kvssd_study::sim::{SimDuration, SimTime};

#[test]
fn runs_are_deterministic_per_seed() {
    let run = || {
        let mut s = setup::kv_ssd();
        let spec = WorkloadSpec::new("det", 500, 500)
            .mix(OpMix::InsertOnly)
            .pattern(AccessPattern::Uniform)
            .value(ValueSize::Uniform { lo: 64, hi: 2048 })
            .queue_depth(8)
            .seed(1234);
        let m = run_phase(&mut s, &spec, SimTime::ZERO);
        (m.finished, m.writes.mean(), m.writes.percentile(99.0))
    };
    assert_eq!(run(), run(), "same seed must give identical virtual time");
}

#[test]
fn kv_firmware_ignores_key_order_block_firmware_does_not() {
    // The paper's central Fig. 2 observation, at integration level.
    let mean_insert = |store: &mut dyn KvStore, pattern| {
        let spec = WorkloadSpec::new("p", 800, 800)
            .mix(OpMix::InsertOnly)
            .pattern(pattern)
            .value(ValueSize::Fixed(4096))
            .queue_depth(8);
        run_phase(store, &spec, SimTime::ZERO)
            .writes
            .mean()
            .as_micros_f64()
    };
    let kv_seq = mean_insert(&mut setup::kv_ssd(), AccessPattern::Sequential);
    let kv_rand = mean_insert(&mut setup::kv_ssd(), AccessPattern::Uniform);
    let ratio = kv_seq / kv_rand;
    assert!(
        (0.8..1.25).contains(&ratio),
        "KV-SSD seq/rand insert ratio should be ~1, got {ratio}"
    );
    // Block firmware: random updates pay the reorganization path.
    let blk_probe = |pattern| {
        let mut blk = setup::block_direct(4096);
        let fill = WorkloadSpec::new("fill", 3_000, 3_000)
            .mix(OpMix::InsertOnly)
            .pattern(AccessPattern::Sequential)
            .value(ValueSize::Fixed(4096))
            .queue_depth(16);
        let f = run_phase(&mut blk, &fill, SimTime::ZERO);
        let spec = WorkloadSpec::new("p", 3_000, 3_000)
            .mix(OpMix::UpdateOnly)
            .pattern(pattern)
            .value(ValueSize::Fixed(4096))
            .queue_depth(16);
        run_phase(&mut blk, &spec, f.finished + SimDuration::from_millis(200))
            .writes
            .mean()
            .as_micros_f64()
    };
    let blk_seq = blk_probe(AccessPattern::Sequential);
    let blk_rand = blk_probe(AccessPattern::Uniform);
    assert!(
        blk_seq < blk_rand * 0.85,
        "block sequential writes should beat random ({blk_seq} vs {blk_rand})"
    );
}

#[test]
fn kv_api_cpu_is_a_fraction_of_rocksdb() {
    let cpu = |store: &mut dyn KvStore| {
        let spec = WorkloadSpec::new("cpu", 2_000, 2_000)
            .mix(OpMix::InsertOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(8);
        run_phase(store, &spec, SimTime::ZERO);
        store.host_cpu_busy()
    };
    let kv = cpu(&mut setup::kv_ssd());
    let rdb = cpu(&mut setup::rocksdb());
    assert!(
        rdb.as_nanos() > kv.as_nanos() * 4,
        "RocksDB host CPU ({rdb}) should dwarf the KV API's ({kv})"
    );
}

#[test]
fn deeper_queues_speed_up_kv_reads() {
    let elapsed = |qd: usize| {
        let mut s = setup::kv_ssd();
        let fill = WorkloadSpec::new("fill", 2_000, 2_000)
            .mix(OpMix::InsertOnly)
            .value(ValueSize::Fixed(1024))
            .queue_depth(16);
        let f = run_phase(&mut s, &fill, SimTime::ZERO);
        let reads = WorkloadSpec::new("read", 2_000, 2_000)
            .mix(OpMix::ReadOnly)
            .queue_depth(qd)
            .seed(5);
        run_phase(&mut s, &reads, f.finished + SimDuration::from_secs(1)).elapsed()
    };
    let qd1 = elapsed(1);
    let qd32 = elapsed(32);
    assert!(
        qd32.as_nanos() * 3 < qd1.as_nanos(),
        "QD32 reads ({qd32}) should beat QD1 ({qd1}) by > 3x on 32 dies"
    );
}

#[test]
fn zipfian_updates_concentrate_device_load() {
    let mut s = setup::kv_ssd();
    let fill = WorkloadSpec::new("fill", 2_000, 2_000)
        .mix(OpMix::InsertOnly)
        .value(ValueSize::Fixed(2048))
        .queue_depth(8);
    let f = run_phase(&mut s, &fill, SimTime::ZERO);
    let zipf = WorkloadSpec::new("zipf", 4_000, 2_000)
        .mix(OpMix::Mixed { read_pct: 50 })
        .pattern(AccessPattern::Zipfian { theta: 0.99 })
        .value(ValueSize::Fixed(2048))
        .queue_depth(8)
        .seed(77);
    let m = run_phase(&mut s, &zipf, f.finished + SimDuration::from_millis(100));
    assert_eq!(m.reads.count() + m.writes.count(), 4_000);
    assert_eq!(m.not_found, 0, "zipf reads must stay inside the population");
}
