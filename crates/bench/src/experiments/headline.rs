//! The introduction's headline numbers (Sec. I) and the block-SSD
//! sequential-vs-random baseline (Sec. IV).
//!
//! Paper claims reproduced here:
//! * KV-SSD direct I/O vs block direct I/O at 4 KiB random: bandwidth
//!   as low as 0.44x (reads) / 0.22x (writes); latency up to 2.63x
//!   (writes) / 8.1x (reads),
//! * host CPU: KV-SSD needs ~13x less than RocksDB,
//! * block-SSD sequential 4 KiB I/O enjoys <= 0.8x (read) / 0.6x (write)
//!   of random latency — the benefit hashing takes away from the KV side.

use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, AccessPattern, KvStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::{setup, Scale};

/// The headline measurements.
#[derive(Debug, Clone, Default)]
pub struct HeadlineResult {
    /// KV/block write-latency ratio at 4 KiB random QD 1.
    pub write_latency_ratio: f64,
    /// KV/block read-latency ratio at 4 KiB random QD 1.
    pub read_latency_ratio: f64,
    /// KV/block write bandwidth ratio at 4 KiB random QD 32.
    pub write_bw_ratio: f64,
    /// KV/block read bandwidth ratio at 4 KiB random QD 32.
    pub read_bw_ratio: f64,
    /// RocksDB/KV host-CPU ratio over an insert+update+read cycle.
    pub cpu_ratio_rocksdb: f64,
    /// Aerospike/KV host-CPU ratio over the same cycle.
    pub cpu_ratio_aerospike: f64,
    /// Block-SSD sequential/random read-latency ratio (4 KiB).
    pub block_seq_read_ratio: f64,
    /// Block-SSD sequential/random write-latency ratio (4 KiB).
    pub block_seq_write_ratio: f64,
    /// Worst-case KV/block write bandwidth ratio (splitting regime).
    pub worst_write_bw_ratio: f64,
    /// Worst-case KV/block read bandwidth ratio (large split reads).
    pub worst_read_bw_ratio: f64,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> HeadlineResult {
    let n = scale.pick(2_500, 40_000, 100_000);
    let mut out = HeadlineResult::default();

    // Direct-I/O latency (QD 1) and bandwidth (QD 32) comparisons.
    let kv1 = direct_probe(&mut setup::kv_ssd(), n, 1);
    let blk1 = direct_probe(&mut setup::block_direct(4096), n, 1);
    let kv32 = direct_probe(&mut setup::kv_ssd(), n, 32);
    let blk32 = direct_probe(&mut setup::block_direct(4096), n, 32);
    out.write_latency_ratio = kv1.0 / blk1.0;
    out.read_latency_ratio = kv1.1 / blk1.1;
    out.write_bw_ratio = kv32.2 / blk32.2;
    out.read_bw_ratio = kv32.3 / blk32.3;

    // Host CPU over a full insert/update/read cycle.
    let kv_cpu = cpu_cycle(&mut setup::kv_ssd(), n);
    let rdb_cpu = cpu_cycle(&mut setup::rocksdb(), n);
    let as_cpu = cpu_cycle(&mut setup::aerospike(), n);
    out.cpu_ratio_rocksdb = rdb_cpu / kv_cpu;
    out.cpu_ratio_aerospike = as_cpu / kv_cpu;

    // Block-SSD sequential vs random 4 KiB latencies (QD 32), each on a
    // freshly filled device so GC debt from one probe cannot leak into
    // the next.
    let probe = |pattern, mix, seed| {
        let mut blk = setup::block_direct(4096);
        let f = crate::experiments::fill(&mut blk, n, 4096, 32, SimTime::ZERO);
        run_phase(
            &mut blk,
            &WorkloadSpec::new("p", n, n)
                .mix(mix)
                .pattern(pattern)
                .value(ValueSize::Fixed(4096))
                .queue_depth(32)
                .seed(seed),
            crate::experiments::settle(f.finished),
        )
    };
    let rw = probe(AccessPattern::Uniform, OpMix::UpdateOnly, 3);
    let sw = probe(AccessPattern::Sequential, OpMix::UpdateOnly, 4);
    let rr = probe(AccessPattern::Uniform, OpMix::ReadOnly, 5);
    let sr = probe(AccessPattern::Sequential, OpMix::ReadOnly, 6);
    out.block_seq_write_ratio = sw.writes.mean().as_micros_f64() / rw.writes.mean().as_micros_f64();
    out.block_seq_read_ratio = sr.reads.mean().as_micros_f64() / rr.reads.mean().as_micros_f64();

    // "As low as" bandwidth ratios: the paper's worst cases come from
    // the splitting regime (writes just past the page budget) and large
    // split reads.
    let kv_w = bw_probe(&mut setup::kv_ssd(), n / 4, 25 * 1024);
    let blk_w = bw_probe(&mut setup::block_direct(25 * 1024), n / 4, 25 * 1024);
    out.worst_write_bw_ratio = kv_w.0 / blk_w.0;
    let kv_r = bw_probe(&mut setup::kv_ssd(), n / 8, 64 * 1024);
    let blk_r = bw_probe(&mut setup::block_direct(64 * 1024), n / 8, 64 * 1024);
    out.worst_read_bw_ratio = kv_r.1 / blk_r.1;
    out
}

/// (insert MB/s, random-read MB/s at QD 32) for a fresh store.
fn bw_probe(store: &mut dyn KvStore, n: u64, value_bytes: u32) -> (f64, f64) {
    let f = crate::experiments::fill(store, n, value_bytes, 32, SimTime::ZERO);
    let r = run_phase(
        store,
        &WorkloadSpec::new("r", n, n)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(value_bytes))
            .queue_depth(32)
            .seed(61),
        crate::experiments::settle(f.finished),
    );
    (f.mean_mbps(), r.mean_mbps())
}

/// Returns (write mean us, read mean us, write MB/s, read MB/s) for 4 KiB
/// random direct I/O at `qd`.
fn direct_probe(store: &mut dyn KvStore, n: u64, qd: usize) -> (f64, f64, f64, f64) {
    let f = crate::experiments::fill(store, n, 4096, 32, SimTime::ZERO);
    let w = run_phase(
        store,
        &WorkloadSpec::new("w", n, n)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(qd)
            .seed(41),
        crate::experiments::settle(f.finished),
    );
    let r = run_phase(
        store,
        &WorkloadSpec::new("r", n, n)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(qd)
            .seed(43),
        crate::experiments::settle(w.finished),
    );
    (
        w.writes.mean().as_micros_f64(),
        r.reads.mean().as_micros_f64(),
        w.mean_mbps(),
        r.mean_mbps(),
    )
}

/// Total host CPU seconds across insert, update, and read phases.
fn cpu_cycle(store: &mut dyn KvStore, n: u64) -> f64 {
    let f = crate::experiments::fill(store, n, 4096, 8, SimTime::ZERO);
    let u = run_phase(
        store,
        &WorkloadSpec::new("u", n, n)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(8)
            .seed(47),
        crate::experiments::settle(f.finished),
    );
    let _ = run_phase(
        store,
        &WorkloadSpec::new("r", n, n)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(8)
            .seed(53),
        crate::experiments::settle(u.finished),
    );
    store.host_cpu_busy().as_secs_f64()
}

/// The headline table as a string (byte-stable for a given result).
pub fn render(r: &HeadlineResult) -> String {
    let mut t = Table::new(&["metric", "measured", "paper"]);
    t.row(&[
        "KV/blk write latency (QD1)",
        &format!("{:.2}x", r.write_latency_ratio),
        "up to 2.63x",
    ]);
    t.row(&[
        "KV/blk read latency (QD1)",
        &format!("{:.2}x", r.read_latency_ratio),
        "up to 8.1x (1.7x typical)",
    ]);
    t.row(&[
        "KV/blk write bandwidth (QD32)",
        &format!("{:.2}x", r.write_bw_ratio),
        "as low as 0.22x",
    ]);
    t.row(&[
        "KV/blk read bandwidth (QD32)",
        &format!("{:.2}x", r.read_bw_ratio),
        "as low as 0.44x",
    ]);
    t.row(&[
        "RocksDB/KV host CPU",
        &format!("{:.2}x", r.cpu_ratio_rocksdb),
        "~13x",
    ]);
    t.row(&[
        "Aerospike/KV host CPU",
        &format!("{:.2}x", r.cpu_ratio_aerospike),
        "smaller than RocksDB's",
    ]);
    t.row(&[
        "blk seq/rand read latency",
        &f2(r.block_seq_read_ratio),
        "<= 0.8x",
    ]);
    t.row(&[
        "blk seq/rand write latency",
        &f2(r.block_seq_write_ratio),
        "<= 0.6x",
    ]);
    t.row(&[
        "KV/blk write BW, worst (25KiB)",
        &format!("{:.2}x", r.worst_write_bw_ratio),
        "as low as 0.22x",
    ]);
    t.row(&[
        "KV/blk read BW, worst (64KiB)",
        &format!("{:.2}x", r.worst_read_bw_ratio),
        "as low as 0.44x",
    ]);
    format!("\n=== Headline ratios (Sec. I) — 4 KiB random direct I/O ===\n{t}\n")
}
