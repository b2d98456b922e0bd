//! Fig. 4 — KV-SSD vs. block-SSD latency ratio across value sizes and
//! queue depths.
//!
//! Paper setup: the same number of KV or block I/Os per value size,
//! direct access, queue depths 1 and 64. Ratios below 1 favor KV-SSD.
//!
//! Paper findings: at QD 64 the KV-SSD wins for values below the ~24 KiB
//! page payload budget (write ratio down to 0.86x, read down to 0.37x);
//! past it, splitting makes the KV-SSD lose (up to 5.4x); at QD 1 the
//! key-handling overhead keeps the KV-SSD behind everywhere.

use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, KvStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::experiments::cells;
use crate::{setup, Scale};

/// The sweep's value sizes (bytes).
pub const VALUE_SIZES: [u32; 7] = [512, 2048, 8192, 16384, 24576, 32768, 65536];

/// One (value size, queue depth) cell.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Value size in bytes.
    pub value_bytes: u32,
    /// Queue depth.
    pub qd: usize,
    /// Mean KV-SSD write latency (us).
    pub kv_write_us: f64,
    /// Mean block write latency (us).
    pub blk_write_us: f64,
    /// Mean KV-SSD read latency (us).
    pub kv_read_us: f64,
    /// Mean block read latency (us).
    pub blk_read_us: f64,
}

impl Fig4Row {
    /// KV/block write-latency ratio (< 1 favors KV-SSD).
    pub fn write_ratio(&self) -> f64 {
        self.kv_write_us / self.blk_write_us
    }

    /// KV/block read-latency ratio (< 1 favors KV-SSD).
    pub fn read_ratio(&self) -> f64 {
        self.kv_read_us / self.blk_read_us
    }
}

/// The figure's measurements.
#[derive(Debug, Clone, Default)]
pub struct Fig4Result {
    /// One row per (value size, qd).
    pub rows: Vec<Fig4Row>,
}

impl Fig4Result {
    /// Finds one cell.
    pub fn row(&self, value_bytes: u32, qd: usize) -> &Fig4Row {
        self.rows
            .iter()
            .find(|r| r.value_bytes == value_bytes && r.qd == qd)
            .unwrap_or_else(|| panic!("missing {value_bytes}B @ QD{qd}"))
    }
}

/// Runs the experiment. One cell per (value size × queue depth), each
/// building both its devices fresh, scheduled by [`cells::run_cells`].
pub fn run(scale: Scale) -> Fig4Result {
    let per_point = scale.pick(1_200, 8_000, 15_000);
    let mut work: Vec<cells::Cell<Fig4Row>> = Vec::new();
    for &vs in &VALUE_SIZES {
        // Populations sized to a fixed data volume so big values do not
        // overfill the device.
        let n = (per_point * 4096 / vs as u64).clamp(400, per_point);
        for qd in [1usize, 64] {
            work.push(Box::new(move || {
                let (kv_w, kv_r) = measure(&mut setup::kv_ssd(), n, vs, qd);
                let (blk_w, blk_r) = measure(&mut setup::block_direct(vs), n, vs, qd);
                Fig4Row {
                    value_bytes: vs,
                    qd,
                    kv_write_us: kv_w,
                    blk_write_us: blk_w,
                    kv_read_us: kv_r,
                    blk_read_us: blk_r,
                }
            }));
        }
    }
    Fig4Result {
        rows: cells::run_cells("fig4", work),
    }
}

fn measure(store: &mut dyn KvStore, n: u64, value_bytes: u32, qd: usize) -> (f64, f64) {
    let f = crate::experiments::fill(store, n, value_bytes, qd.max(8), SimTime::ZERO);
    let start = crate::experiments::settle(f.finished);
    let w = run_phase(
        store,
        &WorkloadSpec::new("write", n, n)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(value_bytes))
            .queue_depth(qd)
            .seed(23),
        start,
    );
    let r = run_phase(
        store,
        &WorkloadSpec::new("read", n, n)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(value_bytes))
            .queue_depth(qd)
            .seed(29),
        crate::experiments::settle(w.finished),
    );
    (
        w.writes.mean().as_micros_f64(),
        r.reads.mean().as_micros_f64(),
    )
}

/// The paper-shaped table as a string (byte-stable for a given result).
pub fn render(res: &Fig4Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 4: KV/block latency ratio vs value size (random, direct) ==="
    )
    .unwrap();
    writeln!(
        out,
        "(< 1.00 favors KV-SSD; paper page payload budget is 24 KiB)"
    )
    .unwrap();
    let mut t = Table::new(&[
        "value",
        "QD",
        "write ratio",
        "read ratio",
        "KV write(us)",
        "blk write(us)",
        "KV read(us)",
        "blk read(us)",
    ]);
    for r in &res.rows {
        t.row(&[
            &kvssd_kvbench::report::bytes(r.value_bytes as u64),
            &r.qd.to_string(),
            &f2(r.write_ratio()),
            &f2(r.read_ratio()),
            &f2(r.kv_write_us),
            &f2(r.blk_write_us),
            &f2(r.kv_read_us),
            &f2(r.blk_read_us),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    let small64 = res.row(2048, 64);
    let big64 = res.row(65536, 64);
    writeln!(
        out,
        "QD64 crossover: 2KiB write ratio {:.2} (paper: <=0.86) vs 64KiB write ratio {:.2} (paper: up to 5.4)",
        small64.write_ratio(),
        big64.write_ratio()
    )
    .unwrap();
    out
}
