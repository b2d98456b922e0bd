//! Fig. 5 — write bandwidth vs. value size: the zig-zag.
//!
//! Paper finding: the block-SSD's write bandwidth is smooth in value
//! size, but the KV-SSD's dips sharply just past each multiple of its
//! per-page value budget (~24 KiB: dips at 25 KiB, 49 KiB, ...), because
//! the tail segment of a split blob occupies a page of its own plus
//! offset bookkeeping.

use kvssd_kvbench::report::{bytes, f2};
use kvssd_kvbench::Table;
use kvssd_sim::SimTime;

use crate::experiments::cells;
use crate::{setup, Scale};

/// The sweep's value sizes: straddling the 24 KiB / 48 KiB boundaries.
pub const VALUE_SIZES: [u32; 12] = [
    4 * 1024,
    8 * 1024,
    16 * 1024,
    20 * 1024,
    24 * 1024,
    25 * 1024,
    28 * 1024,
    32 * 1024,
    40 * 1024,
    48 * 1024,
    49 * 1024,
    64 * 1024,
];

/// One value-size point.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Value size in bytes.
    pub value_bytes: u32,
    /// KV-SSD insert bandwidth, MB/s of user data.
    pub kv_mbps: f64,
    /// Block-SSD insert bandwidth, MB/s.
    pub blk_mbps: f64,
}

/// The figure's series.
#[derive(Debug, Clone, Default)]
pub struct Fig5Result {
    /// One row per value size, ascending.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// The KV bandwidth at a size.
    pub fn kv_mbps(&self, value_bytes: u32) -> f64 {
        self.rows
            .iter()
            .find(|r| r.value_bytes == value_bytes)
            .map(|r| r.kv_mbps)
            .unwrap_or_else(|| panic!("missing size {value_bytes}"))
    }
}

/// Runs the experiment: insert-only at QD 64, fixed total volume. One
/// cell per value size, scheduled by [`cells::run_cells`].
pub fn run(scale: Scale) -> Fig5Result {
    let volume = scale.pick(24 << 20, 300 << 20, 1 << 30);
    let work: Vec<cells::Cell<Fig5Row>> = VALUE_SIZES
        .iter()
        .map(|&vs| {
            let cell: cells::Cell<Fig5Row> = Box::new(move || {
                let n = (volume / vs as u64).max(200);
                let mut kv = setup::kv_ssd();
                let m = crate::experiments::fill(&mut kv, n, vs, 64, SimTime::ZERO);
                let kv_mbps = m.mean_mbps();
                let mut blk = setup::block_direct(vs);
                let m = crate::experiments::fill(&mut blk, n, vs, 64, SimTime::ZERO);
                Fig5Row {
                    value_bytes: vs,
                    kv_mbps,
                    blk_mbps: m.mean_mbps(),
                }
            });
            cell
        })
        .collect();
    Fig5Result {
        rows: cells::run_cells("fig5", work),
    }
}

/// The paper-shaped series as a string (byte-stable for a given result).
pub fn render(res: &Fig5Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 5: write bandwidth vs value size (insert-only, QD 64) ==="
    )
    .unwrap();
    let mut t = Table::new(&["value", "KV-SSD MB/s", "block MB/s", "KV/blk"]);
    for r in &res.rows {
        t.row(&[
            &bytes(r.value_bytes as u64),
            &f2(r.kv_mbps),
            &f2(r.blk_mbps),
            &f2(r.kv_mbps / r.blk_mbps),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "KV dip past the page budget: 24KiB -> 25KiB bandwidth {:.2} -> {:.2} MB/s ({:.0}% drop; paper shows a sharp dip)",
        res.kv_mbps(24 * 1024),
        res.kv_mbps(25 * 1024),
        100.0 * (1.0 - res.kv_mbps(25 * 1024) / res.kv_mbps(24 * 1024)),
    )
    .unwrap();
    writeln!(
        out,
        "KV recovery then second dip: 48KiB {:.2} MB/s -> 49KiB {:.2} MB/s",
        res.kv_mbps(48 * 1024),
        res.kv_mbps(49 * 1024),
    )
    .unwrap();
    out
}
