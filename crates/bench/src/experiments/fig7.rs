//! Fig. 7 — space amplification vs. KVP size.
//!
//! Paper findings: KV-SSD pads small KVPs to 1 KiB — up to 20x
//! amplification (17x at 50 B values), dropping to ~1 for 1–4 KiB
//! values; Aerospike on the raw block-SSD stays < 2x; RocksDB's leveled
//! tree stays ~1.11 worst case. The padding also caps the device at
//! ~3.1 B KVPs per 3.84 TB (scaled here).

use kvssd_kvbench::report::f2;
use kvssd_kvbench::{KvStore, Table};
use kvssd_sim::SimTime;

use crate::experiments::cells;
use crate::{setup, Scale};

/// The sweep's value sizes (bytes).
pub const VALUE_SIZES: [u32; 11] = [16, 32, 50, 64, 100, 128, 256, 512, 1024, 2048, 4096];

/// One (value size, system) amplification measurement.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Value size in bytes.
    pub value_bytes: u32,
    /// System label.
    pub system: &'static str,
    /// stored / user bytes.
    pub amplification: f64,
}

/// The figure's measurements plus the KVP-limit observation.
#[derive(Debug, Clone, Default)]
pub struct Fig7Result {
    /// Amplification cells.
    pub rows: Vec<Fig7Row>,
    /// The device's configured KVP limit (scaled analog of ~3.1 B).
    pub kv_max_kvps: u64,
    /// The device's data capacity in bytes.
    pub kv_capacity_bytes: u64,
}

impl Fig7Result {
    /// Amplification of one cell.
    pub fn amp(&self, system: &str, value_bytes: u32) -> f64 {
        self.rows
            .iter()
            .find(|r| r.system == system && r.value_bytes == value_bytes)
            .map(|r| r.amplification)
            .unwrap_or_else(|| panic!("missing {system}@{value_bytes}"))
    }
}

/// Runs the experiment: insert `n` pairs per (system, size), read the
/// space books. One cell per (value size × system), scheduled by
/// [`cells::run_cells`].
pub fn run(scale: Scale) -> Fig7Result {
    let n = scale.pick(2_000, 20_000, 50_000);
    let mut out = Fig7Result::default();
    {
        let kv = setup::kv_ssd();
        let sp = kv.device().space();
        out.kv_max_kvps = sp.max_kvps;
        out.kv_capacity_bytes = sp.capacity_bytes;
    }
    type Make = fn() -> Box<dyn KvStore>;
    const MAKES: [Make; 3] = [
        || Box::new(setup::kv_ssd()),
        || Box::new(setup::aerospike()),
        || Box::new(setup::rocksdb()),
    ];
    let mut work: Vec<cells::Cell<Fig7Row>> = Vec::new();
    for &vs in &VALUE_SIZES {
        for make in MAKES {
            work.push(Box::new(move || {
                let mut store = make();
                let system = store.name();
                let m = crate::experiments::fill(store.as_mut(), n, vs, 16, SimTime::ZERO);
                let _ = m;
                let usage = store.space();
                Fig7Row {
                    value_bytes: vs,
                    system,
                    amplification: usage.amplification(),
                }
            }));
        }
    }
    out.rows = cells::run_cells("fig7", work);
    out
}

/// The paper-shaped table as a string (byte-stable for a given result).
pub fn render(res: &Fig7Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 7: space amplification vs KVP size (16 B keys) ==="
    )
    .unwrap();
    let mut t = Table::new(&["value", "KV-SSD", "Aerospike", "RocksDB"]);
    for &vs in &VALUE_SIZES {
        t.row(&[
            &kvssd_kvbench::report::bytes(vs as u64),
            &f2(res.amp("KV-SSD", vs)),
            &f2(res.amp("Aerospike", vs)),
            &f2(res.amp("RocksDB", vs)),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "KV-SSD @50B: {:.1}x (paper: 17x); smallest values: {:.1}x (paper: up to 20x)",
        res.amp("KV-SSD", 50),
        res.amp("KV-SSD", 16),
    )
    .unwrap();
    writeln!(
        out,
        "KV-SSD 1-4KiB: {:.2}-{:.2}x (paper: ~1); Aerospike @50B: {:.2}x (paper: 1.8x); RocksDB worst: {:.2}x (paper: ~1.11)",
        res.amp("KV-SSD", 1024),
        res.amp("KV-SSD", 4096),
        res.amp("Aerospike", 50),
        VALUE_SIZES
            .iter()
            .map(|&v| res.amp("RocksDB", v))
            .fold(0.0, f64::max),
    )
    .unwrap();
    writeln!(
        out,
        "Device KVP limit: {} pairs on {} of data capacity (paper: ~3.1 B on 3.84 TB; scaled ~1000x)",
        res.kv_max_kvps,
        kvssd_kvbench::report::bytes(res.kv_capacity_bytes),
    )
    .unwrap();
    out
}
