//! Fig. 8 — key size vs. device bandwidth: the two-command penalty.
//!
//! Paper finding: each NVMe command carries at most 16 B of key inline;
//! longer keys need a second command, cutting bandwidth to ~0.53x —
//! visible for both synchronous (QD 1) and asynchronous I/O.

use kvssd_kvbench::report::f2;
use kvssd_kvbench::Table;
use kvssd_sim::SimTime;

use crate::{setup, Scale};

/// The sweep's key sizes (bytes). The device accepts 4 B keys, but a
/// 4 B key space holds exactly one key, so the sweep starts at 8 B.
pub const KEY_SIZES: [usize; 8] = [8, 12, 16, 20, 32, 64, 128, 255];

/// One key-size point.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Key length in bytes.
    pub key_bytes: usize,
    /// NVMe commands per store at this key length.
    pub commands: u64,
    /// Synchronous (QD 1) store throughput, K ops/s.
    pub sync_kops: f64,
    /// Asynchronous (QD 32) store throughput, K ops/s.
    pub async_kops: f64,
}

/// The figure's series.
#[derive(Debug, Clone, Default)]
pub struct Fig8Result {
    /// One row per key size, ascending.
    pub rows: Vec<Fig8Row>,
}

impl Fig8Result {
    /// Finds one row.
    pub fn row(&self, key_bytes: usize) -> &Fig8Row {
        self.rows
            .iter()
            .find(|r| r.key_bytes == key_bytes)
            .unwrap_or_else(|| panic!("missing key size {key_bytes}"))
    }
}

/// Runs the experiment: small-value stores across key sizes, sync and
/// async.
pub fn run(scale: Scale) -> Fig8Result {
    let n = scale.pick(3_000, 30_000, 80_000);
    let cs = kvssd_nvme::KvCommandSet::samsung();
    let mut out = Fig8Result::default();
    for &kb in &KEY_SIZES {
        let sync_kops = throughput(n, kb, 1);
        let async_kops = throughput(n, kb, 32);
        out.rows.push(Fig8Row {
            key_bytes: kb,
            commands: cs.commands_for_key(kb),
            sync_kops,
            async_kops,
        });
    }
    out
}

fn throughput(n: u64, key_bytes: usize, qd: usize) -> f64 {
    let mut store = setup::kv_ssd();
    let spec = kvssd_kvbench::WorkloadSpec::new("fill", n, n)
        .mix(kvssd_kvbench::OpMix::InsertOnly)
        .key_bytes(key_bytes)
        .value(kvssd_kvbench::ValueSize::Fixed(128))
        .queue_depth(qd);
    let m = kvssd_kvbench::run_phase(&mut store, &spec, SimTime::ZERO);
    m.ops_per_sec() / 1e3
}

/// The paper-shaped series as a string (byte-stable for a given result).
pub fn render(res: &Fig8Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 8: store throughput vs key size (128 B values) ==="
    )
    .unwrap();
    let mut t = Table::new(&["key", "NVMe cmds", "sync Kops/s", "async Kops/s"]);
    for r in &res.rows {
        t.row(&[
            &format!("{}B", r.key_bytes),
            &r.commands.to_string(),
            &f2(r.sync_kops),
            &f2(r.async_kops),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    let r16 = res.row(16);
    let r20 = res.row(20);
    writeln!(
        out,
        "16B -> 20B key async throughput: {:.2} -> {:.2} Kops/s ({:.2}x; paper: drops to ~0.53x for large keys)",
        r16.async_kops,
        r20.async_kops,
        r20.async_kops / r16.async_kops,
    )
    .unwrap();
    out
}
