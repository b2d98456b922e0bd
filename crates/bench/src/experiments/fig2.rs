//! Fig. 2 — end-to-end insert/update/read latency across systems and
//! access patterns.
//!
//! Paper setup: 10 M operations of 16 B keys and 4 KiB values against
//! KV-SSD, RocksDB (ext4, 10 MB block cache), and Aerospike (direct
//! I/O), with sequential, uniform-random, and Zipfian patterns.
//!
//! Paper findings to reproduce:
//! * sequential ≈ random on the KV-SSD (hash indexing erases order),
//! * KV-SSD beats RocksDB for inserts and updates (up to 23.08x / 3.64x)
//!   but loses on reads,
//! * KV-SSD beats Aerospike only for updates.

use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, AccessPattern, KvStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::experiments::cells;
use crate::{setup, Scale};

/// One measured cell of the figure.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// System label.
    pub system: &'static str,
    /// Pattern label (`Seq`/`Rand`/`Zipf`).
    pub pattern: &'static str,
    /// Operation (`insert`/`update`/`read`).
    pub op: &'static str,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Host CPU cores consumed during the phase.
    pub cpu_cores: f64,
}

/// All cells of the figure.
#[derive(Debug, Clone, Default)]
pub struct Fig2Result {
    /// Measured cells.
    pub rows: Vec<Fig2Row>,
}

impl Fig2Result {
    /// Mean latency of one cell.
    pub fn mean_us(&self, system: &str, pattern: &str, op: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.system == system && r.pattern == pattern && r.op == op)
            .map(|r| r.mean_us)
            .unwrap_or_else(|| panic!("missing cell {system}/{pattern}/{op}"))
    }

    /// Host CPU of one cell.
    pub fn cpu_cores(&self, system: &str, pattern: &str, op: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.system == system && r.pattern == pattern && r.op == op)
            .map(|r| r.cpu_cores)
            .unwrap_or_else(|| panic!("missing cell {system}/{pattern}/{op}"))
    }
}

const PATTERNS: [(&str, AccessPattern); 3] = [
    ("Seq", AccessPattern::Sequential),
    ("Rand", AccessPattern::Uniform),
    ("Zipf", AccessPattern::Zipfian { theta: 0.99 }),
];

/// Runs the three phases of one (pattern, system) cell on a fresh store.
fn run_cell(
    mut store: Box<dyn KvStore>,
    pname: &'static str,
    pattern: AccessPattern,
    n: u64,
    qd: usize,
) -> Vec<Fig2Row> {
    let store = store.as_mut();
    let system = store.name();
    let mut rows = Vec::with_capacity(3);
    // Insert phase (pattern = insertion order).
    let ins = run_phase(
        store,
        &WorkloadSpec::new("insert", n, n)
            .mix(OpMix::InsertOnly)
            .pattern(pattern)
            .value(ValueSize::Fixed(4096))
            .queue_depth(qd),
        SimTime::ZERO,
    );
    rows.push(Fig2Row {
        system,
        pattern: pname,
        op: "insert",
        mean_us: ins.writes.mean().as_micros_f64(),
        p99_us: ins.writes.percentile(99.0).as_micros_f64(),
        cpu_cores: ins.cpu_cores_used(),
    });
    // Update phase.
    let upd = run_phase(
        store,
        &WorkloadSpec::new("update", n, n)
            .mix(OpMix::UpdateOnly)
            .pattern(pattern)
            .value(ValueSize::Fixed(4096))
            .queue_depth(qd)
            .seed(7),
        crate::experiments::settle(ins.finished),
    );
    rows.push(Fig2Row {
        system,
        pattern: pname,
        op: "update",
        mean_us: upd.writes.mean().as_micros_f64(),
        p99_us: upd.writes.percentile(99.0).as_micros_f64(),
        cpu_cores: upd.cpu_cores_used(),
    });
    // Read phase.
    let rd = run_phase(
        store,
        &WorkloadSpec::new("read", n, n)
            .mix(OpMix::ReadOnly)
            .pattern(pattern)
            .value(ValueSize::Fixed(4096))
            .queue_depth(qd)
            .seed(11),
        crate::experiments::settle(upd.finished),
    );
    assert_eq!(rd.not_found, 0, "{system}/{pname}: reads must hit");
    rows.push(Fig2Row {
        system,
        pattern: pname,
        op: "read",
        mean_us: rd.reads.mean().as_micros_f64(),
        p99_us: rd.reads.percentile(99.0).as_micros_f64(),
        cpu_cores: rd.cpu_cores_used(),
    });
    rows
}

/// Runs the experiment. One cell per (pattern × system), each on its own
/// freshly seeded store, scheduled by [`cells::run_cells`].
pub fn run(scale: Scale) -> Fig2Result {
    let n = scale.pick(3_000, 50_000, 200_000);
    let qd = 8;
    type Make = fn() -> Box<dyn KvStore>;
    const MAKES: [Make; 3] = [
        || Box::new(setup::kv_ssd()),
        || Box::new(setup::rocksdb()),
        || Box::new(setup::aerospike()),
    ];
    let mut work: Vec<cells::Cell<Vec<Fig2Row>>> = Vec::new();
    for (pname, pattern) in PATTERNS {
        for make in MAKES {
            work.push(Box::new(move || run_cell(make(), pname, pattern, n, qd)));
        }
    }
    Fig2Result {
        rows: cells::run_cells("fig2", work)
            .into_iter()
            .flatten()
            .collect(),
    }
}

/// The paper-shaped table as a string (byte-stable for a given result).
pub fn render(r: &Fig2Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 2: end-to-end latency, 16 B keys / 4 KiB values (QD 8) ==="
    )
    .unwrap();
    for op in ["insert", "update", "read"] {
        let mut t = Table::new(&[
            "op",
            "system",
            "Seq mean(us)",
            "Rand mean(us)",
            "Zipf mean(us)",
            "Rand p99(us)",
            "Rand CPU(cores)",
        ]);
        for system in ["KV-SSD", "RocksDB", "Aerospike"] {
            let cell = |p: &str| {
                r.rows
                    .iter()
                    .find(|x| x.system == system && x.pattern == p && x.op == op)
                    .expect("cell")
            };
            t.row(&[
                op,
                system,
                &f2(cell("Seq").mean_us),
                &f2(cell("Rand").mean_us),
                &f2(cell("Zipf").mean_us),
                &f2(cell("Rand").p99_us),
                &f2(cell("Rand").cpu_cores),
            ]);
        }
        writeln!(out, "{t}").unwrap();
    }
    let kv_seq = r.mean_us("KV-SSD", "Seq", "insert");
    let kv_rand = r.mean_us("KV-SSD", "Rand", "insert");
    writeln!(
        out,
        "KV-SSD seq/rand insert ratio: {:.2} (paper: ~1 — hashing erases sequentiality)",
        kv_seq / kv_rand
    )
    .unwrap();
    writeln!(
        out,
        "KV-SSD vs RocksDB insert: {:.2}x better (paper: up to 23.08x)",
        r.mean_us("RocksDB", "Rand", "insert") / r.mean_us("KV-SSD", "Rand", "insert")
    )
    .unwrap();
    writeln!(
        out,
        "KV-SSD vs Aerospike update: {:.2}x better (paper: up to 3.64x)",
        r.mean_us("Aerospike", "Rand", "update") / r.mean_us("KV-SSD", "Rand", "update")
    )
    .unwrap();
    writeln!(
        out,
        "KV-SSD vs RocksDB read: {:.2}x (paper: KV-SSD loses, ratio > 1)",
        r.mean_us("KV-SSD", "Rand", "read") / r.mean_us("RocksDB", "Rand", "read")
    )
    .unwrap();
    out
}
