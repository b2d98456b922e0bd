//! Fig. 3 — index occupancy: latency at low vs. high KVP counts.
//!
//! Paper setup: 16 B keys, 512 B values; low occupancy = 1.53 M KVPs,
//! high = 3 B KVPs (here scaled ~1000x: the *ratio* of index size to
//! device-DRAM budget is what matters). The block-SSD is filled with the
//! same number of 512 B blocks as the control.
//!
//! Paper findings: KV-SSD reads degrade up to 2x and writes up to 16.4x
//! at high occupancy; the block-SSD stays flat.

use kvssd_core::KvConfig;
use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, KvStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::{setup, Scale};

/// One occupancy level's probe results.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// `low` or `high`.
    pub occupancy: &'static str,
    /// System label.
    pub system: &'static str,
    /// KVPs (or blocks) resident when probing.
    pub population: u64,
    /// Mean random-write latency (us).
    pub write_us: f64,
    /// Mean random-read latency (us).
    pub read_us: f64,
}

/// The figure's measurements.
#[derive(Debug, Clone, Default)]
pub struct Fig3Result {
    /// Rows, one per (occupancy, system).
    pub rows: Vec<Fig3Row>,
}

impl Fig3Result {
    /// Finds one row.
    pub fn row(&self, occupancy: &str, system: &str) -> &Fig3Row {
        self.rows
            .iter()
            .find(|r| r.occupancy == occupancy && r.system == system)
            .unwrap_or_else(|| panic!("missing {occupancy}/{system}"))
    }

    /// high/low write-latency ratio for a system.
    pub fn write_degradation(&self, system: &str) -> f64 {
        self.row("high", system).write_us / self.row("low", system).write_us
    }

    /// high/low read-latency ratio for a system.
    pub fn read_degradation(&self, system: &str) -> f64 {
        self.row("high", system).read_us / self.row("low", system).read_us
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig3Result {
    // Populations: low fits the index DRAM budget comfortably; high
    // overflows it by the same ~36x ratio the paper's 3 B keys imply.
    let (low, high, dram) = match scale {
        Scale::Tiny => (2_000u64, 60_000u64, 128 * 1024u64),
        Scale::Quick => (40_000, 1_200_000, 2 * 1024 * 1024),
        Scale::Full => (80_000, 3_000_000, 4 * 1024 * 1024),
    };
    let probes = scale.pick(2_000, 10_000, 20_000);
    let mut out = Fig3Result::default();
    for (label, n) in [("low", low), ("high", high)] {
        // KV-SSD with the scaled index-DRAM budget.
        let mut kv = setup::kv_ssd_with(KvConfig {
            index_dram_bytes: dram,
            ..setup::kv_config_macro()
        });
        let f = crate::experiments::fill(&mut kv, n, 512, 32, SimTime::ZERO);
        let (w, r) = probe(&mut kv, n, probes, f.finished);
        out.rows.push(Fig3Row {
            occupancy: label,
            system: "KV-SSD",
            population: n,
            write_us: w,
            read_us: r,
        });
        // Block-SSD filled with the same number of 512 B blocks.
        let mut blk = setup::block_direct(512);
        let f = crate::experiments::fill(&mut blk, n, 512, 32, SimTime::ZERO);
        let (w, r) = probe(&mut blk, n, probes, f.finished);
        out.rows.push(Fig3Row {
            occupancy: label,
            system: "Block-SSD",
            population: n,
            write_us: w,
            read_us: r,
        });
    }
    out
}

/// Random 512 B write and read probes at QD 1 (the paper's direct-access
/// latency measurements).
fn probe(store: &mut dyn KvStore, n: u64, probes: u64, start: SimTime) -> (f64, f64) {
    let start = crate::experiments::settle(start);
    let w = run_phase(
        store,
        &WorkloadSpec::new("write-probe", probes, n)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(512))
            .queue_depth(1)
            .seed(13),
        start,
    );
    let r = run_phase(
        store,
        &WorkloadSpec::new("read-probe", probes, n)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(512))
            .queue_depth(1)
            .seed(17),
        crate::experiments::settle(w.finished),
    );
    (
        w.writes.mean().as_micros_f64(),
        r.reads.mean().as_micros_f64(),
    )
}

/// The paper-shaped table as a string (byte-stable for a given result).
pub fn render(res: &Fig3Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 3: index occupancy (16 B keys, 512 B values, QD 1 probes) ==="
    )
    .unwrap();
    let mut t = Table::new(&[
        "occupancy",
        "population",
        "system",
        "write mean(us)",
        "read mean(us)",
    ]);
    for r in &res.rows {
        t.row(&[
            r.occupancy,
            &r.population.to_string(),
            r.system,
            &f2(r.write_us),
            &f2(r.read_us),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "KV-SSD degradation high/low: write {:.2}x (paper: up to 16.4x), read {:.2}x (paper: up to 2x)",
        res.write_degradation("KV-SSD"),
        res.read_degradation("KV-SSD"),
    )
    .unwrap();
    writeln!(
        out,
        "Block-SSD degradation high/low: write {:.2}x, read {:.2}x (paper: ~flat)",
        res.write_degradation("Block-SSD"),
        res.read_degradation("Block-SSD"),
    )
    .unwrap();
    out
}
