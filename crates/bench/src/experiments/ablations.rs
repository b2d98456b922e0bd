//! Ablations: design choices the paper identifies, toggled.
//!
//! * Bloom filters on/off — cost of negative lookups,
//! * allocation-unit sweep (256 B / 1 KiB / 4 KiB) — space
//!   amplification vs. the paper's ECC-sector argument,
//! * index-DRAM budget sweep — where the Fig. 3 cliff moves,
//! * compound NVMe commands (the paper's reference `[10]` proposal) — recovering the
//!   large-key bandwidth loss of Fig. 8.

use kvssd_core::KvConfig;
use kvssd_kvbench::{run_phase, KvStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_nvme::KvCommandSet;
use kvssd_sim::SimTime;

use crate::experiments::cells;
use crate::{setup, Scale};

/// All ablation measurements.
#[derive(Debug, Clone, Default)]
pub struct AblationResult {
    /// Mean not-found lookup latency with Bloom filters (us).
    pub miss_with_bloom_us: f64,
    /// Mean not-found lookup latency without Bloom filters (us).
    pub miss_without_bloom_us: f64,
    /// (alloc unit, amplification at 50 B values).
    pub alloc_amp: Vec<(u32, f64)>,
    /// (index DRAM bytes, mean store latency us at a fixed population).
    pub dram_write_us: Vec<(u64, f64)>,
    /// Space amplification under the Facebook-trace value mixture
    /// (the paper's reference [14]: 57-154 B averages).
    pub facebook_amp: f64,
    /// Async large-key throughput, stock command set (Kops/s).
    pub largekey_stock_kops: f64,
    /// Async large-key throughput with compound commands (Kops/s).
    pub largekey_compound_kops: f64,
}

/// One ablation cell's result (the sections are heterogeneous, so each
/// cell tags which slot of [`AblationResult`] it fills).
enum CellOut {
    Bloom { on: bool, miss_us: f64 },
    Alloc(u32, f64),
    Dram(u64, f64),
    Facebook(f64),
    Compound { on: bool, kops: f64 },
}

/// 1. Bloom filters: negative-lookup latency. Probing a key absent
///    from a DRAM-overflowed index pays a flash walk unless a filter
///    rejects it first.
fn bloom_cell(bloom: bool, n: u64) -> CellOut {
    let mut cfg = KvConfig::pm983_scaled();
    cfg.bloom_enabled = bloom;
    // Overflow the index so a miss without a filter pays flash reads.
    cfg.index_dram_bytes = 32 * 1024;
    let mut kv = setup::kv_ssd_with(cfg);
    let f = crate::experiments::fill(&mut kv, n, 512, 16, SimTime::ZERO);
    let mut t = crate::experiments::settle(f.finished);
    let mut total = 0.0;
    let probes = 2_000u64;
    for i in 0..probes {
        let key = format!("absent.key.{i:08x}");
        let (done, found) = kv.read(t, key.as_bytes());
        assert!(!found);
        total += done.since(t).as_micros_f64();
        t = done;
    }
    CellOut::Bloom {
        on: bloom,
        miss_us: total / probes as f64,
    }
}

/// 2. Allocation-unit sweep at 50 B values.
fn alloc_cell(unit: u32, n: u64) -> CellOut {
    let cfg = KvConfig {
        alloc_unit: unit,
        ..KvConfig::pm983_scaled()
    };
    let mut kv = setup::kv_ssd_with(cfg);
    crate::experiments::fill(&mut kv, n.min(10_000), 50, 16, SimTime::ZERO);
    CellOut::Alloc(unit, kv.space().amplification())
}

/// 3. Index-DRAM budget sweep at a fixed population.
fn dram_cell(dram: u64, population: u64) -> CellOut {
    let cfg = KvConfig {
        index_dram_bytes: dram,
        ..setup::kv_config_macro()
    };
    let mut kv = setup::kv_ssd_with(cfg);
    let f = crate::experiments::fill(&mut kv, population, 512, 32, SimTime::ZERO);
    let probe = run_phase(
        &mut kv,
        &WorkloadSpec::new("w", population / 10, population)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(512))
            .queue_depth(1)
            .seed(59),
        crate::experiments::settle(f.finished),
    );
    CellOut::Dram(dram, probe.writes.mean().as_micros_f64())
}

/// 3.5 Real-trace value shapes: the paper's reference [14] (Facebook,
/// FAST '20) reports 57-154 B average KVPs — the worst regime for the
/// 1 KiB allocation unit.
fn facebook_cell(n: u64) -> CellOut {
    let mut kv = setup::kv_ssd();
    let spec = WorkloadSpec::new("facebook", n.min(20_000), n.min(20_000))
        .mix(OpMix::InsertOnly)
        .value(ValueSize::facebook_like())
        .queue_depth(16);
    run_phase(&mut kv, &spec, SimTime::ZERO);
    CellOut::Facebook(kv.space().amplification())
}

/// 4. Compound commands for 128 B keys (the HotStorage '19 what-if).
fn compound_cell(compound: bool, n: u64) -> CellOut {
    let cfg = KvConfig {
        command_set: if compound {
            KvCommandSet::with_compound(8)
        } else {
            KvCommandSet::samsung()
        },
        ..KvConfig::pm983_scaled()
    };
    let mut kv = setup::kv_ssd_with(cfg);
    let spec = WorkloadSpec::new("fill", n, n)
        .mix(OpMix::InsertOnly)
        .key_bytes(128)
        .value(ValueSize::Fixed(128))
        .queue_depth(32);
    let m = run_phase(&mut kv, &spec, SimTime::ZERO);
    CellOut::Compound {
        on: compound,
        kops: m.ops_per_sec() / 1e3,
    }
}

/// Runs all ablations. Every section is an independent cell (own device,
/// own config), scheduled by [`cells::run_cells`]; results assemble by
/// cell index so sweep vectors keep their serial order.
pub fn run(scale: Scale) -> AblationResult {
    let n = scale.pick(2_000, 20_000, 50_000);
    let population = scale.pick(20_000, 300_000, 600_000);
    let mut work: Vec<cells::Cell<CellOut>> = Vec::new();
    for bloom in [true, false] {
        work.push(Box::new(move || bloom_cell(bloom, n)));
    }
    for unit in [256u32, 1024, 4096] {
        work.push(Box::new(move || alloc_cell(unit, n)));
    }
    for dram in [256u64 * 1024, 2 * 1024 * 1024, 32 * 1024 * 1024] {
        work.push(Box::new(move || dram_cell(dram, population)));
    }
    work.push(Box::new(move || facebook_cell(n)));
    for compound in [false, true] {
        work.push(Box::new(move || compound_cell(compound, n)));
    }

    let mut out = AblationResult::default();
    for cell in cells::run_cells("ablations", work) {
        match cell {
            CellOut::Bloom { on: true, miss_us } => out.miss_with_bloom_us = miss_us,
            CellOut::Bloom { on: false, miss_us } => out.miss_without_bloom_us = miss_us,
            CellOut::Alloc(unit, amp) => out.alloc_amp.push((unit, amp)),
            CellOut::Dram(dram, us) => out.dram_write_us.push((dram, us)),
            CellOut::Facebook(amp) => out.facebook_amp = amp,
            CellOut::Compound { on: true, kops } => out.largekey_compound_kops = kops,
            CellOut::Compound { on: false, kops } => out.largekey_stock_kops = kops,
        }
    }
    out
}

/// The ablation tables as a string (byte-stable for a given result).
pub fn render(r: &AblationResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n=== Ablations ===").unwrap();
    let mut t = Table::new(&["ablation", "config", "measured"]);
    t.row(&[
        "bloom filters",
        "on",
        &format!("{:.2} us / miss", r.miss_with_bloom_us),
    ]);
    t.row(&[
        "bloom filters",
        "off",
        &format!("{:.2} us / miss", r.miss_without_bloom_us),
    ]);
    for (unit, amp) in &r.alloc_amp {
        t.row(&[
            "alloc unit @50B values",
            &kvssd_kvbench::report::bytes(*unit as u64),
            &format!("{:.1}x space amp", amp),
        ]);
    }
    for (dram, us) in &r.dram_write_us {
        t.row(&[
            "index DRAM budget",
            &kvssd_kvbench::report::bytes(*dram),
            &format!("{:.1} us / store", us),
        ]);
    }
    t.row(&[
        "facebook-trace values [14]",
        "1KiB alloc unit",
        &format!("{:.1}x space amp", r.facebook_amp),
    ]);
    t.row(&[
        "command set @128B keys",
        "stock",
        &format!("{:.1} Kops/s", r.largekey_stock_kops),
    ]);
    t.row(&[
        "command set @128B keys",
        "compound x8",
        &format!("{:.1} Kops/s", r.largekey_compound_kops),
    ]);
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "bloom speedup on misses: {:.2}x; compound-command gain @128B keys: {:.2}x",
        r.miss_without_bloom_us / r.miss_with_bloom_us.max(0.01),
        r.largekey_compound_kops / r.largekey_stock_kops.max(0.01),
    )
    .unwrap();
    out
}
