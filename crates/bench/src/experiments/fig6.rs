//! Fig. 6 — foreground garbage collection under random updates.
//!
//! Paper setup: fill 80 % of device capacity with 16 B keys / 4 KiB
//! values, then rewrite the same volume with (a) RocksDB random updates
//! on the block-SSD, (b) KV-SSD uniform-random updates, (c) KV-SSD
//! sliding-window pseudo-random updates (footnote 2).
//!
//! Paper findings: the KV-SSD's bandwidth collapses intermittently under
//! foreground GC in (b) and (c); RocksDB on the block-SSD shows no such
//! drop (sequential SST writes + whole-file TRIM keep device GC cheap).

use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, AccessPattern, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::experiments::downsample;
use crate::{setup, Scale};

/// One panel's bandwidth trace and summary.
#[derive(Debug, Clone)]
pub struct Fig6Panel {
    /// Panel label (paper sub-figure).
    pub label: &'static str,
    /// Mean update-phase bandwidth (MB/s, user bytes).
    pub mean_mbps: f64,
    /// Minimum complete-window bandwidth.
    pub min_mbps: f64,
    /// Maximum complete-window bandwidth.
    pub max_mbps: f64,
    /// Downsampled bandwidth timeline (MB/s).
    pub timeline: Vec<f64>,
    /// Foreground-GC episodes observed on the KV device (0 for RocksDB).
    pub foreground_gc_events: u64,
    /// GC/defrag/compaction copies observed below the store.
    pub copies: u64,
}

impl Fig6Panel {
    /// min/mean bandwidth — a collapse indicator (small = deep dips).
    pub fn dip_ratio(&self) -> f64 {
        if self.mean_mbps == 0.0 {
            return 1.0;
        }
        self.min_mbps / self.mean_mbps
    }
}

/// All three panels.
#[derive(Debug, Clone, Default)]
pub struct Fig6Result {
    /// Panels (a), (b), (c).
    pub panels: Vec<Fig6Panel>,
}

impl Fig6Result {
    /// Finds a panel by label.
    pub fn panel(&self, label: &str) -> &Fig6Panel {
        self.panels
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("missing panel {label}"))
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig6Result {
    let mut out = Fig6Result::default();

    // Panel (a): RocksDB on block-SSD. Population sized to ~35 % of the
    // block device so SSTs + compaction headroom fit the filesystem.
    let n_rdb = scale.pick(6_000, 120_000, 250_000);
    {
        let mut store = setup::rocksdb_small_host();
        let f = crate::experiments::fill(&mut store, n_rdb, 4096, 8, SimTime::ZERO);
        let upd = run_phase(
            &mut store,
            &WorkloadSpec::new("updates", n_rdb, n_rdb)
                .mix(OpMix::UpdateOnly)
                .value(ValueSize::Fixed(4096))
                .queue_depth(8)
                .seed(31),
            crate::experiments::settle(f.finished),
        );
        let dev = store.inner().fs().device();
        let timeline = downsample(&upd);
        let (min, max) = min_max(&timeline);
        out.panels.push(Fig6Panel {
            label: "a-rocksdb-block",
            mean_mbps: upd.mean_mbps(),
            min_mbps: min,
            max_mbps: max,
            timeline,
            foreground_gc_events: dev.stats().foreground_gc_events,
            copies: dev.stats().gc_copied_clusters,
        });
    }

    // Panels (b) and (c): KV-SSD filled to ~80 % of its data capacity.
    // At Tiny scale the 80 % fill must stay small, so a smaller device
    // (the unit-test geometry) stands in — occupancy, not absolute size,
    // drives the mechanism.
    let kv_store = || -> kvssd_kvbench::KvSsdStore {
        match scale {
            Scale::Tiny => kvssd_kvbench::KvSsdStore::new(kvssd_core::KvSsd::new(
                kvssd_flash::Geometry::small(),
                setup::timing(),
                kvssd_core::KvConfig::small(),
            )),
            _ => setup::kv_ssd_with(setup::kv_config_macro()),
        }
    };
    let cap = kv_store().device().space().capacity_bytes;
    let n_kv = (cap * 8 / 10) / 4160;
    for (label, pattern) in [
        ("b-kvssd-uniform", AccessPattern::Uniform),
        (
            "c-kvssd-window",
            AccessPattern::SlidingWindow {
                window: (n_kv / 20).max(1),
            },
        ),
    ] {
        let mut store = kv_store();
        let f = crate::experiments::fill(&mut store, n_kv, 4096, 8, SimTime::ZERO);
        let fg_before = store.device().stats().foreground_gc_events;
        let upd = run_phase(
            &mut store,
            &WorkloadSpec::new("updates", n_kv, n_kv)
                .mix(OpMix::UpdateOnly)
                .pattern(pattern)
                .value(ValueSize::Fixed(4096))
                .queue_depth(8)
                .seed(37),
            crate::experiments::settle(f.finished),
        );
        let timeline = downsample(&upd);
        let (min, max) = min_max(&timeline);
        out.panels.push(Fig6Panel {
            label,
            mean_mbps: upd.mean_mbps(),
            min_mbps: min,
            max_mbps: max,
            timeline,
            foreground_gc_events: store.device().stats().foreground_gc_events - fg_before,
            copies: store.device().stats().gc_copied_segments,
        });
    }
    out
}

/// Min and max of a smoothed timeline (ignoring the partial tail).
fn min_max(timeline: &[f64]) -> (f64, f64) {
    let body = &timeline[..timeline.len().saturating_sub(1).max(1)];
    let min = body.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = body.iter().cloned().fold(0.0f64, f64::max);
    (if min.is_finite() { min } else { 0.0 }, max)
}

/// The paper-shaped panels as a string (byte-stable for a given result).
pub fn render(res: &Fig6Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fig. 6: bandwidth under random updates after an 80 % fill ==="
    )
    .unwrap();
    let mut t = Table::new(&[
        "panel",
        "mean MB/s",
        "min MB/s",
        "max MB/s",
        "min/mean",
        "fg-GC events",
        "copies",
    ]);
    for p in &res.panels {
        t.row(&[
            p.label,
            &f2(p.mean_mbps),
            &f2(p.min_mbps),
            &f2(p.max_mbps),
            &f2(p.dip_ratio()),
            &p.foreground_gc_events.to_string(),
            &p.copies.to_string(),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    for p in &res.panels {
        let spark: Vec<String> = p.timeline.iter().map(|v| format!("{v:.0}")).collect();
        writeln!(out, "{:<18} MB/s timeline: {}", p.label, spark.join(" ")).unwrap();
    }
    writeln!(
        out,
        "Paper: (a) no drastic drop on RocksDB/block; (b),(c) intermittent collapses on KV-SSD."
    )
    .unwrap();
    out
}
