//! Scale-out — the cluster experiment the single-device paper cannot run.
//!
//! Sweep shard count N ∈ {1, 2, 4, 8} over the Fig. 6 methodology
//! (fill to ~80 % of aggregate capacity, then uniform-random updates)
//! and report, per N: aggregate bandwidth, host-observed p50/p99/p999
//! write latency, and a Fig. 6-style bandwidth time series. The cluster
//! question: when each shard hits foreground GC, do the collapse
//! windows stay per-shard (aggregate bandwidth dips shallowly, tail
//! latency still shows them) or line up across shards (aggregate
//! collapses like a single device)?
//!
//! Expected shapes: aggregate uniform-workload bandwidth increases with
//! shard count (independent devices, one virtual clock); per-shard
//! collapse windows stay visible in the cluster p999; synchronized
//! whole-cluster collapses are rarer than per-shard ones because
//! consistent hashing decorrelates per-shard fill levels.

use kvssd_cluster::ClusterConfig;
use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, ClusterStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::SimTime;

use crate::experiments::{cells, downsample, pctl_us};
use crate::{setup, Scale};

/// Shard counts the sweep visits.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One shard count's measurements.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    /// Shard (device) count.
    pub shards: usize,
    /// Pairs resident after the fill.
    pub resident_kvps: u64,
    /// Mean aggregate update-phase bandwidth (MB/s, user bytes).
    pub agg_mbps: f64,
    /// Host-observed write latency percentiles (µs).
    pub p50_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs) — where per-shard GC pauses surface.
    pub p999_us: f64,
    /// Downsampled aggregate bandwidth timeline (MB/s).
    pub timeline: Vec<f64>,
    /// Update-phase windows in which at least one shard dipped below
    /// half its own mean bandwidth (per-shard collapse windows).
    pub shard_dip_windows: u64,
    /// Of those, windows where **every** shard dipped at once — a
    /// synchronized, single-device-style whole-cluster collapse.
    pub synchronized_dip_windows: u64,
    /// Foreground-GC episodes summed over shards (update phase).
    pub fg_gc_events: u64,
}

/// The full sweep.
#[derive(Debug, Clone, Default)]
pub struct ScaleoutResult {
    /// One point per shard count, ascending.
    pub points: Vec<ScaleoutPoint>,
}

impl ScaleoutResult {
    /// Finds the point for a shard count.
    pub fn point(&self, shards: usize) -> &ScaleoutPoint {
        self.points
            .iter()
            .find(|p| p.shards == shards)
            .unwrap_or_else(|| panic!("missing point for {shards} shards"))
    }
}

/// Builds the sweep's cluster for one shard count.
fn cluster(scale: Scale, shards: usize) -> ClusterStore {
    ClusterStore::new(setup::kv_cluster(
        ClusterConfig::new(shards, 42),
        None,
        scale,
    ))
}

/// A shard count's cluster after its fill phase: the fill sub-cell's
/// product, handed to the measure sub-cell.
struct Filled {
    store: ClusterStore,
    fill_finished: SimTime,
    n_kv: u64,
    shards: usize,
    fg_before: u64,
}

/// Fill sub-cell: builds the cluster and fills it.
fn fill_point(scale: Scale, shards: usize) -> Filled {
    let mut store = cluster(scale, shards);

    // Fill so the *hottest* shard sits at ~80 % occupancy (Fig. 6
    // territory). Consistent hashing spreads keys unevenly, so sizing
    // against the aggregate would overfill whichever shard the ring
    // favors; scale by its exact ring share instead. At N = 1 the share
    // is 1.0 and this reduces to the Fig. 6 fill formula.
    let cap = store.cluster().space().capacity_bytes;
    let cap_shard = cap / shards as u64;
    let max_share = store
        .cluster()
        .shards()
        .iter()
        .map(|s| store.cluster().ring().share_of(s.id()))
        .fold(0.0f64, f64::max);
    let n_kv = (cap_shard as f64 * 0.8 / (4160.0 * max_share)) as u64;
    let f = crate::experiments::fill(&mut store, n_kv, 4096, 8, SimTime::ZERO);
    let fg_before = store.cluster().stats().devices.foreground_gc_events;
    Filled {
        store,
        fill_finished: f.finished,
        n_kv,
        shards,
        fg_before,
    }
}

/// Measure sub-cell: uniform updates over a filled cluster.
fn measure_point(filled: Filled) -> ScaleoutPoint {
    let Filled {
        mut store,
        fill_finished,
        n_kv,
        shards,
        fg_before,
    } = filled;

    // Uniform updates at a queue depth deep enough to keep all shards
    // busy at N = 8.
    let upd = run_phase(
        &mut store,
        &WorkloadSpec::new("updates", n_kv, n_kv)
            .mix(OpMix::UpdateOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(32)
            .seed(37),
        crate::experiments::settle(fill_finished),
    );

    let (shard_dips, sync_dips) = dip_windows(&store, upd.started);
    ScaleoutPoint {
        shards,
        resident_kvps: n_kv,
        agg_mbps: upd.mean_mbps(),
        p50_us: pctl_us(&upd.writes, 50.0),
        p99_us: pctl_us(&upd.writes, 99.0),
        p999_us: pctl_us(&upd.writes, 99.9),
        timeline: downsample(&upd),
        shard_dip_windows: shard_dips,
        synchronized_dip_windows: sync_dips,
        fg_gc_events: store.cluster().stats().devices.foreground_gc_events - fg_before,
    }
}

/// Runs the experiment as two sub-cell rounds: one fill cell per shard
/// count, then one measure cell per filled cluster. Each round is
/// scheduled by [`cells::run_cells_phase`], so the largest schedulable
/// unit is a single phase, not fill + measure fused.
pub fn run(scale: Scale) -> ScaleoutResult {
    let fills: Vec<cells::Cell<Filled>> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let cell: cells::Cell<Filled> = Box::new(move || fill_point(scale, shards));
            cell
        })
        .collect();
    let filled = cells::run_cells_phase("scaleout", "fill", fills);
    let measures: Vec<cells::Cell<ScaleoutPoint>> = filled
        .into_iter()
        .map(|f| {
            let cell: cells::Cell<ScaleoutPoint> = Box::new(move || measure_point(f));
            cell
        })
        .collect();
    ScaleoutResult {
        points: cells::run_cells_phase("scaleout", "measure", measures),
    }
}

/// Counts update-phase windows with at least one shard below half its
/// own mean bandwidth, and the subset where every shard dipped at once.
fn dip_windows(store: &ClusterStore, update_start: SimTime) -> (u64, u64) {
    // Collect each shard's update-phase points, keyed by window start.
    let mut per_shard: Vec<std::collections::BTreeMap<u64, f64>> = Vec::new();
    for shard in store.cluster().shards() {
        let pts: std::collections::BTreeMap<u64, f64> = shard
            .bandwidth()
            .points()
            .into_iter()
            .filter(|p| p.at >= update_start)
            .map(|p| (p.at.as_nanos(), p.mbps))
            .collect();
        per_shard.push(pts);
    }
    // Per-shard dip threshold: half that shard's own mean across the
    // phase (the Fig. 6 "collapse" rule, applied per device).
    let thresholds: Vec<f64> = per_shard
        .iter()
        .map(|pts| {
            if pts.is_empty() {
                return 0.0;
            }
            pts.values().sum::<f64>() / pts.len() as f64 / 2.0
        })
        .collect();
    let mut windows: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for pts in &per_shard {
        windows.extend(pts.keys().copied());
    }
    let mut any_dip = 0u64;
    let mut all_dip = 0u64;
    for w in windows {
        let mut dipping = 0usize;
        for (pts, &thr) in per_shard.iter().zip(&thresholds) {
            // A shard absent from a window moved zero bytes: that is a
            // dip too (a stalled shard produces no points).
            let mbps = pts.get(&w).copied().unwrap_or(0.0);
            if mbps < thr {
                dipping += 1;
            }
        }
        if dipping > 0 {
            any_dip += 1;
        }
        if dipping == per_shard.len() {
            all_dip += 1;
        }
    }
    (any_dip, all_dip)
}

/// The sweep table and timelines as a string (byte-stable for a given
/// result).
pub fn render(res: &ScaleoutResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Scale-out: uniform updates at 80 % occupancy, shard sweep ==="
    )
    .unwrap();
    let mut t = Table::new(&[
        "shards",
        "kvps",
        "agg MB/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "dip wins",
        "sync wins",
        "fg-GC",
    ]);
    for p in &res.points {
        t.row(&[
            &p.shards.to_string(),
            &p.resident_kvps.to_string(),
            &f2(p.agg_mbps),
            &f2(p.p50_us),
            &f2(p.p99_us),
            &f2(p.p999_us),
            &p.shard_dip_windows.to_string(),
            &p.synchronized_dip_windows.to_string(),
            &p.fg_gc_events.to_string(),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    for p in &res.points {
        let spark: Vec<String> = p.timeline.iter().map(|v| format!("{v:.0}")).collect();
        writeln!(
            out,
            "N={:<2} agg MB/s timeline: {}",
            p.shards,
            spark.join(" ")
        )
        .unwrap();
    }
    writeln!(
        out,
        "Cluster question: GC collapses stay per-shard (dip windows ≫ sync windows) \
         while aggregate bandwidth scales with N."
    )
    .unwrap();
    out
}
