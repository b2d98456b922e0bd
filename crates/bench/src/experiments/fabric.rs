//! Fabric — quorum reads over a paid transport, hedged vs not.
//!
//! Every other figure runs the cluster on the free in-process
//! transport; this one pays for the wire. An 8-shard, 3-way-replicated
//! cluster (majority quorums, lean reads) runs its replica legs over a
//! [`kvssd_fabric::Fabric`] and the sweep asks two questions:
//!
//! 1. **Link sweep** — how do quorum-read percentiles track one-way
//!    link latency and jitter? Three cells at 5/20/80 µs links.
//! 2. **Slow replica** — one shard's link degrades to 2 ms (the classic
//!    gray-failure straggler). Lean reads that land on the slow
//!    replica's quorum stall on it; a hedged spare leg issued at the
//!    hedge delay routes around it. Two cells, hedging off vs on, plus
//!    the extra-legs bill the hedge pays.
//!
//! Expected shapes: the link sweep moves the whole read distribution by
//! ~2 RTTs; the slow-replica cell shows hedging pulling p99/p99.9 from
//! "slow-link RTT" back toward "hedge delay + a fast RTT" at a spare-leg
//! cost well under one extra leg per read.

use kvssd_cluster::ClusterConfig;
use kvssd_fabric::LinkConfig;
use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, ClusterStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::{SimDuration, SimTime};

use crate::experiments::{cells, pctl_us};
use crate::{setup, Scale};

/// One sweep scenario (a cell builds its own cluster from this).
#[derive(Debug, Clone, Copy)]
pub struct FabricScenario {
    /// Row label (stable across scales; tests key off it).
    pub name: &'static str,
    /// One-way link latency, µs (every link).
    pub link_us: u64,
    /// Seeded uniform jitter bound, µs (every link).
    pub jitter_us: u64,
    /// One link degraded to this one-way latency, µs (0 = healthy).
    pub slow_link_us: u64,
    /// Hedge delay for the spare read leg, µs (0 = hedging off).
    pub hedge_us: u64,
}

/// The sweep: three healthy-link latency points, then the slow-replica
/// scenario with hedging off and on.
pub const SWEEP: [FabricScenario; 5] = [
    FabricScenario {
        name: "lat5",
        link_us: 5,
        jitter_us: 1,
        slow_link_us: 0,
        hedge_us: 0,
    },
    FabricScenario {
        name: "lat20",
        link_us: 20,
        jitter_us: 5,
        slow_link_us: 0,
        hedge_us: 0,
    },
    FabricScenario {
        name: "lat80",
        link_us: 80,
        jitter_us: 20,
        slow_link_us: 0,
        hedge_us: 0,
    },
    FabricScenario {
        name: "slow",
        link_us: 10,
        jitter_us: 2,
        slow_link_us: 2000,
        hedge_us: 0,
    },
    FabricScenario {
        name: "slow-hedge",
        link_us: 10,
        jitter_us: 2,
        slow_link_us: 2000,
        hedge_us: 750,
    },
];

/// Shard count every cell runs (the slow scenario degrades one link).
pub const SHARDS: usize = 8;

/// Replication factor (majority quorums: 2 of 3).
pub const REPLICAS: usize = 3;

/// The shard index whose link the slow scenarios degrade.
pub const SLOW_SHARD: usize = 1;

/// One scenario's measurements.
#[derive(Debug, Clone)]
pub struct FabricPoint {
    /// Scenario label (`SWEEP` name).
    pub name: &'static str,
    /// One-way link latency, µs.
    pub link_us: u64,
    /// Jitter bound, µs.
    pub jitter_us: u64,
    /// Degraded link's latency, µs (0 = healthy).
    pub slow_link_us: u64,
    /// Hedge delay, µs (0 = off).
    pub hedge_us: u64,
    /// Distinct keys resident after the fill.
    pub resident_kvps: u64,
    /// Quorum-acknowledged write latency, 99th percentile (µs).
    pub write_p99_us: f64,
    /// Quorum-acknowledged read latency, median (µs).
    pub read_p50_us: f64,
    /// Quorum-acknowledged read latency, 99th percentile (µs).
    pub read_p99_us: f64,
    /// Quorum-acknowledged read latency, 99.9th percentile (µs).
    pub read_p999_us: f64,
    /// Spare read legs the hedge launched.
    pub hedged_spares: u64,
    /// Spare legs as a percentage of reads — the extra-read bill.
    pub extra_read_pct: f64,
}

/// The full sweep.
#[derive(Debug, Clone, Default)]
pub struct FabricResult {
    /// One point per `SWEEP` entry, in order.
    pub points: Vec<FabricPoint>,
}

impl FabricResult {
    /// Finds a point by scenario name.
    pub fn point(&self, name: &str) -> &FabricPoint {
        self.points
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing fabric point `{name}`"))
    }
}

/// Builds one cell's fabric-backed cluster and degrades the slow link.
fn cluster(scale: Scale, sc: FabricScenario) -> ClusterStore {
    let link = LinkConfig::datacenter()
        .latency(SimDuration::from_micros(sc.link_us))
        .jitter(SimDuration::from_micros(sc.jitter_us));
    let hedge = (sc.hedge_us > 0).then(|| SimDuration::from_micros(sc.hedge_us));
    let config = ClusterConfig::new(SHARDS, 42)
        .replication(REPLICAS)
        .lean_reads(hedge);
    let mut store = ClusterStore::new(setup::kv_cluster(config, Some(link), scale));
    if sc.slow_link_us > 0 {
        let slow = link
            .latency(SimDuration::from_micros(sc.slow_link_us))
            .jitter(SimDuration::from_micros(sc.slow_link_us / 10));
        store
            .cluster_mut()
            .fabric_mut()
            .expect("fabric-backed cluster")
            .shape_link(SLOW_SHARD, slow);
    }
    store
}

/// Runs one scenario: fill, then uniform quorum reads.
fn run_point(scale: Scale, sc: FabricScenario) -> FabricPoint {
    let mut store = cluster(scale, sc);
    let n_kv = scale.pick(300, 3_000, 12_000);

    let f = crate::experiments::fill(&mut store, n_kv, 1024, 8, SimTime::ZERO);

    let rd = run_phase(
        &mut store,
        &WorkloadSpec::new("reads", n_kv, n_kv)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(1024))
            .queue_depth(4)
            .seed(53),
        crate::experiments::settle(f.finished),
    );

    let spares = store.cluster().stats().hedged_spares;
    FabricPoint {
        name: sc.name,
        link_us: sc.link_us,
        jitter_us: sc.jitter_us,
        slow_link_us: sc.slow_link_us,
        hedge_us: sc.hedge_us,
        resident_kvps: n_kv,
        write_p99_us: pctl_us(&f.writes, 99.0),
        read_p50_us: pctl_us(&rd.reads, 50.0),
        read_p99_us: pctl_us(&rd.reads, 99.0),
        read_p999_us: pctl_us(&rd.reads, 99.9),
        hedged_spares: spares,
        extra_read_pct: spares as f64 * 100.0 / n_kv as f64,
    }
}

/// Runs the experiment. One cell per scenario (each builds its own
/// cluster), scheduled by [`cells::run_cells`].
pub fn run(scale: Scale) -> FabricResult {
    let work: Vec<cells::Cell<FabricPoint>> = SWEEP
        .iter()
        .map(|&sc| {
            let cell: cells::Cell<FabricPoint> = Box::new(move || run_point(scale, sc));
            cell
        })
        .collect();
    FabricResult {
        points: cells::run_cells("fabric", work),
    }
}

/// The sweep table as a string (byte-stable for a given result).
pub fn render(res: &FabricResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fabric: quorum reads over a paid transport, hedged vs not ===\n\
         N={SHARDS} R={REPLICAS} majority quorums, lean reads; `slow` rows degrade one link"
    )
    .unwrap();
    let mut t = Table::new(&[
        "scenario",
        "link us",
        "jit us",
        "slow us",
        "hedge us",
        "kvps",
        "wr p99 us",
        "rd p50 us",
        "rd p99 us",
        "rd p999 us",
        "spares",
        "extra rd %",
    ]);
    for p in &res.points {
        t.row(&[
            p.name,
            &p.link_us.to_string(),
            &p.jitter_us.to_string(),
            &p.slow_link_us.to_string(),
            &p.hedge_us.to_string(),
            &p.resident_kvps.to_string(),
            &f2(p.write_p99_us),
            &f2(p.read_p50_us),
            &f2(p.read_p99_us),
            &f2(p.read_p999_us),
            &p.hedged_spares.to_string(),
            &f2(p.extra_read_pct),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "Cluster question: when one replica's link grays out, what does it cost \
         to keep the read tail? Hedged spares cap p99/p99.9 near the hedge delay \
         for a fraction of an extra leg per read."
    )
    .unwrap();
    out
}
