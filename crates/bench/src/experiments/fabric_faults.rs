//! Fabric faults — what per-op deadlines and seeded retries buy back
//! when the wire eats legs.
//!
//! The `fabric` figure prices a healthy wire; this one breaks it. An
//! 8-shard, 3-way-replicated cluster (majority quorums) runs a
//! closed-loop store-then-read workload over links with seeded message
//! loss, and the sweep walks `drop_ppm × op_timeout × max_retries`
//! (plus one hedged-write variant) asking: how many operations that a
//! raw transport would have failed with `QuorumUnavailable` does the
//! retry budget rescue, and what do the re-sent legs cost in wire
//! bytes?
//!
//! Expected shapes: at a given loss rate, availability climbs steeply
//! with the first retry and saturates by two or three; the wire bill
//! grows roughly linearly with the retry budget; hedged writes shave
//! a little more unavailability for a few spare legs. Each cell is
//! deterministic — same seed, same faults, same table bytes.

use kvssd_cluster::ClusterConfig;
use kvssd_core::KvError;
use kvssd_core::Payload;
use kvssd_fabric::LinkConfig;
use kvssd_kvbench::report::f2;
use kvssd_kvbench::Table;
use kvssd_sim::{SimDuration, SimTime};

use crate::experiments::cells;
use crate::{setup, Scale};

/// One sweep scenario (a cell builds its own faulty cluster from it).
#[derive(Debug, Clone, Copy)]
pub struct FaultScenario {
    /// Row label (stable across scales; tests key off it).
    pub name: &'static str,
    /// Per-message loss probability, parts per million, each way.
    pub drop_ppm: u32,
    /// Per-leg acknowledgement deadline, µs (0 = deadlines off).
    pub timeout_us: u64,
    /// Re-issues allowed per leg once the deadline is armed.
    pub retries: u32,
    /// Hedged-write spare delay, µs (0 = off).
    pub hedge_us: u64,
}

/// The sweep: a light-loss pair (raw vs retried), then a 20 % loss
/// column walking the retry budget, the timeout axis, and hedged
/// writes.
pub const SWEEP: [FaultScenario; 7] = [
    FaultScenario {
        name: "drop2-raw",
        drop_ppm: 20_000,
        timeout_us: 0,
        retries: 0,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop2-t500r2",
        drop_ppm: 20_000,
        timeout_us: 500,
        retries: 2,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop20-raw",
        drop_ppm: 200_000,
        timeout_us: 0,
        retries: 0,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop20-t500r1",
        drop_ppm: 200_000,
        timeout_us: 500,
        retries: 1,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop20-t500r3",
        drop_ppm: 200_000,
        timeout_us: 500,
        retries: 3,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop20-t2000r3",
        drop_ppm: 200_000,
        timeout_us: 2000,
        retries: 3,
        hedge_us: 0,
    },
    FaultScenario {
        name: "drop20-t500r3-hw",
        drop_ppm: 200_000,
        timeout_us: 500,
        retries: 3,
        hedge_us: 200,
    },
];

/// Shard count every cell runs.
pub const SHARDS: usize = 8;

/// Replication factor (majority quorums: 2 of 3).
pub const REPLICAS: usize = 3;

/// One scenario's measurements.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Scenario label (`SWEEP` name).
    pub name: &'static str,
    /// Per-message loss, ppm each way.
    pub drop_ppm: u32,
    /// Deadline, µs (0 = off).
    pub timeout_us: u64,
    /// Retry budget per leg.
    pub retries: u32,
    /// Hedged-write delay, µs (0 = off).
    pub hedge_us: u64,
    /// Closed-loop ops attempted (stores + reads).
    pub ops: u64,
    /// Ops that assembled their quorum.
    pub ok_ops: u64,
    /// Ops that failed typed with `QuorumUnavailable`.
    pub unavailable: u64,
    /// Ok ops as a percentage of all ops.
    pub availability_pct: f64,
    /// Ops whose quorum only assembled thanks to retried/hedged legs —
    /// exactly the ops the raw transport would have failed.
    pub rescued: u64,
    /// Leg re-issues after missed deadlines.
    pub leg_retries: u64,
    /// Hedged-write spare legs launched.
    pub write_spares: u64,
    /// Re-delivered mutations deduped at replicas.
    pub dup_suppressed: u64,
    /// Total payload bytes offered to the wire.
    pub wire_bytes: u64,
    /// Messages the wire lost (seeded drops).
    pub dropped: u64,
}

/// The full sweep.
#[derive(Debug, Clone, Default)]
pub struct FabricFaultsResult {
    /// One point per `SWEEP` entry, in order.
    pub points: Vec<FaultPoint>,
}

impl FabricFaultsResult {
    /// Finds a point by scenario name.
    pub fn point(&self, name: &str) -> &FaultPoint {
        self.points
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("missing fabric_faults point `{name}`"))
    }

    /// Extra wire bytes a point paid over the raw cell at the same
    /// loss rate (0 when the raw anchor is absent or cheaper).
    pub fn extra_bytes_vs_raw(&self, name: &str) -> u64 {
        let p = self.point(name);
        let raw = self
            .points
            .iter()
            .find(|r| r.drop_ppm == p.drop_ppm && r.timeout_us == 0 && r.hedge_us == 0);
        raw.map_or(0, |r| p.wire_bytes.saturating_sub(r.wire_bytes))
    }
}

/// Runs one scenario: closed-loop fill then read-back, counting typed
/// failures instead of treating them as fatal.
fn run_point(scale: Scale, sc: FaultScenario) -> FaultPoint {
    let link = LinkConfig::datacenter()
        .latency(SimDuration::from_micros(15))
        .jitter(SimDuration::from_micros(5))
        .drop_ppm(sc.drop_ppm);
    let hedge = (sc.hedge_us > 0).then(|| SimDuration::from_micros(sc.hedge_us));
    let mut config = ClusterConfig::new(SHARDS, 42)
        .replication(REPLICAS)
        .hedged_writes(hedge);
    if sc.timeout_us > 0 {
        config = config.deadlines(SimDuration::from_micros(sc.timeout_us), sc.retries);
    }
    let mut c = setup::kv_cluster(config, Some(link), scale);

    let n_kv = scale.pick(300, 3_000, 12_000);
    let mut t = SimTime::ZERO;
    let mut ok_ops = 0u64;
    let mut unavailable = 0u64;
    let mut run = |r: Result<SimTime, KvError>, t: &mut SimTime| match r {
        Ok(done) => {
            ok_ops += 1;
            *t = done;
        }
        Err(KvError::QuorumUnavailable { .. }) => unavailable += 1,
        Err(e) => panic!("fault sweep ops must fail typed, got {e}"),
    };
    for i in 0..n_kv {
        let k = format!("key{i:08}");
        run(c.store(t, k.as_bytes(), Payload::synthetic(512, i)), &mut t);
    }
    for i in 0..n_kv {
        let k = format!("key{i:08}");
        run(c.retrieve(t, k.as_bytes()).map(|l| l.at), &mut t);
    }

    let ops = 2 * n_kv;
    let st = c.stats();
    FaultPoint {
        name: sc.name,
        drop_ppm: sc.drop_ppm,
        timeout_us: sc.timeout_us,
        retries: sc.retries,
        hedge_us: sc.hedge_us,
        ops,
        ok_ops,
        unavailable,
        availability_pct: ok_ops as f64 * 100.0 / ops as f64,
        rescued: st.retry_rescued_ops,
        leg_retries: st.leg_retries,
        write_spares: st.hedged_write_spares,
        dup_suppressed: st.dup_suppressed,
        wire_bytes: st.transport.bytes,
        dropped: st.transport.dropped,
    }
}

/// Runs the experiment. One cell per scenario (each builds its own
/// cluster), scheduled by [`cells::run_cells`].
pub fn run(scale: Scale) -> FabricFaultsResult {
    let work: Vec<cells::Cell<FaultPoint>> = SWEEP
        .iter()
        .map(|&sc| {
            let cell: cells::Cell<FaultPoint> = Box::new(move || run_point(scale, sc));
            cell
        })
        .collect();
    FabricFaultsResult {
        points: cells::run_cells("fabric_faults", work),
    }
}

/// The sweep table as a string (byte-stable for a given result).
pub fn render(res: &FabricFaultsResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Fabric faults: deadlines and retries vs the lost-leg black hole ===\n\
         N={SHARDS} R={REPLICAS} majority quorums; closed-loop stores then reads over lossy links"
    )
    .unwrap();
    let mut t = Table::new(&[
        "scenario", "drop ppm", "t/o us", "retries", "hedge us", "ops", "ok", "unavail", "avail %",
        "rescued", "leg rtry", "spares", "dup supp", "wire MB", "dropped",
    ]);
    for p in &res.points {
        t.row(&[
            p.name,
            &p.drop_ppm.to_string(),
            &p.timeout_us.to_string(),
            &p.retries.to_string(),
            &p.hedge_us.to_string(),
            &p.ops.to_string(),
            &p.ok_ops.to_string(),
            &p.unavailable.to_string(),
            &f2(p.availability_pct),
            &p.rescued.to_string(),
            &p.leg_retries.to_string(),
            &p.write_spares.to_string(),
            &p.dup_suppressed.to_string(),
            &f2(p.wire_bytes as f64 / 1e6),
            &p.dropped.to_string(),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "Cluster question: when the wire eats a leg, is the op lost or late? \
         Deadline retries turn QuorumUnavailable into rescued acks for a \
         linear wire-byte premium; hedged writes tie the last slow leg."
    )
    .unwrap();
    out
}
