//! Replication — quorum I/O cost and repair bill across R and N.
//!
//! Sweep replication factor R ∈ {1, 2, 3} against shard count
//! N ∈ {2, 4, 8}. Each cell fills its cluster (every insert fans out to
//! R replicas and acknowledges at the majority write quorum), runs a
//! uniform read phase (majority read quorum), then removes one shard
//! and pays the repair bill: re-replicating every key the victim held
//! from a surviving copy. Reported per cell: quorum write/read latency
//! percentiles, aggregate write bandwidth, and the repair's moved
//! keys / copied / dropped replica legs plus its virtual-time cost.
//!
//! Expected shapes: R = 1 rows reproduce the unreplicated cluster
//! (same placement, same single-leg acks); write latency grows with R
//! (the majority ack waits on more legs) while read latency grows more
//! slowly; the repair bill scales with the victim's key share times R.

use kvssd_cluster::ClusterConfig;
use kvssd_kvbench::report::f2;
use kvssd_kvbench::{run_phase, ClusterStore, OpMix, Table, ValueSize, WorkloadSpec};
use kvssd_sim::{LatencyHistogram, SimTime};

use crate::experiments::{cells, pctl_us};
use crate::{setup, Scale};

/// The (shards, replicas) grid the sweep visits, in cell order.
pub const SWEEP: [(usize, usize); 9] = [
    (2, 1),
    (2, 2),
    (2, 3),
    (4, 1),
    (4, 2),
    (4, 3),
    (8, 1),
    (8, 2),
    (8, 3),
];

/// One (N, R) cell's measurements.
#[derive(Debug, Clone)]
pub struct ReplicationPoint {
    /// Shard (device) count.
    pub shards: usize,
    /// Replication factor.
    pub replicas: usize,
    /// Distinct keys resident after the fill.
    pub resident_kvps: u64,
    /// Mean fill-phase client goodput (MB/s, acknowledged user bytes —
    /// replica fan-out costs show up as lower goodput, not more bytes).
    pub write_mbps: f64,
    /// Quorum-acknowledged write latency, median (µs).
    pub write_p50_us: f64,
    /// Quorum-acknowledged write latency, 99th percentile (µs).
    pub write_p99_us: f64,
    /// Quorum-acknowledged read latency, median (µs).
    pub read_p50_us: f64,
    /// Quorum-acknowledged read latency, 99th percentile (µs).
    pub read_p99_us: f64,
    /// Keys that gained at least one replica during repair.
    pub moved_keys: u64,
    /// Replica copies written by the repair.
    pub copied_replicas: u64,
    /// Misplaced replicas dropped by the repair.
    pub dropped_replicas: u64,
    /// Virtual time the repair took, start to completion barrier (ms).
    pub repair_ms: f64,
}

/// The full sweep.
#[derive(Debug, Clone, Default)]
pub struct ReplicationResult {
    /// One point per `SWEEP` entry, in order.
    pub points: Vec<ReplicationPoint>,
}

impl ReplicationResult {
    /// Finds the point for a (shards, replicas) pair.
    pub fn point(&self, shards: usize, replicas: usize) -> &ReplicationPoint {
        self.points
            .iter()
            .find(|p| p.shards == shards && p.replicas == replicas)
            .unwrap_or_else(|| panic!("missing point for N={shards} R={replicas}"))
    }
}

/// Builds one cell's cluster.
fn cluster(scale: Scale, shards: usize, replicas: usize) -> ClusterStore {
    let config = ClusterConfig::new(shards, 42).replication(replicas);
    ClusterStore::new(setup::kv_cluster(config, None, scale))
}

/// An (N, R) cluster after its fill phase: the fill sub-cell's product,
/// handed to the measure sub-cell.
struct Filled {
    store: ClusterStore,
    fill_mbps: f64,
    fill_writes: LatencyHistogram,
    fill_finished: SimTime,
    n_kv: u64,
    shards: usize,
    replicas: usize,
}

/// Fill sub-cell: builds the cluster and fills it at quorum.
fn fill_point(scale: Scale, shards: usize, replicas: usize) -> Filled {
    let mut store = cluster(scale, shards, replicas);

    // Size the fill for the *post-repair* worst case: after the
    // one-shard removal below, N-1 survivors carry min(R, N-1) copies
    // of every key, and the repair must not run a survivor out of
    // space (at N = 2 the lone survivor absorbs the whole keyspace).
    // `rel_skew` converts the ring's hottest share into a
    // hottest/mean ratio that survives the membership change
    // approximately; target the hottest survivor at ~45 % occupancy.
    let cap = store.cluster().space().capacity_bytes;
    let cap_shard = cap / shards as u64;
    let max_share = store
        .cluster()
        .shards()
        .iter()
        .map(|s| store.cluster().ring().share_of(s.id()))
        .fold(0.0f64, f64::max);
    let rel_skew = max_share * shards as f64;
    let survivors = (shards - 1) as f64;
    let copies_after = replicas.min(shards - 1) as f64;
    let n_kv = (cap_shard as f64 * survivors * 0.45 / (4160.0 * rel_skew * copies_after)) as u64;

    let f = crate::experiments::fill(&mut store, n_kv, 4096, 8, SimTime::ZERO);
    Filled {
        store,
        fill_mbps: f.mean_mbps(),
        fill_writes: f.writes,
        fill_finished: f.finished,
        n_kv,
        shards,
        replicas,
    }
}

/// Measure sub-cell: uniform quorum reads, then a one-shard repair.
fn measure_point(filled: Filled) -> ReplicationPoint {
    let Filled {
        mut store,
        fill_mbps,
        fill_writes,
        fill_finished,
        n_kv,
        shards,
        replicas,
    } = filled;

    // Uniform quorum reads over the resident population.
    let rd = run_phase(
        &mut store,
        &WorkloadSpec::new("reads", n_kv, n_kv)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(4096))
            .queue_depth(16)
            .seed(53),
        crate::experiments::settle(fill_finished),
    );

    // Repair: remove one shard and re-replicate everything it held.
    let t0 = crate::experiments::settle(rd.finished);
    let victim = store.cluster().shards()[shards / 2].id();
    let rep = store
        .cluster_mut()
        .remove_shard(t0, victim)
        .expect("victim shard is a live member");

    ReplicationPoint {
        shards,
        replicas,
        resident_kvps: n_kv,
        write_mbps: fill_mbps,
        write_p50_us: pctl_us(&fill_writes, 50.0),
        write_p99_us: pctl_us(&fill_writes, 99.0),
        read_p50_us: pctl_us(&rd.reads, 50.0),
        read_p99_us: pctl_us(&rd.reads, 99.0),
        moved_keys: rep.moved_keys,
        copied_replicas: rep.copied_replicas,
        dropped_replicas: rep.dropped_replicas,
        repair_ms: (rep.completed.as_nanos() - t0.as_nanos()) as f64 / 1e6,
    }
}

/// Runs the experiment as two sub-cell rounds: one fill cell per (N, R)
/// pair, then one measure cell per filled cluster, each round scheduled
/// by [`cells::run_cells_phase`].
pub fn run(scale: Scale) -> ReplicationResult {
    let fills: Vec<cells::Cell<Filled>> = SWEEP
        .iter()
        .map(|&(shards, replicas)| {
            let cell: cells::Cell<Filled> = Box::new(move || fill_point(scale, shards, replicas));
            cell
        })
        .collect();
    let filled = cells::run_cells_phase("replication", "fill", fills);
    let measures: Vec<cells::Cell<ReplicationPoint>> = filled
        .into_iter()
        .map(|f| {
            let cell: cells::Cell<ReplicationPoint> = Box::new(move || measure_point(f));
            cell
        })
        .collect();
    ReplicationResult {
        points: cells::run_cells_phase("replication", "measure", measures),
    }
}

/// The sweep table as a string (byte-stable for a given result).
pub fn render(res: &ReplicationResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "\n=== Replication: quorum I/O and one-shard repair, R x N sweep ==="
    )
    .unwrap();
    let mut t = Table::new(&[
        "shards",
        "R",
        "kvps",
        "wr MB/s",
        "wr p50 us",
        "wr p99 us",
        "rd p50 us",
        "rd p99 us",
        "moved",
        "copied",
        "dropped",
        "repair ms",
    ]);
    for p in &res.points {
        t.row(&[
            &p.shards.to_string(),
            &p.replicas.to_string(),
            &p.resident_kvps.to_string(),
            &f2(p.write_mbps),
            &f2(p.write_p50_us),
            &f2(p.write_p99_us),
            &f2(p.read_p50_us),
            &f2(p.read_p99_us),
            &p.moved_keys.to_string(),
            &p.copied_replicas.to_string(),
            &p.dropped_replicas.to_string(),
            &f2(p.repair_ms),
        ]);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "Cluster question: what does durability cost? The majority-quorum ack \
         tracks R slowly while the repair bill tracks it linearly."
    )
    .unwrap();
    out
}
