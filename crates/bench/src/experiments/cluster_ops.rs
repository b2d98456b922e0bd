//! Cluster hot-path microbenchmark: host-side ops/second of the
//! replicated KV-SSD cluster simulator under a store-heavy churn.
//!
//! Unlike the figures, this measures *wall-clock* cost of simulating
//! the cluster, not virtual-time behavior. Its two legs are the two
//! drivers a caller can actually use today — both production paths,
//! over the same cluster code — replaying the identical fixed-seed op
//! plan against identically filled clusters:
//!
//! * **baseline** — the per-op driver: one boxed key allocation per op
//!   ([`KeyGen::key`]), one dynamic [`KvStore`] dispatch and one runner
//!   hand-off per op;
//! * **optimized** — the batched driver the figures run: keys
//!   regenerated in place ([`KeyGen::key_into`]), ops planned into an
//!   [`OpBatch`] and executed through the monomorphized
//!   [`ClusterStore`] `run_ops` fan-out.
//!
//! Both legs must produce an identical behavior checksum (final virtual
//! time, latency aggregates, and every cluster-visible counter) — the
//! batched driver is a pure host-side optimization, so any divergence
//! is a bug and the run panics. (The host cost of the cluster itself is
//! what the repo benchmark's `cluster_quorum_fabric` `host_kops`
//! measures, under a proper protocol.)

use kvssd_cluster::{ClusterConfig, KvCluster};
use kvssd_core::{KvConfig, KvSsd};
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_kvbench::keys::KeyGen;
use kvssd_kvbench::{ClusterStore, KvStore, OpBatch, PhaseRecorder};
use kvssd_sim::rng::mix64;
use kvssd_sim::{
    BandwidthSeries, DeterministicRng, LatencyHistogram, QueueRunner, SimDuration, SimTime,
};

use crate::walltime::Stopwatch;
use crate::Scale;

/// Fixed workload seed: every run of every leg replays the same ops.
const SEED: u64 = 0xC1_05_7E_12;

/// Shards in the cluster under test.
const SHARDS: usize = 4;

/// Replication factor: every store and delete fans out to R replica
/// legs, the way a replicated deployment would see it.
const R: usize = 2;

/// Key size (bytes) — the figures' 16-byte keys.
const KEY_BYTES: usize = 16;

/// Value size (bytes). Small enough that per-op host bookkeeping (the
/// thing the fast path attacks) is a visible share of the op.
const VSIZE: u32 = 1024;

/// Queue depth both legs drive at.
const QD: usize = 16;

/// One planned churn operation: key index, value tag, read?
type Planned = (u64, u64, bool);

/// One leg's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Host-side ops completed (stores + retrieves).
    pub ops: u64,
    /// Wall-clock seconds for the churn phase.
    pub seconds: f64,
    /// Behavior digest: virtual time, latency aggregates, counters.
    pub checksum: u64,
}

impl Leg {
    /// Ops per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.seconds
    }
}

/// Both legs of the microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOpsResult {
    /// Per-op allocating driver leg.
    pub baseline: Leg,
    /// Batched driver leg.
    pub optimized: Leg,
}

impl ClusterOpsResult {
    /// Optimized throughput over baseline throughput.
    pub fn improvement(&self) -> f64 {
        self.optimized.ops_per_sec() / self.baseline.ops_per_sec()
    }
}

/// Roomy geometry: the churn stays GC-light (both legs identically so),
/// keeping the cluster/host path — what this bench compares — the
/// dominant cost.
fn geometry(scale: Scale) -> Geometry {
    Geometry {
        channels: 4,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: scale.pick(64, 256, 256) as u32,
        pages_per_block: 64,
        page_bytes: 32 * 1024,
    }
}

fn config() -> KvConfig {
    KvConfig {
        // Host-memory-only machinery that costs the same in both legs.
        iterator_buckets: false,
        max_kvps: 1_000_000,
        ..KvConfig::pm983_scaled()
    }
}

/// Resident keys; the churn runs `2 * n` ops.
fn population(scale: Scale) -> u64 {
    scale.pick(2_000, 300_000, 600_000)
}

fn cluster(scale: Scale) -> ClusterStore {
    ClusterStore::new(KvCluster::new(
        ClusterConfig::new(SHARDS, SEED).replication(R),
        |_| KvSsd::new(geometry(scale), FlashTiming::pm983_like(), config()),
    ))
}

/// Plans the fixed-seed churn: 85 % stores (fresh tags), 15 % reads,
/// uniform over the resident population. Shared by both legs, so the
/// ops are identical by construction.
fn plan_churn(n: u64) -> Vec<Planned> {
    let mut rng = DeterministicRng::seed_from(SEED);
    (0..2 * n)
        .map(|op| {
            let key = rng.below(n);
            let is_read = rng.below(100) < 15;
            (key, op, is_read)
        })
        .collect()
}

/// Fills `n` keys (setup: identical in both legs, untimed).
fn filled(scale: Scale, n: u64) -> ClusterStore {
    let mut store = cluster(scale);
    crate::experiments::fill(&mut store, n, VSIZE, QD, SimTime::ZERO);
    store
}

/// The per-op driver: allocate the key, dispatch through
/// `dyn KvStore`, hand the runner one op at a time.
fn drive_per_op(
    store: &mut dyn KvStore,
    keygen: &KeyGen,
    plan: &[Planned],
    start: SimTime,
) -> (SimTime, LatencyHistogram, LatencyHistogram) {
    let mut runner = QueueRunner::starting_at(QD, start);
    let mut writes = LatencyHistogram::new();
    let mut reads = LatencyHistogram::new();
    for &(idx, tag, is_read) in plan {
        let key = keygen.key(idx);
        if is_read {
            let timing = runner.submit(|issue| store.read(issue, &key).0);
            reads.record(timing.latency());
        } else {
            let timing = runner.submit(|issue| store.insert(issue, &key, VSIZE, tag));
            writes.record(timing.latency());
        }
    }
    let finished = runner.drain();
    (store.flush(finished).max(finished), writes, reads)
}

/// The batched fast path: regenerate keys in place, plan into an
/// [`OpBatch`], execute through the store's `run_ops` fan-out.
fn drive_batched(
    store: &mut ClusterStore,
    keygen: &KeyGen,
    plan: &[Planned],
    start: SimTime,
) -> (SimTime, LatencyHistogram, LatencyHistogram) {
    let mut runner = QueueRunner::starting_at(QD, start);
    let mut writes = LatencyHistogram::new();
    let mut reads = LatencyHistogram::new();
    let mut bandwidth = BandwidthSeries::new(SimDuration::from_millis(100));
    let mut not_found = 0u64;
    let mut key_buf = Vec::with_capacity(KEY_BYTES);
    let mut batch = OpBatch::default();
    for chunk in plan.chunks(256) {
        batch.clear();
        for &(idx, tag, is_read) in chunk {
            keygen.key_into(idx, &mut key_buf);
            batch.push(&key_buf, VSIZE, tag, is_read);
        }
        let mut rec = PhaseRecorder {
            writes: &mut writes,
            reads: &mut reads,
            bandwidth: &mut bandwidth,
            not_found: &mut not_found,
            phase_start: start,
        };
        store.run_ops(&mut runner, &batch, &mut rec);
    }
    let finished = runner.drain();
    (store.flush(finished).max(finished), writes, reads)
}

/// Behavior digest over everything the legs could have perturbed:
/// final virtual time, per-kind latency counts and means, and the
/// cluster's device/registry counters.
fn checksum(
    store: &ClusterStore,
    end: SimTime,
    writes: &LatencyHistogram,
    reads: &LatencyHistogram,
) -> u64 {
    let s = store.cluster().stats();
    let mut c = mix64(end.since(SimTime::ZERO).as_nanos());
    for part in [
        s.devices.stores,
        s.devices.retrieves,
        s.devices.not_found,
        s.devices.foreground_gc_events,
        writes.count(),
        reads.count(),
        writes.mean().as_nanos(),
        reads.mean().as_nanos(),
        store.cluster().len(),
    ] {
        c = mix64(c ^ part);
    }
    for shard in store.cluster().shards() {
        c = mix64(c ^ shard.key_count() as u64);
    }
    c
}

/// Replays the fixed-seed churn on a freshly filled cluster and returns
/// the leg measurement. The fill is setup; only the churn is timed.
fn run_leg(scale: Scale, plan: &[Planned], batched: bool) -> Leg {
    let n = population(scale);
    let mut store = filled(scale, n);
    let keygen = KeyGen::new(KEY_BYTES);
    let start = crate::experiments::settle(store.cluster().quiesce_time());

    let t0 = Stopwatch::start();
    let (end, writes, reads) = if batched {
        drive_batched(&mut store, &keygen, plan, start)
    } else {
        drive_per_op(&mut store, &keygen, plan, start)
    };
    let seconds = t0.elapsed_secs();

    Leg {
        ops: plan.len() as u64,
        seconds,
        checksum: checksum(&store, end, &writes, &reads),
    }
}

/// Measurement rounds per leg; legs are interleaved and each leg keeps
/// its fastest round, so a background noise spike on this (possibly
/// single-CPU) host hits one round, not one leg.
const ROUNDS: usize = 3;

/// Runs both legs (interleaved, best-of-[`ROUNDS`]) and checks they
/// behaved identically.
///
/// # Panics
///
/// Panics if the two legs' behavior checksums diverge — the batched
/// driver must be wall-clock-only.
pub fn run(scale: Scale) -> ClusterOpsResult {
    let plan = plan_churn(population(scale));
    let mut best: Option<(Leg, Leg)> = None;
    for _ in 0..ROUNDS {
        let baseline = run_leg(scale, &plan, false);
        let optimized = run_leg(scale, &plan, true);
        assert_eq!(
            baseline.checksum, optimized.checksum,
            "the batched driver changed cluster behavior"
        );
        best = Some(match best {
            None => (baseline, optimized),
            Some((b, o)) => (
                if baseline.seconds < b.seconds {
                    baseline
                } else {
                    b
                },
                if optimized.seconds < o.seconds {
                    optimized
                } else {
                    o
                },
            ),
        });
    }
    let (baseline, optimized) = best.expect("ROUNDS > 0");
    ClusterOpsResult {
        baseline,
        optimized,
    }
}

/// Prints the microbench table.
pub fn report(scale: Scale) {
    print_table(&run(scale));
}

/// Prints the table for an already-measured result.
pub fn print_table(r: &ClusterOpsResult) {
    println!("cluster_ops: replicated-cluster host throughput (R={R}, fixed seed)");
    println!("  leg        ops      seconds   ops/sec");
    println!(
        "  per-op     {:<8} {:<9.3} {:.0}",
        r.baseline.ops,
        r.baseline.seconds,
        r.baseline.ops_per_sec()
    );
    println!(
        "  batched    {:<8} {:<9.3} {:.0}",
        r.optimized.ops,
        r.optimized.seconds,
        r.optimized.ops_per_sec()
    );
    println!(
        "  improvement {:.2}x (checksum {:016x}, legs identical)",
        r.improvement(),
        r.baseline.checksum
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legs_agree_at_tiny_scale() {
        let r = run(Scale::Tiny);
        assert_eq!(r.baseline.checksum, r.optimized.checksum);
        assert_eq!(r.baseline.ops, r.optimized.ops);
    }
}
