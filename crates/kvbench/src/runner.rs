//! Queue-depth workload execution and metric collection.
//!
//! The hot loop is batched: `run_phase` *plans* a run of operations
//! (key, value length, read/write — everything the phase RNG decides)
//! into a reusable [`OpBatch`], then hands the batch to
//! [`KvStore::run_ops`] to execute. Planning consumes the RNG in
//! exactly the per-op order, and execution only spends virtual time, so
//! the batched loop is operation-for-operation identical to submitting
//! each op as it is planned — it just stops paying per-op dispatch and
//! per-op key allocation.

use kvssd_sim::runner::OpTiming;
use kvssd_sim::{
    BandwidthSeries, DeterministicRng, LatencyHistogram, QueueRunner, SimDuration, SimTime,
    ZipfianDistribution,
};

use crate::keys::KeyGen;
use crate::spec::{AccessPattern, OpMix, ValueSize, WorkloadSpec};
use crate::KvStore;

/// Ops planned per [`OpBatch`] before execution. Large enough to
/// amortize the batch hand-off, small enough to stay cache-resident.
const BATCH_OPS: usize = 256;

/// One planned operation inside an [`OpBatch`].
#[derive(Debug, Clone, Copy)]
pub struct PlannedOp {
    key_start: u32,
    key_end: u32,
    /// Value length in bytes (writes; zero for reads).
    pub value_len: u32,
    /// Caller-chosen value identity tag (writes).
    pub tag: u64,
    /// True for point lookups.
    pub is_read: bool,
}

/// A reusable batch of planned operations. Key bytes live in one flat
/// arena, so planning a batch allocates nothing once the buffers are
/// warm.
#[derive(Debug, Default)]
pub struct OpBatch {
    keys: Vec<u8>,
    ops: Vec<PlannedOp>,
}

impl OpBatch {
    /// An empty batch with room for `ops` operations whose keys total
    /// `key_bytes`, so filling it up to that allocates nothing.
    pub fn with_capacity(ops: usize, key_bytes: usize) -> Self {
        OpBatch {
            keys: Vec::with_capacity(key_bytes),
            ops: Vec::with_capacity(ops),
        }
    }

    /// Empties the batch, keeping its allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ops.clear();
    }

    /// Number of planned operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are planned.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one planned operation (the key is copied into the arena).
    pub fn push(&mut self, key: &[u8], value_len: u32, tag: u64, is_read: bool) {
        let key_start = self.keys.len() as u32;
        self.keys.extend_from_slice(key);
        self.ops.push(PlannedOp {
            key_start,
            key_end: self.keys.len() as u32,
            value_len,
            tag,
            is_read,
        });
    }

    /// The planned operations with their keys, in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (&PlannedOp, &[u8])> {
        self.ops
            .iter()
            .map(|op| (op, &self.keys[op.key_start as usize..op.key_end as usize]))
    }
}

/// Where a batch's outcomes land: the phase's histograms and bandwidth
/// series, borrowed for the duration of one [`KvStore::run_ops`] call.
#[derive(Debug)]
pub struct PhaseRecorder<'a> {
    /// Insert/update latencies.
    pub writes: &'a mut LatencyHistogram,
    /// Read latencies.
    pub reads: &'a mut LatencyHistogram,
    /// Completed-bytes series (phase-relative).
    pub bandwidth: &'a mut BandwidthSeries,
    /// Reads that found no value.
    pub not_found: &'a mut u64,
    /// Phase start (bandwidth windows are phase-relative).
    pub phase_start: SimTime,
}

impl PhaseRecorder<'_> {
    /// Records one executed operation's outcome.
    #[inline]
    pub fn record(&mut self, op: &PlannedOp, key_len: usize, timing: OpTiming, found: bool) {
        if op.is_read {
            self.reads.record(timing.latency());
            if !found {
                *self.not_found += 1;
            }
        } else {
            self.writes.record(timing.latency());
        }
        let user_bytes = key_len as u64 + if op.is_read { 0 } else { op.value_len as u64 };
        // The series is phase-relative so window 0 is the phase start.
        self.bandwidth.record(
            SimTime::from_nanos(timing.completed.since(self.phase_start).as_nanos()),
            user_bytes,
        );
    }
}

/// Everything measured during one phase.
#[derive(Debug)]
pub struct RunMetrics {
    /// The workload's label.
    pub name: String,
    /// The store's label.
    pub store: &'static str,
    /// Insert/update latencies.
    pub writes: LatencyHistogram,
    /// Read latencies.
    pub reads: LatencyHistogram,
    /// Completed-bytes time series (user bytes).
    pub bandwidth: BandwidthSeries,
    /// Phase start.
    pub started: SimTime,
    /// Last completion.
    pub finished: SimTime,
    /// Reads that found no value.
    pub not_found: u64,
    /// Host CPU consumed during this phase.
    pub cpu_busy: SimDuration,
}

impl RunMetrics {
    /// Wall-clock (virtual) duration of the phase.
    pub fn elapsed(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// Mean user-data bandwidth in MB/s.
    pub fn mean_mbps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bandwidth.total_bytes() as f64 / 1e6 / secs
    }

    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.writes.count() + self.reads.count()) as f64 / secs
    }

    /// Host CPU utilization over the phase, normalized to one core.
    pub fn cpu_cores_used(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.cpu_busy.as_secs_f64() / secs
    }

    /// Combined mean op latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        let n = self.writes.count() + self.reads.count();
        if n == 0 {
            return 0.0;
        }
        let total = self.writes.mean().as_micros_f64() * self.writes.count() as f64
            + self.reads.mean().as_micros_f64() * self.reads.count() as f64;
        total / n as f64
    }
}

/// Runs one workload phase against a store, starting at `start`.
/// Returns the metrics; the store is flushed afterwards so subsequent
/// phases see settled state.
pub fn run_phase(store: &mut dyn KvStore, spec: &WorkloadSpec, start: SimTime) -> RunMetrics {
    spec.validate();
    let keygen = KeyGen::new(spec.key_bytes);
    let mut rng = DeterministicRng::seed_from(spec.seed);
    let zipf = match spec.pattern {
        AccessPattern::Zipfian { theta } => {
            let population = if matches!(spec.mix, OpMix::InsertOnly) {
                spec.ops
            } else {
                spec.key_space
            };
            Some(ZipfianDistribution::new(population.max(1), theta))
        }
        _ => None,
    };
    // Recency distribution for ReadLatest mixes (YCSB-D).
    let latest = matches!(spec.mix, OpMix::ReadLatest { .. })
        .then(|| ZipfianDistribution::new(spec.key_space.max(2), 0.99));
    let mut grown = spec.key_space;
    let mut runner = QueueRunner::starting_at(spec.queue_depth, start);
    let mut writes = LatencyHistogram::new();
    let mut reads = LatencyHistogram::new();
    let mut bandwidth = BandwidthSeries::new(SimDuration::from_millis(100));
    let mut not_found = 0u64;
    let cpu_before = store.host_cpu_busy();
    // One key buffer for the whole phase: `key_into` regenerates in
    // place, so the hot loop makes zero key allocations. The batch is
    // sized once for the most it plans (every key is `key_bytes` long),
    // so a phase allocates the same whatever its op count.
    let mut key_buf = Vec::with_capacity(spec.key_bytes);
    let batch_ops = BATCH_OPS.min(spec.ops as usize);
    let mut batch = OpBatch::with_capacity(batch_ops, batch_ops * spec.key_bytes);

    // Plan-then-execute in batches: planning drains the RNG in the
    // exact per-op order, execution spends only virtual time, so this
    // is op-for-op identical to submitting each op as it is planned.
    let mut planned = 0u64;
    while planned < spec.ops {
        batch.clear();
        let batch_end = (planned + BATCH_OPS as u64).min(spec.ops);
        for i in planned..batch_end {
            let idx = pick_index(spec, &mut rng, zipf.as_ref(), i);
            let vlen = match spec.value {
                ValueSize::Fixed(n) => n,
                ValueSize::Uniform { lo, hi } => rng.between(lo as u64, hi as u64) as u32,
                ValueSize::Discrete { choices } => {
                    let wsum: u64 = choices.iter().map(|&(_, w)| w as u64).sum();
                    let mut pick = rng.below(wsum.max(1));
                    let mut chosen = choices[0].0;
                    for &(s, w) in &choices {
                        if pick < w as u64 {
                            chosen = s;
                            break;
                        }
                        pick -= w as u64;
                    }
                    chosen
                }
            };
            let is_read = match spec.mix {
                OpMix::InsertOnly | OpMix::UpdateOnly => false,
                OpMix::ReadOnly => true,
                OpMix::Mixed { read_pct } | OpMix::ReadLatest { read_pct } => {
                    rng.below(100) < read_pct as u64
                }
            };
            // ReadLatest overrides key choice: inserts append, reads
            // skew to the most recent keys.
            let key_idx = if let Some(z) = &latest {
                if is_read {
                    let back = z.sample(&mut rng).min(grown - 1);
                    spec.insert_base + (grown - 1 - back)
                } else {
                    let fresh = grown;
                    grown += 1;
                    spec.insert_base + fresh
                }
            } else {
                idx
            };
            keygen.key_into(key_idx, &mut key_buf);
            batch.push(&key_buf, vlen, idx, is_read);
        }
        planned = batch_end;
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
    let settled = store.flush(finished);
    RunMetrics {
        name: spec.name.clone(),
        store: store.name(),
        writes,
        reads,
        bandwidth,
        started: start,
        finished: settled.max(finished),
        not_found,
        cpu_busy: store.host_cpu_busy() - cpu_before,
    }
}

fn pick_index(
    spec: &WorkloadSpec,
    rng: &mut DeterministicRng,
    zipf: Option<&ZipfianDistribution>,
    op: u64,
) -> u64 {
    if matches!(spec.mix, OpMix::InsertOnly) {
        // Insert phases honor the access pattern as an insertion ORDER:
        // sequential inserts ascend; random and Zipfian inserts walk a
        // bijective permutation of the population (every key inserted
        // exactly once, in scattered order, so later read phases always
        // hit). The Zipfian *skew* applies to update/read phases.
        return match spec.pattern {
            AccessPattern::Sequential | AccessPattern::SlidingWindow { .. } => {
                spec.insert_base + op
            }
            AccessPattern::Uniform | AccessPattern::Zipfian { .. } => {
                spec.insert_base + permute(op, spec.ops)
            }
        };
    }
    match spec.pattern {
        AccessPattern::Sequential => op % spec.key_space,
        AccessPattern::Uniform => rng.below(spec.key_space),
        AccessPattern::Zipfian { .. } => {
            // YCSB-style scramble: hot ranks scatter over the key space.
            let rank = zipf.expect("zipf built").sample(rng);
            kvssd_sim::rng::mix64(rank) % spec.key_space
        }
        AccessPattern::SlidingWindow { window } => {
            // Footnote 2: slide a window across the population.
            let span = spec.key_space.saturating_sub(window);
            let base = if spec.ops <= 1 {
                0
            } else {
                span * op / (spec.ops - 1).max(1)
            };
            base + rng.below(window)
        }
    }
}

/// A bijective pseudo-random permutation of `[0, n)` (cycle-walking
/// Feistel over the next power of two).
pub fn permute(i: u64, n: u64) -> u64 {
    assert!(i < n, "permute index out of range");
    if n <= 2 {
        return i;
    }
    let bits = 64 - (n - 1).leading_zeros();
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut x = i;
    loop {
        // Two Feistel rounds over (hi, lo) halves.
        let mut hi = x >> half;
        let mut lo = x & mask;
        for round in 0..2u64 {
            let f = kvssd_sim::rng::mix64(lo ^ (round.wrapping_mul(0x9E37_79B9))) & mask;
            let new_lo = hi ^ f;
            hi = lo;
            lo = new_lo & mask;
        }
        x = (hi << half) | lo;
        x &= (1u64 << (2 * half)) - 1;
        if x < n {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::KvSsdStore;
    use kvssd_core::{KvConfig, KvSsd};
    use kvssd_flash::{FlashTiming, Geometry};

    fn store() -> KvSsdStore {
        KvSsdStore::new(KvSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            KvConfig::small(),
        ))
    }

    fn insert_spec(n: u64) -> WorkloadSpec {
        WorkloadSpec::new("fill", n, n)
            .mix(OpMix::InsertOnly)
            .value(ValueSize::Fixed(512))
    }

    #[test]
    fn insert_phase_populates_store() {
        let mut s = store();
        let m = run_phase(&mut s, &insert_spec(200), SimTime::ZERO);
        assert_eq!(m.writes.count(), 200);
        assert_eq!(m.reads.count(), 0);
        assert_eq!(s.device().len(), 200);
        assert!(m.elapsed() > SimDuration::ZERO);
        assert!(m.mean_mbps() > 0.0);
    }

    #[test]
    fn read_phase_finds_all_keys() {
        let mut s = store();
        let m1 = run_phase(&mut s, &insert_spec(200), SimTime::ZERO);
        let spec = WorkloadSpec::new("read", 300, 200)
            .mix(OpMix::ReadOnly)
            .value(ValueSize::Fixed(512));
        let m2 = run_phase(&mut s, &spec, m1.finished);
        assert_eq!(m2.reads.count(), 300);
        assert_eq!(m2.not_found, 0, "all reads should hit");
        assert!(m2.started >= m1.finished);
    }

    #[test]
    fn mixed_phase_splits_ops() {
        let mut s = store();
        let m1 = run_phase(&mut s, &insert_spec(100), SimTime::ZERO);
        let spec = WorkloadSpec::new("mixed", 1_000, 100)
            .mix(OpMix::Mixed { read_pct: 70 })
            .value(ValueSize::Fixed(256));
        let m2 = run_phase(&mut s, &spec, m1.finished);
        let reads = m2.reads.count() as f64;
        assert!((reads / 1_000.0 - 0.7).abs() < 0.1, "read share {reads}");
    }

    #[test]
    fn deeper_queues_shorten_read_wall_time() {
        // QD benefits show on reads (die parallelism); sustained writes
        // are drain-limited by flash programs at any queue depth.
        let run_at = |qd: usize| {
            let mut s = store();
            let fill = run_phase(&mut s, &insert_spec(500), SimTime::ZERO);
            let spec = WorkloadSpec::new("read", 500, 500)
                .mix(OpMix::ReadOnly)
                .queue_depth(qd)
                .seed(3);
            run_phase(&mut s, &spec, fill.finished + SimDuration::from_secs(1)).elapsed()
        };
        let qd1 = run_at(1);
        let qd16 = run_at(16);
        assert!(
            qd16.as_nanos() * 2 < qd1.as_nanos(),
            "QD16 reads {qd16} should beat QD1 {qd1} by > 2x"
        );
    }

    #[test]
    fn same_seed_same_results() {
        let run_once = || {
            let mut s = store();
            let m1 = run_phase(&mut s, &insert_spec(100), SimTime::ZERO);
            let spec = WorkloadSpec::new("u", 200, 100)
                .pattern(AccessPattern::Zipfian { theta: 0.99 })
                .value(ValueSize::Fixed(128));
            let m = run_phase(&mut s, &spec, m1.finished);
            (m.finished, m.writes.mean())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn sliding_window_touches_whole_population() {
        let spec = WorkloadSpec::new("w", 1_000, 1_000)
            .pattern(AccessPattern::SlidingWindow { window: 50 });
        let mut rng = DeterministicRng::seed_from(1);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for i in 0..1_000 {
            let idx = pick_index(&spec, &mut rng, None, i);
            assert!(idx < 1_000);
            lo_seen |= idx < 100;
            hi_seen |= idx > 900;
        }
        assert!(lo_seen && hi_seen, "window must sweep the population");
    }

    #[test]
    fn zipfian_updates_favor_hot_keys() {
        let spec =
            WorkloadSpec::new("z", 10_000, 1_000).pattern(AccessPattern::Zipfian { theta: 0.99 });
        let zipf = ZipfianDistribution::new(1_000, 0.99);
        let mut rng = DeterministicRng::seed_from(5);
        let mut counts = vec![0u32; 1_000];
        for i in 0..10_000 {
            counts[pick_index(&spec, &mut rng, Some(&zipf), i) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 500, "hottest key only {max} hits");
    }
}

#[cfg(test)]
mod permute_tests {
    use super::*;
    use kvssd_sim::PrehashedSet;

    #[test]
    fn permute_is_a_bijection() {
        for n in [2u64, 7, 100, 1000, 4096] {
            let mut seen = PrehashedSet::default();
            for i in 0..n {
                let p = permute(i, n);
                assert!(p < n, "out of range for n={n}");
                assert!(seen.insert(p), "collision for n={n}");
            }
        }
    }

    #[test]
    fn permute_scatters_neighbors() {
        let n = 10_000u64;
        let mut adjacent = 0;
        for i in 0..n - 1 {
            if permute(i + 1, n) == permute(i, n) + 1 {
                adjacent += 1;
            }
        }
        assert!(adjacent < 50, "{adjacent} adjacent pairs survived");
    }

    #[test]
    fn random_order_insert_covers_population() {
        let spec = WorkloadSpec::new("fill", 500, 500)
            .mix(OpMix::InsertOnly)
            .pattern(AccessPattern::Uniform);
        let mut rng = DeterministicRng::seed_from(1);
        let mut seen = PrehashedSet::default();
        for i in 0..500 {
            seen.insert(pick_index(&spec, &mut rng, None, i));
        }
        assert_eq!(seen.len(), 500, "random-order insert must cover all keys");
    }
}

#[cfg(test)]
mod read_latest_tests {
    use super::*;
    use crate::adapters::KvSsdStore;
    use kvssd_core::{KvConfig, KvSsd};
    use kvssd_flash::{FlashTiming, Geometry};

    #[test]
    fn read_latest_grows_population_and_hits() {
        let mut s = KvSsdStore::new(KvSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            KvConfig::small(),
        ));
        let fill = WorkloadSpec::new("fill", 500, 500)
            .mix(OpMix::InsertOnly)
            .value(ValueSize::Fixed(128));
        let f = run_phase(&mut s, &fill, SimTime::ZERO);
        let d = WorkloadSpec::new("d", 2_000, 500)
            .mix(OpMix::ReadLatest { read_pct: 95 })
            .value(ValueSize::Fixed(128))
            .seed(19);
        let m = run_phase(&mut s, &d, f.finished);
        assert_eq!(m.not_found, 0, "recency reads must always hit");
        // ~5% inserts grew the store past the initial population.
        assert!(
            s.device().len() > 550,
            "population grew to {}",
            s.device().len()
        );
        let reads = m.reads.count() as f64 / 2_000.0;
        assert!((reads - 0.95).abs() < 0.03, "read share {reads}");
    }
}
