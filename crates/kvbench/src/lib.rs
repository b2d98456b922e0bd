//! KVbench replacement: workloads, store adapters, runner, and reports.
//!
//! The paper drives every experiment with OpenMPDK KVbench (a ForestDB-
//! benchmark derivative): configurable key/value sizes, sequential /
//! uniform-random / Zipfian access, insert/update/read phases, and
//! asynchronous submission at a queue depth. This crate is that harness
//! for the simulated systems:
//!
//! * [`WorkloadSpec`] — the workload description (pattern, mix, sizes,
//!   queue depth, seed), including the paper's footnote-2 *sliding
//!   window* pseudo-random pattern used in Fig. 6c,
//! * [`KvStore`] — the uniform store interface, with adapters for the
//!   KV-SSD ([`adapters::KvSsdStore`]), RocksDB-like
//!   ([`adapters::LsmKvStore`]), Aerospike-like
//!   ([`adapters::HashKvStore`]), and raw block direct I/O
//!   ([`adapters::RawBlockStore`]) backends,
//! * [`runner`] — queue-depth execution collecting latency histograms,
//!   bandwidth time series, and host-CPU utilization,
//! * [`report`] — aligned text tables for the bench output.

pub mod adapters;
pub mod keys;
pub mod report;
pub mod runner;
pub mod spec;
pub mod ycsb;

pub use adapters::{ClusterStore, HashKvStore, KvSsdStore, LsmKvStore, RawBlockStore};
pub use report::Table;
pub use runner::{run_phase, OpBatch, PhaseRecorder, PlannedOp, RunMetrics};
pub use spec::{AccessPattern, OpMix, ValueSize, WorkloadSpec};

use kvssd_sim::{QueueRunner, SimDuration, SimTime};

/// Space usage snapshot of a store (drives Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceUsage {
    /// Bytes of user data (keys + values) live in the store.
    pub user_bytes: u64,
    /// Bytes the store occupies on its device for that data.
    pub stored_bytes: u64,
}

impl SpaceUsage {
    /// Space amplification (stored / user).
    pub fn amplification(&self) -> f64 {
        self.stored_bytes as f64 / self.user_bytes.max(1) as f64
    }
}

/// The uniform key-value store interface the runner drives.
///
/// All operations are virtual-time: they take an issue time and return a
/// completion time. `read` reports whether the key was found (not-found
/// is a timed outcome, not an error).
pub trait KvStore {
    /// Human-readable system name for reports.
    fn name(&self) -> &'static str;

    /// Inserts or updates a pair; returns completion time.
    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime;

    /// Point lookup; returns (completion, found).
    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool);

    /// Deletes a key; returns completion time.
    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime;

    /// Flushes buffered state (end-of-phase barrier).
    fn flush(&mut self, now: SimTime) -> SimTime;

    /// Total host CPU consumed so far (the `dstat` number).
    fn host_cpu_busy(&self) -> SimDuration;

    /// Space usage snapshot.
    fn space(&self) -> SpaceUsage;

    /// Executes a planned batch through `runner`, recording each op's
    /// outcome. Must behave exactly like submitting each planned op in
    /// order via [`insert`](Self::insert)/[`read`](Self::read) — this
    /// default does precisely that. It is compiled once per implementing
    /// type, so those calls are static, not dispatched per op.
    fn run_ops(&mut self, runner: &mut QueueRunner, batch: &OpBatch, rec: &mut PhaseRecorder<'_>) {
        for (op, key) in batch.iter() {
            let mut found = true;
            let timing = runner.submit(|issue| {
                if op.is_read {
                    let (done, hit) = self.read(issue, key);
                    found = hit;
                    done
                } else {
                    self.insert(issue, key, op.value_len, op.tag)
                }
            });
            rec.record(op, key.len(), timing, found);
        }
    }
}
