//! Cluster shape and placement parameters.

use kvssd_nvme::SqConfig;
use kvssd_sim::SimDuration;

use crate::transport::ReadFanout;

/// How a [`crate::KvCluster`] routes, queues, and measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Initial shard (device) count.
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring. More vnodes flatten the
    /// per-shard key-share spread at the cost of a bigger ring.
    pub vnodes_per_shard: usize,
    /// Seed for ring point placement (deterministic from the workload
    /// seed so runs are reproducible end to end).
    pub seed: u64,
    /// Per-shard NVMe submission queue shape. The pass-through default
    /// keeps a 1-shard cluster bit-identical to a bare device.
    pub sq: SqConfig,
    /// Copies of every key (R), placed on the first R distinct shards
    /// walking the ring from the key's hash. 1 = no replication (the
    /// original single-copy behavior, bit-identical to the seed).
    pub replication_factor: usize,
    /// Replica completions a retrieve waits for before acknowledging.
    pub read_quorum: usize,
    /// Replica completions a store/delete waits for before
    /// acknowledging.
    pub write_quorum: usize,
    /// How retrieves fan out over the replica set. The default fans to
    /// every replica (free on the in-process transport); lean fanout
    /// sends `read_quorum` legs and optionally hedges a spare.
    pub read_fanout: ReadFanout,
    /// Per-leg acknowledgement deadline. `None` (the default, the seed
    /// behavior) trusts the transport: a lost leg simply never counts.
    /// With a timeout set, a leg whose acknowledgement has not arrived
    /// by `send + op_timeout` is re-issued up to [`Self::max_retries`]
    /// times with seeded exponential backoff before it counts as
    /// failed toward the quorum. On a fault-free transport no leg ever
    /// misses its deadline, so tables stay byte-identical.
    pub op_timeout: Option<SimDuration>,
    /// Re-issues allowed per leg once [`Self::op_timeout`] is set (the
    /// leg runs at most `1 + max_retries` attempts). Ignored without a
    /// timeout.
    pub max_retries: u32,
    /// Hedged/tied quorum writes: when the write quorum has not
    /// assembled by `now + hedge`, one spare (tied) leg re-sends the
    /// mutation to the slowest unacked replica, skipping
    /// known-partitioned links. The replica dedupes by op id, so the
    /// losing copy's device work is cancelled rather than silently
    /// done twice. `None` disables the spare leg.
    pub write_hedge: Option<SimDuration>,
}

impl ClusterConfig {
    /// `shards` devices with placement seed `seed`, everything else
    /// default.
    pub fn new(shards: usize, seed: u64) -> Self {
        ClusterConfig {
            shards,
            seed,
            ..Self::default()
        }
    }

    /// Sets R-way replication with majority quorums (`⌊R/2⌋ + 1` for
    /// both reads and writes — the smallest overlap-guaranteeing
    /// choice). Override with [`Self::quorums`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn replication(mut self, r: usize) -> Self {
        assert!(r >= 1, "replication factor must be at least 1");
        self.replication_factor = r;
        self.read_quorum = r / 2 + 1;
        self.write_quorum = r / 2 + 1;
        self
    }

    /// Sets explicit read/write quorum sizes (each clamped nowhere —
    /// the cluster constructor validates `1 ≤ quorum ≤ R`).
    pub fn quorums(mut self, read: usize, write: usize) -> Self {
        self.read_quorum = read;
        self.write_quorum = write;
        self
    }

    /// Switches retrieves to lean fanout: legs to the first
    /// `read_quorum` replicas only, plus (with `hedge` set) one spare
    /// leg to the next replica when the quorum acknowledgement would
    /// land later than the hedge delay. On a paid transport this trades
    /// a small extra-read budget for straggler-proof tail latency;
    /// writes always fan to every replica for durability.
    pub fn lean_reads(mut self, hedge: Option<SimDuration>) -> Self {
        self.read_fanout = ReadFanout::Lean { hedge };
        self
    }

    /// Arms per-leg deadlines: a leg unacknowledged `timeout` after its
    /// send is re-issued up to `max_retries` times (seeded exponential
    /// backoff) before counting as failed. The retry RNG stream derives
    /// from the cluster seed, so runs stay reproducible; with a
    /// fault-free transport nothing ever times out and behavior is
    /// byte-identical to the un-deadlined cluster.
    pub fn deadlines(mut self, timeout: SimDuration, max_retries: u32) -> Self {
        self.op_timeout = Some(timeout);
        self.max_retries = max_retries;
        self
    }

    /// Arms hedged/tied quorum writes: a spare leg re-sends the
    /// mutation to the slowest unacked, un-partitioned replica when the
    /// write quorum has not assembled by the hedge delay. See
    /// [`Self::write_hedge`].
    pub fn hedged_writes(mut self, hedge: Option<SimDuration>) -> Self {
        self.write_hedge = hedge;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 1,
            vnodes_per_shard: 64,
            seed: 0,
            sq: SqConfig::passthrough(),
            replication_factor: 1,
            read_quorum: 1,
            write_quorum: 1,
            read_fanout: ReadFanout::All,
            op_timeout: None,
            max_retries: 0,
            write_hedge: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_copy() {
        let c = ClusterConfig::default();
        assert_eq!(c.replication_factor, 1);
        assert_eq!(c.read_quorum, 1);
        assert_eq!(c.write_quorum, 1);
        assert_eq!(c.read_fanout, ReadFanout::All);
        assert_eq!(c.op_timeout, None);
        assert_eq!(c.max_retries, 0);
        assert_eq!(c.write_hedge, None);
    }

    #[test]
    fn deadlines_and_hedged_writes_arm_the_fields() {
        let t = SimDuration::from_micros(500);
        let h = SimDuration::from_micros(200);
        let c = ClusterConfig::new(4, 7)
            .replication(3)
            .deadlines(t, 2)
            .hedged_writes(Some(h));
        assert_eq!(c.op_timeout, Some(t));
        assert_eq!(c.max_retries, 2);
        assert_eq!(c.write_hedge, Some(h));
        let c = c.hedged_writes(None);
        assert_eq!(c.write_hedge, None);
    }

    #[test]
    fn lean_reads_sets_fanout_and_hedge() {
        let hedge = SimDuration::from_micros(250);
        let c = ClusterConfig::new(4, 7).replication(3).lean_reads(None);
        assert_eq!(c.read_fanout, ReadFanout::Lean { hedge: None });
        let c = c.lean_reads(Some(hedge));
        assert_eq!(c.read_fanout, ReadFanout::Lean { hedge: Some(hedge) });
    }

    #[test]
    fn replication_sets_majority_quorums() {
        let c = ClusterConfig::new(4, 7).replication(3);
        assert_eq!(c.replication_factor, 3);
        assert_eq!(c.read_quorum, 2);
        assert_eq!(c.write_quorum, 2);
        let c = c.quorums(1, 3);
        assert_eq!(c.read_quorum, 1);
        assert_eq!(c.write_quorum, 3);
    }
}
