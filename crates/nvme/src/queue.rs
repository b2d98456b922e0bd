//! Per-shard NVMe submission queues with doorbell batching.
//!
//! A cluster front-end keeps one submission queue (SQ) per device shard.
//! The SQ bounds how many commands that shard may have outstanding
//! (`depth`, the per-shard queue depth), and models **doorbell
//! batching**: instead of one MMIO doorbell write per command, the host
//! rings once per `batch` admitted commands, so only the command that
//! opens a batch pays the doorbell cost. With the defaults
//! (`doorbell = 0`, `batch = 1`, a deep queue) the SQ is an exact
//! pass-through and a 1-shard cluster reproduces the single-device
//! timings bit for bit.
//!
//! # Example
//!
//! ```
//! use kvssd_nvme::{SqConfig, SubmissionQueue};
//! use kvssd_sim::{Resource, SimDuration, SimTime};
//!
//! let mut server = Resource::new();
//! let mut sq = SubmissionQueue::new(SqConfig { depth: 2, ..SqConfig::default() });
//! for _ in 0..4 {
//!     sq.submit(SimTime::ZERO, |issue| {
//!         server.acquire(issue, SimDuration::from_micros(10)).end
//!     });
//! }
//! // Depth 2 over a serial 10 us server: last completion at 40 us.
//! assert_eq!(sq.drain(), SimTime::ZERO + SimDuration::from_micros(40));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kvssd_sim::runner::OpTiming;
use kvssd_sim::{SimDuration, SimTime};

/// Submission-queue shape and doorbell cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqConfig {
    /// Maximum commands outstanding on this queue.
    pub depth: usize,
    /// Commands admitted per doorbell ring (1 = ring every command).
    pub batch: usize,
    /// Host cost of one doorbell MMIO write.
    pub doorbell: SimDuration,
}

impl SqConfig {
    /// Pass-through defaults: deep queue, no batching, free doorbell.
    /// A cluster built on these adds zero latency over a bare device.
    pub fn passthrough() -> Self {
        SqConfig {
            depth: 256,
            batch: 1,
            doorbell: SimDuration::ZERO,
        }
    }

    /// A batching configuration: ring the doorbell once per `batch`
    /// commands, paying `doorbell` only at batch boundaries.
    pub fn batched(depth: usize, batch: usize, doorbell: SimDuration) -> Self {
        SqConfig {
            depth,
            batch,
            doorbell,
        }
    }
}

impl Default for SqConfig {
    fn default() -> Self {
        Self::passthrough()
    }
}

/// Submission-queue counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqStats {
    /// Commands submitted through this queue.
    pub submitted: u64,
    /// Doorbell rings (≤ submitted when batching).
    pub doorbells: u64,
    /// Submissions that found the queue full and had to wait.
    pub full_stalls: u64,
    /// Total virtual time submissions spent waiting for a free slot.
    pub stall_time: SimDuration,
}

/// One shard's NVMe submission queue (see module docs).
#[derive(Debug)]
pub struct SubmissionQueue {
    config: SqConfig,
    inflight: BinaryHeap<Reverse<SimTime>>,
    batch_fill: usize,
    stats: SqStats,
    last_completion: SimTime,
}

impl SubmissionQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `batch` is zero.
    pub fn new(config: SqConfig) -> Self {
        assert!(config.depth > 0, "SQ depth must be at least 1");
        assert!(config.batch > 0, "doorbell batch must be at least 1");
        SubmissionQueue {
            config,
            inflight: BinaryHeap::new(),
            batch_fill: 0,
            stats: SqStats::default(),
            last_completion: SimTime::ZERO,
        }
    }

    /// The queue configuration.
    pub fn config(&self) -> &SqConfig {
        &self.config
    }

    /// Queue counters.
    pub fn stats(&self) -> &SqStats {
        &self.stats
    }

    /// Commands currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Submits one command at host time `now`.
    ///
    /// If the queue is full, the host first waits (in virtual time) for
    /// the earliest outstanding completion on *this* queue. The command
    /// that opens a doorbell batch additionally pays the doorbell cost
    /// before issue. `op` receives the issue time and returns the
    /// completion time.
    pub fn submit<F>(&mut self, now: SimTime, op: F) -> OpTiming
    where
        F: FnOnce(SimTime) -> SimTime,
    {
        let mut ready = now;
        if self.inflight.len() >= self.config.depth {
            let Reverse(earliest) = self.inflight.pop().expect("inflight nonempty");
            if earliest > ready {
                self.stats.full_stalls += 1;
                self.stats.stall_time += earliest.since(ready);
                ready = earliest;
            }
        }
        if self.batch_fill == 0 {
            // Opening a new batch: ring the doorbell.
            self.stats.doorbells += 1;
            ready += self.config.doorbell;
        }
        self.batch_fill = (self.batch_fill + 1) % self.config.batch;
        let issued = ready;
        let completed = op(issued);
        assert!(
            completed >= issued,
            "command completed before it was issued (issue {issued}, complete {completed})"
        );
        self.inflight.push(Reverse(completed));
        self.stats.submitted += 1;
        self.last_completion = self.last_completion.max(completed);
        OpTiming { issued, completed }
    }

    /// Waits for everything outstanding; returns when the last command
    /// completed. The queue is reusable afterwards.
    pub fn drain(&mut self) -> SimTime {
        self.inflight.clear();
        self.batch_fill = 0;
        self.last_completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::Resource;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn passthrough_adds_no_latency() {
        let mut server = Resource::new();
        let mut sq = SubmissionQueue::new(SqConfig::passthrough());
        let t = sq.submit(SimTime::ZERO, |issue| server.acquire(issue, us(10)).end);
        assert_eq!(t.issued, SimTime::ZERO);
        assert_eq!(t.completed, SimTime::ZERO + us(10));
    }

    #[test]
    fn depth_bounds_outstanding() {
        let mut server = Resource::new();
        let mut sq = SubmissionQueue::new(SqConfig {
            depth: 2,
            ..SqConfig::passthrough()
        });
        let mut last = OpTiming {
            issued: SimTime::ZERO,
            completed: SimTime::ZERO,
        };
        for _ in 0..4 {
            last = sq.submit(SimTime::ZERO, |issue| server.acquire(issue, us(10)).end);
        }
        // Steady-state latency at depth 2 over a serial server: 2 slots.
        assert_eq!(last.latency(), us(20));
        assert!(sq.stats().full_stalls > 0);
        assert!(sq.stats().stall_time > SimDuration::ZERO);
    }

    #[test]
    fn doorbell_paid_once_per_batch() {
        let mut server = Resource::new();
        let cfg = SqConfig::batched(8, 4, us(1));
        let mut sq = SubmissionQueue::new(cfg);
        let mut issues = Vec::new();
        for _ in 0..8 {
            issues.push(
                sq.submit(SimTime::ZERO, |issue| server.acquire(issue, us(10)).end)
                    .issued,
            );
        }
        // Commands 0 and 4 open batches and pay the doorbell; the rest
        // issue at the caller's time.
        assert_eq!(sq.stats().doorbells, 2);
        assert_eq!(issues[0], SimTime::ZERO + us(1));
        assert_eq!(issues[1], SimTime::ZERO);
        assert_eq!(issues[4], SimTime::ZERO + us(1));
    }

    #[test]
    fn drain_reports_last_completion_and_resets() {
        let mut server = Resource::new();
        let mut sq = SubmissionQueue::new(SqConfig::passthrough());
        for _ in 0..3 {
            sq.submit(SimTime::ZERO, |issue| server.acquire(issue, us(10)).end);
        }
        assert_eq!(sq.drain(), SimTime::ZERO + us(30));
        assert_eq!(sq.outstanding(), 0);
        assert_eq!(sq.drain(), SimTime::ZERO + us(30));
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = SubmissionQueue::new(SqConfig {
            depth: 0,
            ..SqConfig::passthrough()
        });
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        let _ = SubmissionQueue::new(SqConfig {
            batch: 0,
            ..SqConfig::passthrough()
        });
    }
}
