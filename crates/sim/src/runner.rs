//! Queue-depth scheduling for asynchronous hosts.
//!
//! The paper issues I/O asynchronously at a configurable queue depth (QD):
//! up to QD requests are outstanding at once, and a new request is issued
//! the moment a slot frees. [`QueueRunner`] reproduces that host behavior
//! on the virtual clock: callers hand it a closure that performs one
//! operation starting at a given issue time and returns the operation's
//! completion time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Issues operations with at most `queue_depth` outstanding at a time.
///
/// # Example
///
/// ```
/// use kvssd_sim::{QueueRunner, Resource, SimDuration, SimTime};
///
/// // One resource serving 10 us ops, driven at QD 2: ops overlap in the
/// // queue but serialize at the server.
/// let mut server = Resource::new();
/// let mut runner = QueueRunner::new(2);
/// for _ in 0..4 {
///     runner.submit(|issue| server.acquire(issue, SimDuration::from_micros(10)).end);
/// }
/// let end = runner.drain();
/// assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(40));
/// ```
#[derive(Debug)]
pub struct QueueRunner {
    queue_depth: usize,
    now: SimTime,
    inflight: BinaryHeap<Reverse<SimTime>>,
    issued: u64,
    last_completion: SimTime,
}

/// The issue and completion instants of one submitted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// When the host issued the request.
    pub issued: SimTime,
    /// When the device completed it.
    pub completed: SimTime,
}

impl OpTiming {
    /// Host-observed latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.issued)
    }
}

impl QueueRunner {
    /// Creates a runner with the given queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn new(queue_depth: usize) -> Self {
        Self::starting_at(queue_depth, SimTime::ZERO)
    }

    /// Creates a runner whose first issue happens at `start` (used when a
    /// benchmark phase begins after an earlier fill phase).
    pub fn starting_at(queue_depth: usize, start: SimTime) -> Self {
        assert!(queue_depth > 0, "queue depth must be at least 1");
        QueueRunner {
            queue_depth,
            now: start,
            inflight: BinaryHeap::new(),
            issued: 0,
            last_completion: start,
        }
    }

    /// The configured queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The host's current notion of time (advances as slots are awaited).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of operations submitted so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Submits one operation.
    ///
    /// If all slots are occupied, the host first waits for the earliest
    /// outstanding completion. `op` receives the issue time and must
    /// return the completion time (which may not precede the issue time).
    pub fn submit<F>(&mut self, op: F) -> OpTiming
    where
        F: FnOnce(SimTime) -> SimTime,
    {
        if self.inflight.len() >= self.queue_depth {
            let Reverse(earliest) = self.inflight.pop().expect("inflight nonempty");
            self.now = self.now.max(earliest);
        }
        let issued = self.now;
        let completed = op(issued);
        assert!(
            completed >= issued,
            "operation completed before it was issued (issue {issued}, complete {completed})"
        );
        self.inflight.push(Reverse(completed));
        self.issued += 1;
        self.last_completion = self.last_completion.max(completed);
        OpTiming { issued, completed }
    }

    /// Waits for all outstanding operations; returns the time the last one
    /// completed. The runner can be reused afterwards.
    pub fn drain(&mut self) -> SimTime {
        while let Some(Reverse(t)) = self.inflight.pop() {
            self.now = self.now.max(t);
        }
        self.now = self.now.max(self.last_completion);
        self.now
    }
}

/// Fan-out/fan-in completion tracking across parallel lanes (shards,
/// devices, queues) that share one virtual clock.
///
/// A scatter operation records each lane's completion independently;
/// [`FanIn::barrier`] is the fan-in instant — the latest completion any
/// lane has reported. Unlike [`QueueRunner`] this imposes no admission
/// control; it only answers "when has *everything* landed?", which is
/// what a cluster flush or a rebalance wave needs.
///
/// # Example
///
/// ```
/// use kvssd_sim::{FanIn, SimDuration, SimTime};
///
/// let mut f = FanIn::new(3);
/// f.record(0, SimTime::ZERO + SimDuration::from_micros(10));
/// f.record(2, SimTime::ZERO + SimDuration::from_micros(25));
/// assert_eq!(f.barrier(), SimTime::ZERO + SimDuration::from_micros(25));
/// ```
#[derive(Debug, Clone)]
pub struct FanIn {
    lanes: Vec<SimTime>,
}

impl FanIn {
    /// Creates a fan-in over `lanes` lanes, all starting at t = 0.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "fan-in needs at least one lane");
        FanIn {
            lanes: vec![SimTime::ZERO; lanes],
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the fan-in currently has no lanes (possible after
    /// [`Self::reset_empty`], e.g. when every leg of an operation was
    /// lost in transit).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Records a completion on `lane` (keeps the latest per lane).
    pub fn record(&mut self, lane: usize, done: SimTime) {
        self.lanes[lane] = self.lanes[lane].max(done);
    }

    /// Resets to `lanes` lanes at t = 0, reusing the allocation — the
    /// per-operation quorum path resets one fan-in per op instead of
    /// building a new one.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn reset(&mut self, lanes: usize) {
        assert!(lanes > 0, "fan-in needs at least one lane");
        self.lanes.clear();
        self.lanes.resize(lanes, SimTime::ZERO);
    }

    /// Resets to zero lanes, reusing the allocation. Pair with
    /// [`Self::push`] when the lane count is not known up front —
    /// a transport can lose legs and a hedged read can add them, so
    /// the per-operation fan-in grows one recorded leg at a time.
    pub fn reset_empty(&mut self) {
        self.lanes.clear();
    }

    /// Appends a lane already carrying its completion; returns its
    /// index. The push-style counterpart of [`Self::record`] for
    /// operations whose leg count is discovered as legs land.
    pub fn push(&mut self, done: SimTime) -> usize {
        self.lanes.push(done);
        self.lanes.len() - 1
    }

    /// The quorum instant: when the `q`-th lane (1-based, by completion
    /// order) landed. `quorum(len())` is [`Self::barrier`]; `quorum(1)`
    /// is the fastest lane. Used by replicated clusters that
    /// acknowledge an operation once `q` of its replica legs completed
    /// while the stragglers keep running.
    ///
    /// `q` is clamped to `1..=len()`: hedged reads and lossy transports
    /// change an operation's leg count mid-op, so a quorum larger than
    /// the legs that actually landed degrades to the barrier over the
    /// recorded legs instead of panicking (and `quorum(0)` asks for no
    /// legs at all, which only a caller bug produces — hence the debug
    /// assertion).
    ///
    /// # Panics
    ///
    /// Panics if no lanes exist at all.
    pub fn quorum(&self, q: usize) -> SimTime {
        assert!(
            !self.lanes.is_empty(),
            "quorum over an empty fan-in (no legs recorded)"
        );
        debug_assert!(q >= 1, "a quorum of zero legs is meaningless");
        let q = q.clamp(1, self.lanes.len());
        // Lane counts are replica factors (single digits); an O(n²)
        // selection scan avoids allocating a scratch copy to sort. The
        // q-th smallest is the least lane value with at least q lanes
        // at or below it.
        let mut best: Option<SimTime> = None;
        for &t in &self.lanes {
            let at_or_below = self.lanes.iter().filter(|&&x| x <= t).count();
            if at_or_below >= q && best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
        best.expect("q <= len() guarantees a candidate")
    }

    /// Adds a lane (e.g. a shard joining); returns its index.
    pub fn add_lane(&mut self) -> usize {
        self.lanes.push(SimTime::ZERO);
        self.lanes.len() - 1
    }

    /// Removes a lane; later indices shift down by one.
    pub fn remove_lane(&mut self, lane: usize) {
        // The lane's last completion leaves with it: work still in
        // flight there delays no later `barrier` or quorum.
        let _lane_end = self.lanes.remove(lane);
    }

    /// The fan-in instant: the latest completion across all lanes.
    pub fn barrier(&self) -> SimTime {
        self.lanes.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn fan_in_tracks_lanes_and_barrier() {
        let mut f = FanIn::new(2);
        f.record(0, SimTime::ZERO + us(5));
        f.record(0, SimTime::ZERO + us(3)); // stale completion keeps max
        f.record(1, SimTime::ZERO + us(9));
        // Lane 0 kept its 5 µs: it is the earliest lane.
        assert_eq!(f.quorum(1), SimTime::ZERO + us(5));
        assert_eq!(f.barrier(), SimTime::ZERO + us(9));
    }

    #[test]
    fn quorum_is_kth_smallest_lane() {
        let mut f = FanIn::new(3);
        f.record(0, SimTime::ZERO + us(30));
        f.record(1, SimTime::ZERO + us(10));
        f.record(2, SimTime::ZERO + us(20));
        assert_eq!(f.quorum(1), SimTime::ZERO + us(10));
        assert_eq!(f.quorum(2), SimTime::ZERO + us(20));
        assert_eq!(f.quorum(3), f.barrier());
        // Duplicate lane times rank correctly.
        f.record(1, SimTime::ZERO + us(20));
        assert_eq!(f.quorum(1), SimTime::ZERO + us(20));
        assert_eq!(f.quorum(2), SimTime::ZERO + us(20));
    }

    #[test]
    fn quorum_beyond_lanes_clamps_to_barrier() {
        // Hedged reads and lossy transports change leg counts mid-op:
        // a quorum larger than the recorded legs must degrade to the
        // barrier, not panic (regression for the old out-of-range
        // assertion).
        let mut f = FanIn::new(3);
        f.record(0, SimTime::ZERO + us(30));
        f.record(1, SimTime::ZERO + us(10));
        f.record(2, SimTime::ZERO + us(20));
        assert_eq!(f.quorum(4), f.barrier());
        assert_eq!(f.quorum(usize::MAX), f.barrier());
    }

    #[test]
    #[should_panic(expected = "empty fan-in")]
    fn quorum_over_zero_lanes_panics() {
        let mut f = FanIn::new(1);
        f.reset_empty();
        let _ = f.quorum(1);
    }

    #[test]
    fn push_grows_a_fan_in_leg_by_leg() {
        let mut f = FanIn::new(1);
        f.reset_empty();
        assert!(f.is_empty());
        assert_eq!(f.push(SimTime::ZERO + us(7)), 0);
        assert_eq!(f.push(SimTime::ZERO + us(3)), 1);
        assert_eq!(f.quorum(1), SimTime::ZERO + us(3));
        assert_eq!(f.quorum(2), SimTime::ZERO + us(7));
        assert_eq!(f.barrier(), SimTime::ZERO + us(7));
    }

    #[test]
    fn reset_reuses_a_fan_in() {
        let mut f = FanIn::new(1);
        f.record(0, SimTime::ZERO + us(9));
        f.reset(3);
        assert_eq!(f.len(), 3);
        assert_eq!(f.barrier(), SimTime::ZERO, "reset must clear lanes");
        let lane = f.add_lane();
        assert_eq!(lane, 3);
        f.record(lane, SimTime::ZERO + us(20));
        assert_eq!(f.barrier(), SimTime::ZERO + us(20));
        f.remove_lane(lane);
        assert_eq!(f.len(), 3);
        assert_eq!(f.barrier(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn fan_in_rejects_zero_lanes() {
        let _ = FanIn::new(0);
    }

    #[test]
    fn qd1_fully_serializes() {
        let mut server = Resource::new();
        let mut r = QueueRunner::new(1);
        let mut latencies = Vec::new();
        for _ in 0..3 {
            let t = r.submit(|issue| server.acquire(issue, us(10)).end);
            latencies.push(t.latency());
        }
        assert!(latencies.iter().all(|&l| l == us(10)));
        assert_eq!(r.drain(), SimTime::ZERO + us(30));
    }

    #[test]
    fn higher_qd_exploits_parallel_servers() {
        // Four parallel dies, QD4 vs QD1: same 8 ops, 4x faster wall time.
        let run = |qd: usize| {
            let mut pool = crate::resource::ResourcePool::new(4);
            let mut r = QueueRunner::new(qd);
            for _ in 0..8 {
                r.submit(|issue| pool.acquire(issue, us(100)).end);
            }
            r.drain()
        };
        assert_eq!(run(1), SimTime::ZERO + us(800));
        assert_eq!(run(4), SimTime::ZERO + us(200));
    }

    #[test]
    fn qd_bounds_outstanding_latency_growth() {
        // Single server at QD4: steady-state latency is ~4x service time.
        let mut server = Resource::new();
        let mut r = QueueRunner::new(4);
        let mut last = SimDuration::ZERO;
        for _ in 0..32 {
            last = r
                .submit(|issue| server.acquire(issue, us(10)).end)
                .latency();
        }
        assert_eq!(last, us(40));
    }

    #[test]
    fn drain_is_idempotent_and_reusable() {
        let mut server = Resource::new();
        let mut r = QueueRunner::new(2);
        r.submit(|issue| server.acquire(issue, us(10)).end);
        let a = r.drain();
        let b = r.drain();
        assert_eq!(a, b);
        r.submit(|issue| server.acquire(issue, us(10)).end);
        assert!(r.drain() > a);
    }

    #[test]
    fn starting_at_offsets_phase() {
        let start = SimTime::ZERO + us(500);
        let mut server = Resource::new();
        let mut r = QueueRunner::starting_at(1, start);
        let t = r.submit(|issue| server.acquire(issue, us(10)).end);
        assert_eq!(t.issued, start);
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_qd_rejected() {
        let _ = QueueRunner::new(0);
    }

    #[test]
    #[should_panic(expected = "completed before")]
    fn causality_enforced() {
        let mut r = QueueRunner::starting_at(1, SimTime::from_nanos(100));
        r.submit(|_| SimTime::ZERO);
    }
}
