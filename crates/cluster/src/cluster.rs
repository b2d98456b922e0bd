//! The shard router: N KV-SSDs behind one consistent-hash front-end.
//!
//! Every device keeps its own resource timelines, so operations routed
//! to different shards overlap in virtual time exactly as independent
//! hardware would; the cluster adds only the (configurable) submission
//! queue in front of each device. Flush and rebalance scatter to all
//! shards and fan back in on a [`FanIn`] barrier.
//!
//! With `replication_factor` R > 1 every key lives on the first R
//! distinct shards walking the ring from its hash
//! ([`HashRing::replica_set`]). Store/retrieve/delete fan out to the
//! whole replica set through each owner's submission queue and
//! acknowledge at the configured quorum: the operation's completion
//! time is when the `write_quorum`-th (resp. `read_quorum`-th) fastest
//! replica leg landed, while the straggler legs still occupy their
//! devices and are tracked by the per-shard completion lanes. Membership
//! changes repair placement: keys whose replica set lost a member are
//! re-replicated from a surviving copy, and replicas that fell out of a
//! set are demoted (dropped) — symmetric between `add_shard` and
//! `remove_shard`.
//!
//! Every replica leg crosses a [`Transport`] twice — request out,
//! completion back. The default [`InProcess`] transport is free and
//! lossless (byte-identical to the pre-transport cluster); a
//! fabric-backed transport charges link latency and can lose messages,
//! in which case operations that fail to assemble their quorum return
//! [`KvError::QuorumUnavailable`] carrying exactly which replica lanes
//! acknowledged. Flush stays control-plane work off the fabric, but
//! placement repair (copy and demotion legs) pays the wire like any
//! other replica traffic. With lean read fanout
//! ([`crate::transport::ReadFanout::Lean`]) retrieves send only
//! `read_quorum` legs and can hedge one spare leg when the quorum
//! acknowledgement runs past the hedge delay.
//!
//! The transport contract is deadline-aware
//! ([`crate::ClusterConfig::deadlines`]): a leg whose acknowledgement
//! has not arrived by `send + op_timeout` is re-issued up to
//! `max_retries` times with exponential backoff drawn from a seeded
//! per-cluster RNG stream, and only then counts as failed toward the
//! quorum. Hedged quorum *writes*
//! ([`crate::ClusterConfig::hedged_writes`]) symmetrize the read
//! hedge: when the write quorum has not assembled by `now + hedge`, a
//! spare (tied) leg re-sends the mutation to the first unacked
//! replica, skipping known-partitioned links. Replicas dedupe
//! re-delivered mutations by op id — the losing copy's device work is
//! cancelled and the recorded completion re-acknowledged — so retries,
//! wire duplicates, and tied legs are all idempotent.
//!
//! There is exactly one implementation of each of these mechanisms.
//! Every leg — client store / retrieve / delete and repair read / copy
//! / drop alike — is one call of the leg engine `KvCluster::run_leg`
//! (send → execute the delivered copies → acknowledge → deadline →
//! seeded backoff → retry), which is the only code that touches the
//! [`Transport`]; what a leg executes and accounts is passed in as
//! closures, and the two things the attempt loop itself does
//! differently per kind are the two bits of `LegPolicy` (does every
//! delivered copy execute, and does any acknowledgement — however late
//! — end the leg). Device commands go through one `submit_on`,
//! mutations through one op-id dedupe (`run_mutation`), and store,
//! retrieve and delete share one first-wave → hedge → spare → quorum
//! driver (`quorum_op`).

use kvssd_core::hash::{key_fingerprint, key_hash};
use kvssd_core::KeyBuf;
use kvssd_core::{KvError, KvSsd, KvSsdStats, Lookup, Payload, SpaceReport};
use kvssd_nvme::{SqStats, SubmissionQueue};
use kvssd_sim::{
    mix64, BandwidthSeries, DeterministicRng, FanIn, LatencyHistogram, OpTiming, PrehashedMap,
    SimDuration, SimTime,
};

use crate::config::ClusterConfig;
use crate::ring::{HashRing, RingDelta};
use crate::transport::{
    InProcess, ReadFanout, Transport, TransportStats, REQUEST_CAPSULE_BYTES, RESPONSE_CAPSULE_BYTES,
};

/// Live-key registry of one shard, keyed like the device's global index
/// by `(key_hash, key_fingerprint)`, so distinct keys that share a
/// 64-bit hash stay distinct.
///
/// The per-op store/delete path updates this on every leg that adds or
/// removes a key, so it must stay O(1); a `BTreeSet<Box<[u8]>>` here
/// cost ~900 ns per probe at a million resident keys (every tree descent
/// is a chain of cache misses). Rebalance is the only consumer that
/// needs byte order, and it is rare — it sorts a snapshot instead
/// ([`KvCluster::repair_placement`]), reproducing the tree's enumeration
/// order exactly.
type KeyRegistry = PrehashedMap<(u64, u64), KeyBuf>;

/// Window of each shard's bandwidth series.
const BANDWIDTH_WINDOW: SimDuration = SimDuration::from_millis(10);

/// One device shard: the KV-SSD, its submission queue, its metrics, and
/// the key registry the rebalancer enumerates.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    device: KvSsd,
    sq: SubmissionQueue,
    writes: LatencyHistogram,
    reads: LatencyHistogram,
    bandwidth: BandwidthSeries,
    /// Live keys; rebalance sorts a snapshot for deterministic order.
    keys: KeyRegistry,
    /// Last mutation executed on this replica, for idempotent
    /// re-delivery: `(op id, device completion, key existed before)`.
    /// The router is a synchronous closed loop — all deliveries of one
    /// op land before the next mutation starts — so one record per
    /// shard suffices to dedupe retries, wire duplicates, and tied
    /// hedge legs.
    last_exec: Option<(u64, SimTime, bool)>,
}

impl Shard {
    fn new(id: usize, device: KvSsd, config: &ClusterConfig) -> Self {
        Shard {
            id,
            device,
            sq: SubmissionQueue::new(config.sq),
            writes: LatencyHistogram::new(),
            reads: LatencyHistogram::new(),
            bandwidth: BandwidthSeries::new(BANDWIDTH_WINDOW),
            keys: KeyRegistry::default(),
            last_exec: None,
        }
    }

    /// The shard's stable id (survives add/remove of other shards).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device behind this shard.
    pub fn device(&self) -> &KvSsd {
        &self.device
    }

    /// This shard's submission-queue counters.
    pub fn sq_stats(&self) -> &SqStats {
        self.sq.stats()
    }

    /// This shard's bandwidth series (stores + hit retrieves).
    pub fn bandwidth(&self) -> &BandwidthSeries {
        &self.bandwidth
    }

    /// Live keys on this shard.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// True when this shard holds a replica of `key`.
    pub fn holds(&self, key: &[u8]) -> bool {
        self.keys
            .contains_key(&(key_hash(key), key_fingerprint(key)))
    }
}

/// Summed device counters across all shards.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-device counters, summed field by field.
    pub devices: KvSsdStats,
    /// Submission-queue stalls across shards.
    pub sq_full_stalls: u64,
    /// Total virtual time spent waiting on full submission queues.
    pub sq_stall_time: SimDuration,
    /// Keys moved by rebalances so far.
    pub rebalanced_keys: u64,
    /// Bytes moved by rebalances so far.
    pub rebalanced_bytes: u64,
    /// Router↔shard transport counters (all zero on the in-process
    /// transport).
    pub transport: TransportStats,
    /// Spare read legs launched by hedged lean reads.
    pub hedged_spares: u64,
    /// Leg re-issues after a missed per-op deadline.
    pub leg_retries: u64,
    /// Operations whose quorum only assembled thanks to a retried or
    /// hedged leg (the first attempts alone would have failed).
    pub retry_rescued_ops: u64,
    /// Spare (tied) legs launched by hedged quorum writes.
    pub hedged_write_spares: u64,
    /// Re-delivered mutations deduped at a replica (device work
    /// cancelled, recorded completion re-acknowledged).
    pub dup_suppressed: u64,
}

/// What one shard add/remove cost.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceReport {
    /// Exact ring ownership change.
    pub ring: RingDelta,
    /// Keys that gained at least one new replica (at R = 1: keys
    /// migrated).
    pub moved_keys: u64,
    /// User bytes (key + value) actually copied between shards.
    pub moved_bytes: u64,
    /// Replica copy legs executed during repair; differs from
    /// `moved_keys` when one key re-replicates to several new holders.
    pub copied_replicas: u64,
    /// Replica copies demoted (deleted off shards that left the key's
    /// replica set). Copies on a shard being decommissioned leave with
    /// the device and are not counted.
    pub dropped_replicas: u64,
    /// Repair copy legs that never executed on their destination (the
    /// transport swallowed every attempt): the key is left
    /// under-replicated until the next repair. A key whose repair
    /// *read* failed on every surviving holder counts one failed copy
    /// per missing replica.
    pub failed_copies: u64,
    /// Demotion legs that never executed (the stale copy survives on
    /// its old holder; registry and device stay in step, so a later
    /// repair can retry the drop).
    pub failed_drops: u64,
    /// When the rebalance started.
    pub started: SimTime,
    /// Fan-in instant: when the last surviving-shard leg landed.
    pub completed: SimTime,
}

/// What distinguishes one kind of leg from another inside
/// [`KvCluster::run_leg`]'s attempt loop — everything else a leg does
/// differently lives in its closures.
#[derive(Debug, Clone, Copy)]
struct LegPolicy {
    /// `true`: every delivered copy of the request (the original and a
    /// wire duplicate) executes on the replica — mutations dedupe the
    /// second copy by op id, client reads simply run twice. `false`:
    /// one device pass per delivered attempt (repair reads: a
    /// duplicate of an idempotent read just re-acks).
    every_copy_executes: bool,
    /// `true`: the leg stops at the first attempt that produced any
    /// acknowledgement, however late (repair copies and drops: the
    /// router only needs to know the mutation landed). `false`: it
    /// stops once an acknowledgement arrived inside the current
    /// attempt's deadline, and otherwise retries — a late ack still
    /// counts when it finally arrives (client legs, repair reads).
    stop_at_any_ack: bool,
}

impl LegPolicy {
    /// Client store / retrieve / delete legs.
    const CLIENT: Self = LegPolicy {
        every_copy_executes: true,
        stop_at_any_ack: false,
    };
    /// Repair read legs.
    const REPAIR_READ: Self = LegPolicy {
        every_copy_executes: false,
        stop_at_any_ack: false,
    };
    /// Repair copy and demotion legs.
    const REPAIR_WRITE: Self = LegPolicy {
        every_copy_executes: true,
        stop_at_any_ack: true,
    };
}

/// What one leg achieved (see [`KvCluster::run_leg`]).
#[derive(Debug, Clone, Copy)]
struct LegOutcome {
    /// The leg's earliest acknowledgement at the router and the attempt
    /// that produced it (0 = first try); `None` when no attempt acked.
    ack: Option<(SimTime, u32)>,
    /// The latest completion any delivered copy was given on the
    /// replica; `None` when no request ever arrived.
    executed: Option<SimTime>,
}

impl LegOutcome {
    /// When a repair mutation is known durable: once it executed and —
    /// if the router heard back — once the acknowledgement arrived (the
    /// instant it may safely act on it). An executed-but-unacked
    /// mutation still counts: the device holds it.
    fn durable(&self) -> Option<SimTime> {
        self.executed
            .map(|done| self.ack.map_or(done, |(a, _)| done.max(a)))
    }
}

/// The sharded multi-device store (see module and crate docs).
#[derive(Debug)]
pub struct KvCluster {
    config: ClusterConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    /// Per-shard op-completion lanes, aligned with `shards` by index.
    completions: FanIn,
    /// Reusable per-operation fan-in over the current op's replica legs
    /// (reset each op, so the quorum path allocates nothing steady
    /// state).
    op_fan: FanIn,
    /// Reusable replica-set scratch (shard ids) for the same reason.
    replica_scratch: Vec<usize>,
    /// Router↔shard message transport; every replica leg crosses it
    /// twice (request out, completion back).
    transport: Box<dyn Transport>,
    /// The router's own counters (hedges, retries, rescues, dedupes,
    /// rebalance volume); [`Self::stats`] fills in the device,
    /// submission-queue and transport sums.
    counters: ClusterStats,
    /// Monotonic mutation id; replicas dedupe re-deliveries by it.
    op_seq: u64,
    /// Backoff stream for deadline retries, seeded from the cluster
    /// seed. Consumed only when a leg actually retries, so fault-free
    /// runs never touch it and stay byte-identical.
    retry_rng: DeterministicRng,
    next_shard_id: usize,
    /// Bytes moved by stores and hit retrieves, all shards together.
    agg_bytes: u64,
}

impl KvCluster {
    /// Builds a cluster; `make_device(shard_id)` supplies each device.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero, the replication factor is
    /// outside `1..=64`, or a quorum size is outside
    /// `1..=replication_factor`.
    pub fn new(config: ClusterConfig, make_device: impl FnMut(usize) -> KvSsd) -> Self {
        Self::with_transport(config, Box::new(InProcess), make_device)
    }

    /// Builds a cluster whose replica legs cross `transport` — the
    /// fabric-backed variant of [`Self::new`]. The transport must
    /// already expose one attachment point per shard (a
    /// [`kvssd_fabric::Fabric`] built with `links = config.shards`);
    /// membership changes keep the two aligned automatically.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::new`] does on a malformed config.
    pub fn with_transport(
        config: ClusterConfig,
        transport: Box<dyn Transport>,
        mut make_device: impl FnMut(usize) -> KvSsd,
    ) -> Self {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        assert!(
            config.replication_factor >= 1,
            "replication factor must be at least 1"
        );
        // Replica lanes are tracked as bits of a `u64` mask
        // (`QuorumUnavailable::acked_replicas`, the spare-lane search).
        assert!(
            config.replication_factor <= 64,
            "replication factor {} exceeds the 64 replica lanes an op can track",
            config.replication_factor
        );
        for (name, q) in [("write", config.write_quorum), ("read", config.read_quorum)] {
            assert!(
                q >= 1 && q <= config.replication_factor,
                "{name} quorum {q} outside 1..=R (R = {})",
                config.replication_factor
            );
        }
        let ids: Vec<usize> = (0..config.shards).collect();
        let ring = HashRing::new(config.seed, config.vnodes_per_shard, &ids);
        let shards = ids
            .iter()
            .map(|&id| Shard::new(id, make_device(id), &config))
            .collect();
        KvCluster {
            completions: FanIn::new(config.shards),
            op_fan: FanIn::new(1),
            replica_scratch: Vec::with_capacity(config.replication_factor),
            transport,
            counters: ClusterStats::default(),
            op_seq: 0,
            // Domain-tagged so the retry stream never collides with the
            // fabric's per-channel streams derived from the same seed.
            retry_rng: DeterministicRng::seed_from(mix64(config.seed ^ mix64(0x52_4554_5259))),
            next_shard_id: config.shards,
            agg_bytes: 0,
            config,
            ring,
            shards,
        }
    }

    /// A small-geometry cluster with R-way replication (majority
    /// quorums) for tests and doctests.
    pub fn for_test_replicated(shards: usize, r: usize) -> Self {
        Self::new(ClusterConfig::new(shards, 42).replication(r), |_| {
            KvSsd::new(
                kvssd_flash::Geometry::small(),
                kvssd_flash::FlashTiming::pm983_like(),
                kvssd_core::KvConfig::small(),
            )
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The placement ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards (index order, not id order).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total live pairs across all devices. With replication each copy
    /// counts: R healthy replicas of one key contribute R.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.device.len()).sum()
    }

    /// True when no shard holds data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a ring shard id to its slot in `self.shards`. The ring
    /// only ever names live members, so a miss is a membership-tracking
    /// bug, surfaced as a typed error rather than an abort.
    fn index_of(&self, id: usize) -> Result<usize, KvError> {
        self.shards
            .iter()
            .position(|s| s.id == id)
            .ok_or(KvError::Internal {
                what: "ring named a shard id not in the cluster",
            })
    }

    /// The shard index a key's primary replica routes to.
    pub fn route(&self, key: &[u8]) -> Result<usize, KvError> {
        self.index_of(self.ring.shard_for(key_hash(key)))
    }

    /// The shard indices holding replicas of `key`, in replica-set
    /// order (the primary first). Holds `min(R, shard_count)` entries.
    pub fn replica_routes(&self, key: &[u8]) -> Result<Vec<usize>, KvError> {
        self.ring
            .replica_set(key_hash(key), self.config.replication_factor)
            .into_iter()
            .map(|id| self.index_of(id))
            .collect()
    }

    /// Fills `replica_scratch` with the key's replica shard *indices*
    /// and empties `op_fan` (legs push their acknowledgement times as
    /// they land, so lost legs simply never appear). Returns the
    /// replica count and the key's hash, so the per-leg registry
    /// updates reuse it instead of rehashing the key once per replica.
    /// Every replica's device is told the key is coming, so the legs'
    /// index probes overlap their cache misses instead of paying them
    /// one after another.
    fn begin_replicated_op(&mut self, key: &[u8]) -> Result<(usize, u64), KvError> {
        let h = key_hash(key);
        let mut ids = std::mem::take(&mut self.replica_scratch);
        self.ring
            .replica_set_into(h, self.config.replication_factor, &mut ids);
        for id in ids.iter_mut() {
            match self.index_of(*id) {
                Ok(idx) => {
                    if let Some(shard) = self.shards.get(idx) {
                        shard.device.prefetch_key(key, h);
                    }
                    *id = idx;
                }
                Err(e) => {
                    // Hand the scratch buffer back before bailing.
                    self.replica_scratch = ids;
                    return Err(e);
                }
            }
        }
        let k = ids.len();
        self.replica_scratch = ids;
        self.op_fan.reset_empty();
        Ok((k, h))
    }

    /// The next mutation id; replicas dedupe re-deliveries by it.
    fn next_op_id(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq
    }

    /// Seeded exponential backoff added before retry `attempt`
    /// (0-based): uniform in `[0, timeout << min(attempt, 16)]`. Drawn
    /// only when a retry actually fires, so fault-free runs never
    /// advance the stream.
    fn retry_backoff(&mut self, attempt: u32, timeout: SimDuration) -> SimDuration {
        let span = timeout.as_nanos().saturating_mul(1u64 << attempt.min(16));
        SimDuration::from_nanos(self.retry_rng.below(span.saturating_add(1)))
    }

    /// Runs one device command on shard `idx` through its submission
    /// queue, the request having arrived at `arrival`. `f` gets the
    /// device and the issue instant and returns the device completion
    /// plus whatever the caller wants back.
    fn submit_on<T>(
        &mut self,
        idx: usize,
        arrival: SimTime,
        f: impl FnOnce(&mut KvSsd, SimTime) -> Result<(SimTime, T), KvError>,
    ) -> Result<(OpTiming, T), KvError> {
        let Shard { device, sq, .. } = &mut self.shards[idx];
        let mut res: Option<Result<T, KvError>> = None;
        let timing = sq.submit(arrival, |issue| match f(device, issue) {
            Ok((done, out)) => {
                res = Some(Ok(out));
                done
            }
            Err(e) => {
                res = Some(Err(e));
                issue
            }
        });
        let out = res.ok_or(KvError::Internal {
            what: "submit ran the leg synchronously",
        })??;
        Ok((timing, out))
    }

    /// Stores `key` on replica `idx`'s device and mirrors it into the
    /// shard's registry (client store legs and repair copies alike).
    fn exec_store(
        &mut self,
        idx: usize,
        arrival: SimTime,
        h: u64,
        key: &[u8],
        value: &Payload,
    ) -> Result<(OpTiming, bool), KvError> {
        let (timing, ()) = self.submit_on(idx, arrival, |device, issue| {
            Ok((device.store(issue, key, value.clone())?, ()))
        })?;
        // The registry mirrors the device's key set leg for leg, so only
        // a key the device did not hold yet is new to the registry.
        let shard = &mut self.shards[idx];
        let existed = shard.device.last_store_was_update();
        if !existed {
            let id = (h, key_fingerprint(key));
            shard.keys.insert(id, KeyBuf::new(key));
        }
        Ok((timing, existed))
    }

    /// [`Self::exec_store`]'s delete counterpart (client delete legs and
    /// repair demotions alike).
    fn exec_delete(
        &mut self,
        idx: usize,
        arrival: SimTime,
        h: u64,
        key: &[u8],
    ) -> Result<(OpTiming, bool), KvError> {
        let (timing, existed) =
            self.submit_on(idx, arrival, |device, issue| device.delete(issue, key))?;
        if existed {
            let id = (h, key_fingerprint(key));
            self.shards[idx].keys.remove(&id);
        }
        Ok((timing, existed))
    }

    /// Looks `key` up on replica `idx`'s device. Reads are
    /// side-effect-free, so re-deliveries simply execute again.
    fn exec_read(
        &mut self,
        idx: usize,
        arrival: SimTime,
        key: &[u8],
    ) -> Result<(OpTiming, Option<Payload>), KvError> {
        let (timing, value) = self.submit_on(idx, arrival, |device, issue| {
            let l = device.retrieve(issue, key)?;
            Ok((l.at, l.value))
        })?;
        self.completions.record(idx, timing.completed);
        Ok((timing, value))
    }

    /// The leg engine: one leg against replica `idx` under the
    /// deadline/retry budget. Each attempt crosses the transport out
    /// (`req_bytes`), runs `exec` on the replica for the delivered
    /// copies — `exec` returns the completion to acknowledge, the
    /// response's wire bytes, and a reply — and crosses back; `on_ack`
    /// receives the reply of every response that reached the router.
    /// An attempt that does not satisfy the policy's stop rule by
    /// `send + op_timeout` is re-issued with seeded backoff, up to
    /// `max_retries` times; with no deadline armed a lost leg stays
    /// lost after its single attempt. Client and repair legs differ
    /// only in `policy` and in what their closures account.
    fn run_leg<T>(
        &mut self,
        issue_at: SimTime,
        idx: usize,
        req_bytes: u64,
        policy: LegPolicy,
        mut exec: impl FnMut(&mut Self, SimTime) -> Result<(SimTime, u64, T), KvError>,
        mut on_ack: impl FnMut(T),
    ) -> Result<LegOutcome, KvError> {
        let attempts = match self.config.op_timeout {
            Some(_) => 1 + self.config.max_retries,
            None => 1,
        };
        let mut out = LegOutcome {
            ack: None,
            executed: None,
        };
        let mut send_at = issue_at;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.leg_retries += 1;
            }
            let d = self.transport.request(send_at, idx, req_bytes);
            let copies = if policy.every_copy_executes {
                [d.delivered, d.duplicate]
            } else {
                [d.first_arrival(), None]
            };
            for arrival in copies.into_iter().flatten() {
                let (completed, resp_bytes, reply) = exec(self, arrival)?;
                out.executed = Some(out.executed.map_or(completed, |e| e.max(completed)));
                let acked = self.transport.response(completed, idx, resp_bytes);
                if let Some(a) = acked.first_arrival() {
                    // A late ack still counts; the earliest one wins.
                    if out.ack.is_none_or(|(best, _)| a < best) {
                        out.ack = Some((a, attempt));
                    }
                    on_ack(reply);
                }
            }
            let Some(timeout) = self.config.op_timeout else {
                break; // no deadline armed: a lost leg stays lost
            };
            if out
                .ack
                .is_some_and(|(a, _)| policy.stop_at_any_ack || a <= send_at + timeout)
            {
                break;
            }
            if attempt + 1 < attempts {
                send_at = send_at + timeout + self.retry_backoff(attempt, timeout);
            }
        }
        Ok(out)
    }

    /// One mutation leg ([`Self::run_leg`] plus replica-side
    /// idempotency): each delivered copy executes exactly once per op
    /// id. A re-delivery of a mutation this replica already ran (a
    /// retry after a lost ack, a wire duplicate, a tied hedge leg) is
    /// deduped: the device work is cancelled and the recorded
    /// completion re-acknowledged once the re-delivery is in hand.
    /// Otherwise `apply` runs the device command and reports its timing
    /// and whether the key existed before. Returns the leg's outcome
    /// and whether the key existed on the replica (known at execution,
    /// acknowledged or not).
    fn run_mutation(
        &mut self,
        issue_at: SimTime,
        idx: usize,
        op_id: u64,
        req_bytes: u64,
        policy: LegPolicy,
        mut apply: impl FnMut(&mut Self, SimTime) -> Result<(OpTiming, bool), KvError>,
    ) -> Result<(LegOutcome, bool), KvError> {
        let mut existed_any = false;
        let exec = |c: &mut Self, arrival: SimTime| {
            let (completed, existed) = match c.shards[idx].last_exec {
                Some((last, completed, existed)) if last == op_id => {
                    c.counters.dup_suppressed += 1;
                    (completed.max(arrival), existed)
                }
                _ => {
                    let (timing, existed) = apply(c, arrival)?;
                    c.shards[idx].last_exec = Some((op_id, timing.completed, existed));
                    c.completions.record(idx, timing.completed);
                    (timing.completed, existed)
                }
            };
            existed_any |= existed;
            Ok((completed, RESPONSE_CAPSULE_BYTES, ()))
        };
        let out = self.run_leg(issue_at, idx, req_bytes, policy, exec, |()| ())?;
        Ok((out, existed_any))
    }

    /// The quorum driver shared by store, retrieve and delete. The
    /// first `first_wave` replicas of the current op's set (in
    /// `replica_scratch`) each get a leg issued at `now`; `leg` runs
    /// one (through [`Self::run_leg`]). With `hedge` armed, a quorum
    /// still missing or late at `now + hedge` launches exactly one
    /// spare leg there, to
    /// the first replica with no acknowledgement whose link is not
    /// known-partitioned (a spare down a cut link could only be
    /// wasted): writes, which already tried every lane, tie any
    /// un-acked one — a slow-but-acked quorum would only re-pay the
    /// same slow link — while lean reads take the first untried lane.
    ///
    /// Returns the quorum acknowledgement instant, or
    /// [`KvError::QuorumUnavailable`] — carrying the acked lane mask
    /// and the mutation flag — when fewer than `quorum` legs made it
    /// back. An op whose quorum only assembled thanks to retried or
    /// hedged legs counts as rescued.
    fn quorum_op(
        &mut self,
        now: SimTime,
        first_wave: usize,
        quorum: usize,
        hedge: Option<SimDuration>,
        write: bool,
        mut leg: impl FnMut(&mut Self, SimTime, usize) -> Result<LegOutcome, KvError>,
    ) -> Result<SimTime, KvError> {
        let lane_bit = |lane: usize| 1u64 << (lane as u32 & 63);
        let mut acked_lanes = 0u64;
        let mut first_try_acks = 0usize;
        for lane in 0..first_wave {
            let idx = self.replica_scratch[lane];
            if let Some((acked, attempt)) = leg(self, now, idx)?.ack {
                self.op_fan.push(acked);
                acked_lanes |= lane_bit(lane);
                if attempt == 0 {
                    first_try_acks += 1;
                }
            }
        }
        if let Some(hedge) = hedge {
            let late = self.op_fan.len() < quorum || self.op_fan.quorum(quorum) > now + hedge;
            let spare_from = if write { 0 } else { first_wave };
            let spare = || {
                (spare_from..self.replica_scratch.len()).find(|&lane| {
                    acked_lanes & lane_bit(lane) == 0
                        && !self.transport.is_partitioned(self.replica_scratch[lane])
                })
            };
            if let Some(lane) = late.then(spare).flatten() {
                if write {
                    self.counters.hedged_write_spares += 1;
                } else {
                    self.counters.hedged_spares += 1;
                }
                let idx = self.replica_scratch[lane];
                if let Some((acked, _)) = leg(self, now + hedge, idx)?.ack {
                    self.op_fan.push(acked);
                    acked_lanes |= lane_bit(lane);
                }
            }
        }
        let acked = self.op_fan.len();
        if acked < quorum {
            return Err(KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas: acked_lanes,
                write,
            });
        }
        if first_try_acks < quorum {
            self.counters.retry_rescued_ops += 1;
        }
        Ok(self.op_fan.quorum(quorum))
    }

    /// Stores one pair on every replica shard; completes at the write
    /// quorum.
    ///
    /// Each replica leg crosses the transport to its owner, goes
    /// through the owner's submission queue, and crosses back; the
    /// returned time is when the `write_quorum`-th fastest
    /// acknowledgement arrived at the router. Straggler legs still
    /// occupy their devices and land in the completion tracker. Legs
    /// unacked by their deadline retry per
    /// [`crate::ClusterConfig::deadlines`]; with
    /// [`crate::ClusterConfig::hedged_writes`] armed, a quorum still
    /// missing or late at `now + hedge` launches one spare (tied) leg
    /// to the first unacked replica, deduped by op id at the
    /// replica. On a device error the error is returned immediately;
    /// if fewer than `write_quorum` acknowledgements arrive after all
    /// that, [`KvError::QuorumUnavailable`] reports exactly which
    /// lanes acked — in both cases legs already executed stay applied
    /// (the repair pass of the next membership change re-converges
    /// placement).
    pub fn store(&mut self, now: SimTime, key: &[u8], value: Payload) -> Result<SimTime, KvError> {
        let (k, h) = self.begin_replicated_op(key)?;
        let op_id = self.next_op_id();
        let wq = self.config.write_quorum.min(k);
        let bytes = key.len() as u64 + value.len();
        let req_bytes = REQUEST_CAPSULE_BYTES + bytes;
        self.quorum_op(now, k, wq, self.config.write_hedge, true, |c, at, idx| {
            let apply = |c: &mut Self, arrival| {
                let (timing, existed) = c.exec_store(idx, arrival, h, key, &value)?;
                let shard = &mut c.shards[idx];
                shard.writes.record(timing.latency());
                shard.bandwidth.record(timing.completed, bytes);
                c.agg_bytes += bytes;
                Ok((timing, existed))
            };
            let (out, _) = c.run_mutation(at, idx, op_id, req_bytes, LegPolicy::CLIENT, apply)?;
            Ok(out)
        })
    }

    /// Looks a key up on its replica set; completes at the read quorum
    /// (the returned `Lookup::at` is when the `read_quorum`-th fastest
    /// acknowledgement arrived). With the default
    /// [`ReadFanout::All`] every replica gets a leg; with
    /// [`ReadFanout::Lean`] only the first `read_quorum` replicas do,
    /// plus — when hedging is configured and the quorum ack would land
    /// after `now + hedge` — one spare leg to the next unused replica
    /// whose link is not known-partitioned, issued at `now + hedge`.
    /// The value comes from the first acked replica in leg order that
    /// holds one; if fewer than `read_quorum` legs acknowledge,
    /// [`KvError::QuorumUnavailable`] is returned.
    pub fn retrieve(&mut self, now: SimTime, key: &[u8]) -> Result<Lookup, KvError> {
        let (k, _) = self.begin_replicated_op(key)?;
        let rq = self.config.read_quorum.min(k);
        let (legs, hedge) = match self.config.read_fanout {
            ReadFanout::All => (k, None),
            ReadFanout::Lean { hedge } => (rq, hedge),
        };
        let mut value: Option<Payload> = None;
        let at = self.quorum_op(now, legs, rq, hedge, false, |c, at, idx| {
            let exec = |c: &mut Self, arrival| {
                let (timing, found) = c.exec_read(idx, arrival, key)?;
                let shard = &mut c.shards[idx];
                shard.reads.record(timing.latency());
                let mut resp_bytes = RESPONSE_CAPSULE_BYTES;
                if let Some(v) = &found {
                    let vbytes = key.len() as u64 + v.len();
                    shard.bandwidth.record(timing.completed, vbytes);
                    c.agg_bytes += vbytes;
                    resp_bytes += vbytes;
                }
                Ok((timing.completed, resp_bytes, found))
            };
            // A lost completion never reaches the router, so only acked
            // replies can supply the value: the first acked hit wins.
            let on_ack = |found: Option<Payload>| {
                if value.is_none() {
                    value = found;
                }
            };
            let req_bytes = REQUEST_CAPSULE_BYTES + key.len() as u64;
            c.run_leg(at, idx, req_bytes, LegPolicy::CLIENT, exec, on_ack)
        })?;
        Ok(Lookup { at, value })
    }

    /// Deletes a key on every replica shard; completes at the write
    /// quorum, with the same deadline/retry/hedge machinery as
    /// [`Self::store`]. Returns whether any replica held it (known at
    /// execution, acknowledged or not).
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<(SimTime, bool), KvError> {
        let (k, h) = self.begin_replicated_op(key)?;
        let op_id = self.next_op_id();
        let wq = self.config.write_quorum.min(k);
        let mut existed_any = false;
        let req_bytes = REQUEST_CAPSULE_BYTES + key.len() as u64;
        let at = self.quorum_op(now, k, wq, self.config.write_hedge, true, |c, at, idx| {
            let apply = |c: &mut Self, arrival| c.exec_delete(idx, arrival, h, key);
            let (out, existed) =
                c.run_mutation(at, idx, op_id, req_bytes, LegPolicy::CLIENT, apply)?;
            existed_any |= existed;
            Ok(out)
        })?;
        Ok((at, existed_any))
    }

    /// Flushes every shard; returns the fan-in barrier (when the last
    /// shard finished).
    pub fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        let mut fan = FanIn::new(self.shards.len());
        for (lane, shard) in self.shards.iter_mut().enumerate() {
            let done = shard.device.flush(now)?;
            fan.record(lane, done);
            self.completions.record(lane, done);
        }
        Ok(fan.barrier())
    }

    /// When every completion recorded so far has landed on every shard.
    pub fn quiesce_time(&self) -> SimTime {
        self.completions.barrier()
    }

    /// Adds a shard and repairs placement: keys the ring now hands the
    /// new shard are copied onto it, and replicas demoted out of their
    /// key's set are dropped. Returns the new shard's id and the
    /// rebalance accounting.
    pub fn add_shard(
        &mut self,
        now: SimTime,
        device: KvSsd,
    ) -> Result<(usize, RebalanceReport), KvError> {
        let id = self.next_shard_id;
        self.next_shard_id += 1;
        let ring_delta = self.ring.add_shard(id);
        self.shards.push(Shard::new(id, device, &self.config));
        self.completions.add_lane();
        self.transport.on_add_shard();
        let report = self.repair_placement(now, ring_delta, None)?;
        Ok((id, report))
    }

    /// Removes a shard: every key whose replica set lost the member is
    /// re-replicated onto its new holder from a surviving copy. The
    /// departing device is decommissioned wholesale — its copies leave
    /// with it instead of being deleted one timed op at a time — so the
    /// report's `completed` barrier covers exactly the legs that
    /// survivors executed, and `quiesce_time()` always covers it.
    ///
    /// # Panics
    ///
    /// Panics when asked to remove the last shard of a cluster.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Internal`] for an unknown shard id or a
    /// broken repair invariant.
    pub fn remove_shard(&mut self, now: SimTime, id: usize) -> Result<RebalanceReport, KvError> {
        assert!(
            self.shards.len() > 1,
            "cannot remove the last shard of a cluster"
        );
        let idx = self.index_of(id)?;
        let ring_delta = self.ring.remove_shard(id);
        let report = self.repair_placement(now, ring_delta, Some(id))?;
        debug_assert_eq!(self.shards[idx].keys.len(), 0);
        self.shards.remove(idx);
        self.completions.remove_lane(idx);
        self.transport.on_remove_shard(idx);
        Ok(report)
    }

    /// One repair read over the fabric: fetch `key`'s payload off
    /// holder `src` under the deadline/retry budget. Returns the
    /// payload and the instant the router holds it, or `Ok(None)` when
    /// the link swallowed every attempt (the caller fails over to
    /// another holder).
    fn repair_read_leg(
        &mut self,
        now: SimTime,
        src: usize,
        key: &[u8],
    ) -> Result<Option<(Payload, SimTime)>, KvError> {
        let mut payload: Option<Payload> = None;
        let exec = |c: &mut Self, arrival| {
            let (timing, found) = c.exec_read(src, arrival, key)?;
            let found = found.ok_or(KvError::Internal {
                what: "registry said the repaired key was live",
            })?;
            let resp_bytes = RESPONSE_CAPSULE_BYTES + key.len() as u64 + found.len();
            Ok((timing.completed, resp_bytes, found))
        };
        // Nothing mutates the holder between attempts, so every acked
        // reply carries the same payload.
        let on_ack = |found| payload = Some(found);
        let req_bytes = REQUEST_CAPSULE_BYTES + key.len() as u64;
        let out = self.run_leg(now, src, req_bytes, LegPolicy::REPAIR_READ, exec, on_ack)?;
        Ok(payload.zip(out.ack.map(|(at, _)| at)))
    }

    /// One repair mutation over the fabric under a fresh op id: a copy
    /// (`apply` runs [`Self::exec_store`] on `idx`) or a demotion (it
    /// runs [`Self::exec_delete`]). Returns the instant the mutation is
    /// known durable when it executed (registry updated; an
    /// executed-but-unacked mutation still counts — the device holds
    /// it), or `Ok(None)` when no attempt's request ever arrived.
    fn repair_write_leg(
        &mut self,
        send_from: SimTime,
        idx: usize,
        req_bytes: u64,
        apply: impl FnMut(&mut Self, SimTime) -> Result<(OpTiming, bool), KvError>,
    ) -> Result<Option<SimTime>, KvError> {
        let op_id = self.next_op_id();
        let policy = LegPolicy::REPAIR_WRITE;
        let (out, _) = self.run_mutation(send_from, idx, op_id, req_bytes, policy, apply)?;
        Ok(out.durable())
    }

    /// Re-converges every key onto its current replica set after a
    /// membership change. For each key (deterministic order: the union
    /// of all shard registries, BTreeSet byte order):
    ///
    /// 1. missing replicas are copied from one surviving holder — a
    ///    fabric read off the preferred source at `now` (failing over
    ///    across holders when a link swallows every attempt), then a
    ///    fabric store per new holder once the router has the payload;
    /// 2. holders no longer in the replica set are demoted — a fabric
    ///    delete issued once the key's new copies have landed (so a
    ///    replica is never dropped before its replacement is durable;
    ///    when any copy failed, the demotion is skipped and counted as
    ///    a failed drop instead), except on a shard being
    ///    decommissioned (`decommission`), whose copies leave with the
    ///    device.
    ///
    /// Repair traffic pays the fabric like any data-path leg — request
    /// out, completion back, deadline retries included — so a
    /// partitioned link makes repair legs *fail* (counted in the
    /// report) instead of silently teleporting data. Every
    /// surviving-shard leg lands in the completion tracker; the
    /// report's `completed` is the fan-in barrier over those legs. At
    /// R = 1 on the in-process transport this reduces to the classic
    /// read → store → delete key migration, byte for byte.
    fn repair_placement(
        &mut self,
        now: SimTime,
        ring_delta: RingDelta,
        decommission: Option<usize>,
    ) -> Result<RebalanceReport, KvError> {
        let mut moved_keys = 0u64;
        let mut moved_bytes = 0u64;
        let mut copied_replicas = 0u64;
        let mut dropped_replicas = 0u64;
        let mut failed_copies = 0u64;
        let mut failed_drops = 0u64;
        let mut barrier = now;

        // Snapshot every registered key in ascending byte order — the
        // same sequence the former per-shard BTreeSet union produced, at
        // a one-time sort cost instead of a per-op tree insert.
        let mut all_keys: Vec<Box<[u8]>> = Vec::new();
        for s in &self.shards {
            all_keys.extend(s.keys.values().map(|k| Box::from(k.as_slice())));
        }
        all_keys.sort_unstable();
        all_keys.dedup();

        let mut desired_ids: Vec<usize> = Vec::new();
        let mut desired: Vec<usize> = Vec::new();
        let mut holders: Vec<usize> = Vec::new();
        let mut missing: Vec<usize> = Vec::new();
        let mut sources: Vec<usize> = Vec::new();

        for key in &all_keys {
            let key: &[u8] = key;
            let h = key_hash(key);
            let key_id = (h, key_fingerprint(key));
            self.ring
                .replica_set_into(h, self.config.replication_factor, &mut desired_ids);
            desired.clear();
            for &id in &desired_ids {
                desired.push(self.index_of(id)?);
            }
            holders.clear();
            holders.extend(
                (0..self.shards.len()).filter(|&i| self.shards[i].keys.contains_key(&key_id)),
            );
            missing.clear();
            missing.extend(desired.iter().copied().filter(|d| !holders.contains(d)));
            let demote_any = holders.iter().any(|s| !desired.contains(s));
            if missing.is_empty() && !demote_any {
                continue;
            }

            // Copy legs: one fabric read off the preferred source (a
            // holder staying in the set first, then any other holder —
            // failing over when a link swallows every attempt), then a
            // fabric store per missing replica once the router has the
            // payload.
            let mut write_barrier = now;
            let mut copies_ok = true;
            if !missing.is_empty() {
                sources.clear();
                sources.extend(holders.iter().copied().filter(|s| desired.contains(s)));
                sources.extend(holders.iter().copied().filter(|s| !desired.contains(s)));
                debug_assert!(
                    !sources.is_empty(),
                    "a registered key has at least one holder"
                );
                let mut read: Option<(Payload, SimTime)> = None;
                for &src in &sources {
                    read = self.repair_read_leg(now, src, key)?;
                    if read.is_some() {
                        break;
                    }
                }
                match read {
                    Some((payload, have_at)) => {
                        let mut copied = 0u64;
                        let req_bytes = REQUEST_CAPSULE_BYTES + key.len() as u64 + payload.len();
                        for &dst in &missing {
                            let store = |c: &mut Self, at| c.exec_store(dst, at, h, key, &payload);
                            match self.repair_write_leg(have_at, dst, req_bytes, store)? {
                                Some(done) => {
                                    write_barrier = write_barrier.max(done);
                                    moved_bytes += key.len() as u64 + payload.len();
                                    copied_replicas += 1;
                                    copied += 1;
                                }
                                None => failed_copies += 1,
                            }
                        }
                        if copied > 0 {
                            moved_keys += 1;
                            barrier = barrier.max(write_barrier);
                        }
                        copies_ok = copied == missing.len() as u64;
                    }
                    None => {
                        // No surviving link produced the payload: every
                        // missing replica goes unfilled until the next
                        // repair.
                        failed_copies += missing.len() as u64;
                        copies_ok = false;
                    }
                }
            }

            // Demotion legs: never before the new copies are durable.
            for holder in 0..self.shards.len() {
                if !holders.contains(&holder) || desired.contains(&holder) {
                    continue;
                }
                if decommission == Some(self.shards[holder].id) {
                    // The decommissioned device leaves wholesale; its
                    // registry entries go with it (any unfilled replica
                    // is already counted as a failed copy).
                    self.shards[holder].keys.remove(&key_id);
                    continue;
                }
                if !copies_ok {
                    // A replacement copy is missing: keep the stale
                    // replica rather than shrink redundancy further.
                    failed_drops += 1;
                    continue;
                }
                let req_bytes = REQUEST_CAPSULE_BYTES + key.len() as u64;
                let delete = |c: &mut Self, at| c.exec_delete(holder, at, h, key);
                match self.repair_write_leg(write_barrier, holder, req_bytes, delete)? {
                    Some(done) => {
                        barrier = barrier.max(done);
                        dropped_replicas += 1;
                    }
                    None => failed_drops += 1,
                }
            }
        }

        self.counters.rebalanced_keys += moved_keys;
        self.counters.rebalanced_bytes += moved_bytes;
        Ok(RebalanceReport {
            ring: ring_delta,
            moved_keys,
            moved_bytes,
            copied_replicas,
            dropped_replicas,
            failed_copies,
            failed_drops,
            started: now,
            completed: barrier,
        })
    }

    /// The router's counters plus the device, submission-queue and
    /// transport sums.
    pub fn stats(&self) -> ClusterStats {
        let mut st = self.counters.clone();
        let d = &mut st.devices;
        for s in &self.shards {
            let t = s.device.stats();
            d.stores += t.stores;
            d.retrieves += t.retrieves;
            d.deletes += t.deletes;
            d.exists += t.exists;
            d.not_found += t.not_found;
            d.bloom_negatives += t.bloom_negatives;
            d.split_stores += t.split_stores;
            d.write_through += t.write_through;
            d.gc_copied_segments += t.gc_copied_segments;
            d.gc_erases += t.gc_erases;
            d.foreground_gc_events += t.foreground_gc_events;
            d.stall_time += t.stall_time;
            d.write_buffer_hits += t.write_buffer_hits;
            d.replaced_after_failure += t.replaced_after_failure;
            d.merges += t.merges;
            st.sq_full_stalls += s.sq.stats().full_stalls;
            st.sq_stall_time += s.sq.stats().stall_time;
        }
        st.transport = self.transport.stats();
        st
    }

    /// The underlying fabric, when this cluster runs on one — the hook
    /// experiments use to reshape or partition links mid-run. `None` on
    /// the in-process transport.
    pub fn fabric_mut(&mut self) -> Option<&mut kvssd_fabric::Fabric> {
        self.transport.fabric_mut()
    }

    /// Summed space report across devices.
    pub fn space(&self) -> SpaceReport {
        let mut out = SpaceReport::default();
        for s in &self.shards {
            let r = s.device.space();
            out.user_bytes += r.user_bytes;
            out.allocated_bytes += r.allocated_bytes;
            out.capacity_bytes += r.capacity_bytes;
            out.kvp_count += r.kvp_count;
            out.max_kvps += r.max_kvps;
            out.waste_bytes += r.waste_bytes;
        }
        out
    }

    /// A byte-stable summary table: integer counters only, so two
    /// same-seed runs produce identical bytes (the determinism test's
    /// contract).
    pub fn report(&self) -> String {
        let mut lines = Vec::new();
        lines.push(format!(
            "cluster shards={} vnodes={} seed={}",
            self.shards.len(),
            self.config.vnodes_per_shard,
            self.config.seed
        ));
        // Only rendered when replication is on, so R = 1 reports stay
        // byte-identical to the pre-replication layout.
        if self.config.replication_factor > 1 {
            lines.push(format!(
                "replication r={} wq={} rq={}",
                self.config.replication_factor, self.config.write_quorum, self.config.read_quorum
            ));
        }
        lines.push(
            "shard  stores  retrieves  deletes  fg_gc  gc_copies  sq_stalls  kvps  bw_bytes"
                .to_string(),
        );
        let (mut w, mut r) = (LatencyHistogram::new(), LatencyHistogram::new());
        for s in &self.shards {
            let t = s.device.stats();
            lines.push(format!(
                "{:>5}  {:>6}  {:>9}  {:>7}  {:>5}  {:>9}  {:>9}  {:>4}  {:>8}",
                s.id,
                t.stores,
                t.retrieves,
                t.deletes,
                t.foreground_gc_events,
                t.gc_copied_segments,
                s.sq.stats().full_stalls,
                s.device.len(),
                s.bandwidth.total_bytes(),
            ));
            w.merge_from(&s.writes);
            r.merge_from(&s.reads);
        }
        let pct = |h: &LatencyHistogram, p: f64| {
            if h.is_empty() {
                0
            } else {
                h.percentile(p).as_nanos()
            }
        };
        for (name, h) in [("write", &w), ("read", &r)] {
            lines.push(format!(
                "{name}_ns p50={} p99={} p999={}",
                pct(h, 50.0),
                pct(h, 99.0),
                pct(h, 99.9)
            ));
        }
        let c = &self.counters;
        lines.push(format!(
            "agg_bytes={} rebalanced_keys={} rebalanced_bytes={}",
            self.agg_bytes, c.rebalanced_keys, c.rebalanced_bytes
        ));
        // Only rendered when the transport actually counted something,
        // so in-process reports stay byte-identical to the pre-fabric
        // layout.
        let ts = self.transport.stats();
        if ts != TransportStats::default() || c.hedged_spares > 0 {
            lines.push(format!(
                "transport req={} resp={} dropped={} partition_drops={} dup={} stalls={} \
                 bytes={} hedged_spares={}",
                ts.requests,
                ts.responses,
                ts.dropped,
                ts.partition_drops,
                ts.duplicated,
                ts.queue_stalls,
                ts.bytes,
                c.hedged_spares
            ));
        }
        // Likewise gated: rendered only once a deadline, hedge, or
        // dedupe actually fired, so pre-deadline reports keep their
        // exact byte layout.
        if c.leg_retries > 0
            || c.retry_rescued_ops > 0
            || c.hedged_write_spares > 0
            || c.dup_suppressed > 0
        {
            lines.push(format!(
                "deadlines retries={} rescued={} write_spares={} dup_suppressed={}",
                c.leg_retries, c.retry_rescued_ops, c.hedged_write_spares, c.dup_suppressed
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: u32, tag: u64) -> Payload {
        Payload::synthetic(len, tag)
    }

    fn fill(cluster: &mut KvCluster, n: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for i in 0..n {
            t = cluster
                .store(t, format!("key{i:08}").as_bytes(), payload(512, i))
                .unwrap();
        }
        t
    }

    #[test]
    fn round_trips_across_shards() {
        let mut c = KvCluster::for_test_replicated(4, 1);
        let t = fill(&mut c, 100);
        assert_eq!(c.len(), 100);
        for i in 0..100u64 {
            let l = c.retrieve(t, format!("key{i:08}").as_bytes()).unwrap();
            assert!(l.value.is_some(), "lost key{i:08}");
        }
        // Keys actually spread over all four shards.
        for s in c.shards() {
            assert!(s.key_count() > 0, "shard {} got nothing", s.id());
        }
    }

    #[test]
    fn delete_removes_from_owner() {
        let mut c = KvCluster::for_test_replicated(2, 1);
        let t = fill(&mut c, 20);
        let (t, existed) = c.delete(t, b"key00000007").unwrap();
        assert!(existed);
        let l = c.retrieve(t, b"key00000007").unwrap();
        assert!(l.value.is_none());
        assert_eq!(c.len(), 19);
        let (_, again) = c.delete(t, b"key00000007").unwrap();
        assert!(!again);
    }

    #[test]
    fn one_shard_matches_bare_device_exactly() {
        // The degenerate-equivalence anchor: a 1-shard cluster behind the
        // pass-through SQ must produce the same completion times as the
        // same device driven directly.
        let mut bare = KvSsd::new(
            kvssd_flash::Geometry::small(),
            kvssd_flash::FlashTiming::pm983_like(),
            kvssd_core::KvConfig::small(),
        );
        let mut c = KvCluster::for_test_replicated(1, 1);
        let mut tb = SimTime::ZERO;
        let mut tc = SimTime::ZERO;
        for i in 0..200u64 {
            let k = format!("key{i:08}");
            tb = bare.store(tb, k.as_bytes(), payload(768, i)).unwrap();
            tc = c.store(tc, k.as_bytes(), payload(768, i)).unwrap();
            assert_eq!(tb, tc, "diverged at store {i}");
        }
        let lb = bare.retrieve(tb, b"key00000042").unwrap();
        let lc = c.retrieve(tc, b"key00000042").unwrap();
        assert_eq!(lb.at, lc.at);
        assert_eq!(bare.flush(tb), c.flush(tc));
    }

    #[test]
    fn shards_overlap_in_virtual_time() {
        // Two ops on different shards issued at the same instant must
        // not serialize: total elapsed stays near one op's latency, not
        // two. Find two keys on different shards first.
        let mut c = KvCluster::for_test_replicated(2, 1);
        let a = b"overlap-key-a".as_slice();
        let mut b_key = None;
        for i in 0..50u64 {
            let cand = format!("overlap-key-b{i}");
            if c.route(cand.as_bytes()) != c.route(a) {
                b_key = Some(cand);
                break;
            }
        }
        let b_key = b_key.expect("some key lands on the other shard");
        let ta = c.store(SimTime::ZERO, a, payload(4096, 1)).unwrap();
        let tb = c
            .store(SimTime::ZERO, b_key.as_bytes(), payload(4096, 2))
            .unwrap();
        let solo = ta.since(SimTime::ZERO);
        let both = ta.max(tb).since(SimTime::ZERO);
        assert!(
            both.as_nanos() < solo.as_nanos() * 3 / 2,
            "cross-shard ops serialized: solo {solo}, both {both}"
        );
    }

    #[test]
    fn flush_fans_in_across_shards() {
        let mut c = KvCluster::for_test_replicated(3, 1);
        let t = fill(&mut c, 30);
        let done = c.flush(t).unwrap();
        assert!(done >= t);
        assert_eq!(c.quiesce_time(), done);
    }

    #[test]
    fn add_shard_migrates_only_its_share() {
        let mut c = KvCluster::for_test_replicated(3, 1);
        let t = fill(&mut c, 300);
        let before = c.len();
        let (id, rep) = c
            .add_shard(
                t,
                KvSsd::new(
                    kvssd_flash::Geometry::small(),
                    kvssd_flash::FlashTiming::pm983_like(),
                    kvssd_core::KvConfig::small(),
                ),
            )
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(c.len(), before, "rebalance must not lose keys");
        assert!(rep.moved_keys > 0, "a new shard should receive keys");
        // Moved keys track the ring's exact moved fraction, loosely
        // (small population; ±1 percentage points of slack per key).
        let expect = rep.ring.moved_fraction * 300.0;
        assert!(
            (rep.moved_keys as f64) < expect * 2.0 + 20.0,
            "moved {} expected ~{expect}",
            rep.moved_keys
        );
        assert!(rep.completed >= rep.started);
        // Every key still readable after the move.
        let t2 = rep.completed;
        for i in 0..300u64 {
            let l = c.retrieve(t2, format!("key{i:08}").as_bytes()).unwrap();
            assert!(l.value.is_some(), "rebalance lost key{i:08}");
        }
    }

    #[test]
    fn remove_shard_drains_it_completely() {
        let mut c = KvCluster::for_test_replicated(3, 1);
        let t = fill(&mut c, 200);
        let victim = c.shards()[1].id();
        let held = c.shards()[1].key_count() as u64;
        let rep = c.remove_shard(t, victim).unwrap();
        assert_eq!(c.shard_count(), 2);
        assert_eq!(rep.moved_keys, held);
        assert_eq!(c.len(), 200);
        for i in 0..200u64 {
            let l = c
                .retrieve(rep.completed, format!("key{i:08}").as_bytes())
                .unwrap();
            assert!(l.value.is_some(), "drain lost key{i:08}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let run = || {
            let mut c = KvCluster::for_test_replicated(4, 1);
            let t = fill(&mut c, 150);
            let _ = c.flush(t);
            c.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_and_space_aggregate() {
        let mut c = KvCluster::for_test_replicated(2, 1);
        let _done = fill(&mut c, 50);
        let st = c.stats();
        assert_eq!(st.devices.stores, 50);
        let sp = c.space();
        assert_eq!(sp.kvp_count, 50);
        assert!(sp.user_bytes > 0);
        assert!(sp.capacity_bytes > 0);
    }

    #[test]
    fn registry_keeps_keys_that_share_a_hash_apart() {
        // Two distinct keys are astronomically unlikely to share a 64-bit
        // hash, so forge the collision by registering both under one.
        let (a, b) = (b"collide-a".as_slice(), b"collide-b".as_slice());
        let h = key_hash(a);
        let id = |k: &[u8]| (h, key_fingerprint(k));
        let mut reg = KeyRegistry::default();
        reg.insert(id(a), KeyBuf::new(a));
        reg.insert(id(b), KeyBuf::new(b));
        assert_eq!(reg.len(), 2);
        assert!(reg.contains_key(&id(a)) && reg.contains_key(&id(b)));
        let mut snapshot: Vec<&[u8]> = reg.values().map(|k| k.as_slice()).collect();
        snapshot.sort_unstable();
        assert_eq!(snapshot, [a, b], "the repair snapshot lists both");
        reg.remove(&id(a));
        assert_eq!(reg.len(), 1);
        assert!(!reg.contains_key(&id(a)) && reg.contains_key(&id(b)));
        let left: Vec<&[u8]> = reg.values().map(|k| k.as_slice()).collect();
        assert_eq!(left, [b]);
    }

    #[test]
    #[should_panic(expected = "last shard")]
    fn cannot_remove_last_shard() {
        let mut c = KvCluster::for_test_replicated(1, 1);
        let id = c.shards()[0].id();
        let _ = c.remove_shard(SimTime::ZERO, id);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64 replica lanes")]
    fn more_than_64_replicas_is_rejected() {
        // Lane masks are `1 << (lane & 63)`: lane 64 would alias lane 0
        // in `QuorumUnavailable::acked_replicas` and the spare search.
        let _ = KvCluster::for_test_replicated(65, 65);
    }

    // ---- the leg engine and quorum driver, against a scripted wire ----

    use kvssd_fabric::Delivery;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// What the scripted wire does with one message.
    #[derive(Debug, Clone, Copy)]
    enum Wire {
        Lost,
        /// Arrives this many microseconds after it was sent.
        After(u64),
        /// Arrives at once, and so does a wire duplicate.
        Twice,
    }

    #[derive(Debug, Default)]
    struct Script {
        /// Outcomes for successive requests / responses, front first;
        /// once exhausted every message arrives the instant it is sent.
        requests: VecDeque<Wire>,
        responses: VecDeque<Wire>,
        partitioned: Vec<usize>,
        /// `(shard, send instant)` of every request / response offered.
        requested: Vec<(usize, SimTime)>,
        responded: Vec<(usize, SimTime)>,
    }

    /// A [`Transport`] fake that plays a script and logs every message.
    #[derive(Debug, Clone, Default)]
    struct Scripted(Arc<Mutex<Script>>);

    impl Scripted {
        fn script(&self) -> std::sync::MutexGuard<'_, Script> {
            self.0.lock().unwrap()
        }

        fn deliver(wire: Option<Wire>, now: SimTime) -> Delivery {
            let (delivered, duplicate) = match wire.unwrap_or(Wire::After(0)) {
                Wire::Lost => (None, None),
                Wire::After(us) => (Some(now + SimDuration::from_micros(us)), None),
                Wire::Twice => (Some(now), Some(now)),
            };
            Delivery {
                delivered,
                duplicate,
                admitted: now,
            }
        }
    }

    impl Transport for Scripted {
        fn request(&mut self, now: SimTime, shard: usize, _bytes: u64) -> Delivery {
            let mut s = self.script();
            s.requested.push((shard, now));
            let wire = s.requests.pop_front();
            Self::deliver(wire, now)
        }

        fn response(&mut self, now: SimTime, shard: usize, _bytes: u64) -> Delivery {
            let mut s = self.script();
            s.responded.push((shard, now));
            let wire = s.responses.pop_front();
            Self::deliver(wire, now)
        }

        fn is_partitioned(&self, shard: usize) -> bool {
            self.script().partitioned.contains(&shard)
        }

        fn on_add_shard(&mut self) {}

        fn on_remove_shard(&mut self, _idx: usize) {}

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    fn scripted(config: ClusterConfig) -> (KvCluster, Scripted) {
        let wire = Scripted::default();
        let c = KvCluster::with_transport(config, Box::new(wire.clone()), |_| {
            KvSsd::new(
                kvssd_flash::Geometry::small(),
                kvssd_flash::FlashTiming::pm983_like(),
                kvssd_core::KvConfig::small(),
            )
        });
        (c, wire)
    }

    const KEY: &[u8] = b"engine-key";

    #[test]
    fn late_ack_retries_a_client_store_but_stops_a_repair_copy() {
        let timeout = SimDuration::from_micros(100);
        let deadlines = ClusterConfig::new(1, 42).deadlines(timeout, 2);
        // Client store: the first ack arrives, but 400 µs past its
        // deadline — the leg re-issues, the replica dedupes the retry,
        // and the late ack still counts once it is the earliest.
        let (mut c, wire) = scripted(deadlines);
        wire.script().responses.push_back(Wire::After(500));
        let _done = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap();
        assert_eq!(wire.script().requested.len(), 2, "one retry");
        let st = c.stats();
        assert_eq!((st.leg_retries, st.dup_suppressed), (1, 1));
        assert_eq!(st.devices.stores, 1);
        // Repair copy: the same late ack ends the leg — the router only
        // needs to hear the copy landed, however late.
        let (mut c, wire) = scripted(deadlines);
        wire.script().responses.push_back(Wire::After(500));
        let v = payload(512, 1);
        let req_bytes = REQUEST_CAPSULE_BYTES + KEY.len() as u64 + v.len();
        let store = |c: &mut KvCluster, at| c.exec_store(0, at, key_hash(KEY), KEY, &v);
        let done = c
            .repair_write_leg(SimTime::ZERO, 0, req_bytes, store)
            .unwrap()
            .expect("the copy executed");
        assert_eq!(wire.script().requested.len(), 1, "no retry");
        assert_eq!(c.stats().leg_retries, 0);
        let executed = wire.script().responded[0].1;
        assert_eq!(done, executed + SimDuration::from_micros(500));
        assert!(c.shards()[0].holds(KEY), "registry mirrors the copy");
    }

    #[test]
    fn duplicated_request_runs_a_client_read_twice_and_a_repair_read_once() {
        let (mut c, wire) = scripted(ClusterConfig::new(1, 42));
        let t = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap();
        wire.script().requests.push_back(Wire::Twice);
        assert!(c.retrieve(t, KEY).unwrap().value.is_some());
        assert_eq!(c.stats().devices.retrieves, 2, "every copy executes");
        wire.script().requests.push_back(Wire::Twice);
        let (got, _) = c.repair_read_leg(t, 0, KEY).unwrap().expect("acked");
        assert_eq!(got, payload(512, 1));
        assert_eq!(c.stats().devices.retrieves, 3, "one pass per attempt");
    }

    #[test]
    fn duplicate_of_an_executed_mutation_reacks_the_recorded_completion() {
        let (mut c, wire) = scripted(ClusterConfig::new(1, 42));
        wire.script().requests.push_back(Wire::Twice);
        let acked = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap();
        let st = c.stats();
        assert_eq!((st.devices.stores, st.dup_suppressed), (1, 1));
        let responded = wire.script().responded.clone();
        assert_eq!(responded.len(), 2, "both deliveries are acknowledged");
        assert_eq!(responded[0], responded[1], "at the recorded completion");
        assert_eq!(responded[0].1, acked);
    }

    #[test]
    fn without_deadlines_one_attempt_and_an_untouched_retry_rng() {
        let (mut c, wire) = scripted(ClusterConfig::new(1, 42));
        wire.script().requests.push_back(Wire::Lost);
        let err = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap_err();
        assert!(matches!(err, KvError::QuorumUnavailable { acked: 0, .. }));
        assert_eq!(wire.script().requested.len(), 1, "a lost leg stays lost");
        assert_eq!(c.stats().leg_retries, 0);
        let (mut fresh, _) = scripted(ClusterConfig::new(1, 42));
        assert_eq!(
            c.retry_rng.below(u64::MAX),
            fresh.retry_rng.below(u64::MAX),
            "the backoff stream must not have advanced"
        );
    }

    #[test]
    fn write_spare_ties_an_unacked_lane_and_read_spare_takes_an_untried_one() {
        let hedge = SimDuration::from_micros(100);
        let base = ClusterConfig::new(6, 42).replication(4).quorums(2, 3);
        // Write: lanes 0 and 1 lose their acks, so the quorum of 3 is
        // missing; lane 0's link is known-partitioned, so the tied leg
        // re-sends to lane 1.
        let (mut c, wire) = scripted(base.hedged_writes(Some(hedge)));
        let routes = c.replica_routes(KEY).unwrap();
        wire.script().responses.extend([Wire::Lost, Wire::Lost]);
        wire.script().partitioned.push(routes[0]);
        let _done = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap();
        let requested = wire.script().requested.clone();
        assert_eq!(requested.len(), 5, "four first-wave legs and one spare");
        assert_eq!(requested[4], (routes[1], SimTime::ZERO + hedge));
        let st = c.stats();
        assert_eq!((st.hedged_write_spares, st.hedged_spares), (1, 0));
        assert_eq!(st.dup_suppressed, 1, "the tied leg dedupes at the replica");
        // Lean read: lanes 0 and 1 are tried, lane 0 loses its ack; the
        // spare skips lane 0 (un-acked, link fine) for the first
        // *untried* lane.
        let (mut c, wire) = scripted(base.lean_reads(Some(hedge)));
        let t = c.store(SimTime::ZERO, KEY, payload(512, 1)).unwrap();
        wire.script().requested.clear();
        wire.script().responses.push_back(Wire::Lost);
        assert!(c.retrieve(t, KEY).unwrap().value.is_some());
        let requested = wire.script().requested.clone();
        assert_eq!(requested.len(), 3, "two first-wave legs and one spare");
        assert_eq!(requested[2], (routes[2], t + hedge));
        let st = c.stats();
        assert_eq!((st.hedged_spares, st.hedged_write_spares), (1, 0));
    }
}
