//! The router↔shard transport abstraction.
//!
//! Every replica leg of a cluster operation crosses the transport
//! twice: a request (command capsule plus any write payload) travels
//! router → shard before the shard's submission queue sees it, and a
//! completion (capsule plus any read payload) travels shard → router
//! before the leg counts toward the operation's quorum. The default
//! [`InProcess`] transport delivers both instantly and losslessly —
//! byte-identical to the pre-transport cluster — while a
//! [`kvssd_fabric::Fabric`] charges per-link latency, serialization,
//! queueing, and seeded faults.
//!
//! A leg whose *request* is lost never executes on its device; a leg
//! whose *completion* is lost executed (the write is durable on that
//! replica) but cannot acknowledge. Operations that collect fewer
//! acknowledgements than their quorum return
//! [`kvssd_core::KvError::QuorumUnavailable`] instead of pretending.
//!
//! The contract is *deadline-aware*: both directions return the full
//! [`Delivery`] (original arrival, duplicated-copy arrival, admission
//! instant), so the router can tell exactly when a leg will never
//! acknowledge and re-issue it under its per-op deadline
//! ([`crate::ClusterConfig::deadlines`]), and so replicas can observe
//! the duplicate deliveries they must dedupe. [`Transport::
//! is_partitioned`] exposes link state the hedging paths use to avoid
//! wasting a spare leg on a link that is known to swallow it.

use kvssd_fabric::Delivery;
use kvssd_sim::{SimDuration, SimTime};

/// Wire overhead of one request capsule (command + addressing), on top
/// of key/value payload bytes. NVMe-oF-ish: a 64 B command capsule.
pub const REQUEST_CAPSULE_BYTES: u64 = 64;

/// Wire size of one completion capsule (status + context).
pub const RESPONSE_CAPSULE_BYTES: u64 = 16;

/// Aggregated transport counters: the fabric's own stats struct, so a
/// fabric-backed transport hands its counters through unchanged and
/// reports can quote them without downcasting.
pub type TransportStats = kvssd_fabric::FabricStats;

/// A bidirectional message transport between the router and shard
/// index `shard` (see module docs).
pub trait Transport: std::fmt::Debug + Send {
    /// Offers a request of `bytes` to `shard`, sent at `now`; the
    /// returned [`Delivery`] carries the arrival instant (`None` when
    /// the message was lost) plus any duplicated copy's arrival.
    fn request(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery;

    /// Offers a response of `bytes` from `shard` back to the router;
    /// same [`Delivery`] contract as [`Self::request`].
    fn response(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery;

    /// True while the link to `shard` is known-partitioned: every
    /// message either way will be swallowed. Hedging uses this to skip
    /// a spare leg that could only be wasted; the data path does *not*
    /// consult it (a partition is discovered the honest way, by legs
    /// timing out). Defaults to `false` (an in-process transport never
    /// partitions).
    fn is_partitioned(&self, shard: usize) -> bool {
        let _ = shard;
        false
    }

    /// A shard joined: attach its link at the end of the index space.
    fn on_add_shard(&mut self);

    /// Shard index `idx` left: detach its link (later indices shift
    /// down by one, mirroring the cluster's shard vector).
    fn on_remove_shard(&mut self, idx: usize);

    /// Aggregated counters (all zero for a transport that never
    /// queues, delays, or loses anything).
    fn stats(&self) -> TransportStats;

    /// The underlying fabric, when this transport is one — the hook
    /// tests and experiments use to partition or reshape links mid-run
    /// without downcasting machinery. Defaults to `None`.
    fn fabric_mut(&mut self) -> Option<&mut kvssd_fabric::Fabric> {
        None
    }
}

/// The zero-cost default: requests and responses arrive the instant
/// they are sent, nothing is ever lost, nothing is counted. A cluster
/// on `InProcess` is byte-identical to the pre-transport code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl Transport for InProcess {
    fn request(&mut self, now: SimTime, _shard: usize, _bytes: u64) -> Delivery {
        Delivery {
            delivered: Some(now),
            duplicate: None,
            admitted: now,
        }
    }

    fn response(&mut self, now: SimTime, _shard: usize, _bytes: u64) -> Delivery {
        Delivery {
            delivered: Some(now),
            duplicate: None,
            admitted: now,
        }
    }

    fn on_add_shard(&mut self) {}

    fn on_remove_shard(&mut self, _idx: usize) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

impl Transport for kvssd_fabric::Fabric {
    fn request(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery {
        self.request_delivery(now, shard, bytes)
    }

    fn response(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery {
        self.response_delivery(now, shard, bytes)
    }

    fn is_partitioned(&self, shard: usize) -> bool {
        kvssd_fabric::Fabric::is_partitioned(self, shard)
    }

    fn on_add_shard(&mut self) {
        self.add_link();
    }

    fn on_remove_shard(&mut self, idx: usize) {
        self.remove_link(idx);
    }

    fn stats(&self) -> TransportStats {
        kvssd_fabric::Fabric::stats(self)
    }

    fn fabric_mut(&mut self) -> Option<&mut kvssd_fabric::Fabric> {
        Some(self)
    }
}

/// How `retrieve` fans legs out to a key's replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFanout {
    /// One leg to every replica (the seed behavior — free on an
    /// in-process transport, wasteful on a paid fabric).
    All,
    /// Legs to the first `read_quorum` replicas only; with `hedge`
    /// set, a spare leg goes to the next unused replica when the
    /// quorum ack would otherwise land after `now + hedge` (classic
    /// hedged requests, evaluated in virtual time).
    Lean {
        /// Hedge delay; `None` disables the spare leg.
        hedge: Option<SimDuration>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_is_free_and_lossless() {
        let mut t = InProcess;
        let at = SimTime::from_nanos(12345);
        assert_eq!(t.request(at, 3, 1 << 20).delivered, Some(at));
        assert_eq!(t.response(at, 0, 0).delivered, Some(at));
        assert_eq!(t.stats(), TransportStats::default());
        assert!(!t.is_partitioned(3));
    }

    #[test]
    fn fabric_maps_through_the_trait() {
        use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
        use kvssd_sim::SimDuration;

        let cfg = FabricConfig::new(
            1,
            LinkConfig {
                latency: SimDuration::from_micros(10),
                ..LinkConfig::ideal()
            },
        );
        let mut t: Box<dyn Transport> = Box::new(Fabric::new(cfg, 2));
        let arrive = t.request(SimTime::ZERO, 1, 64).delivered.unwrap();
        assert_eq!(arrive, SimTime::ZERO + SimDuration::from_micros(10));
        let s = t.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes, 64);
        assert!(!t.is_partitioned(1));
        t.fabric_mut().unwrap().partition(1);
        assert!(t.is_partitioned(1));
    }
}
