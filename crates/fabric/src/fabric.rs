//! The fabric proper: one bidirectional link per shard, partitions,
//! and aggregated accounting.

use kvssd_sim::{mix64, SimTime};

use crate::link::{Channel, Delivery, LinkConfig};

/// Fabric-wide parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Seed for every channel's fault stream (each channel derives its
    /// own independent stream from this, its link id, and its
    /// direction).
    pub seed: u64,
    /// Link shape applied to new links unless overridden per link.
    pub default_link: LinkConfig,
}

impl FabricConfig {
    /// A fabric seeded with `seed` whose links all start as
    /// `default_link`.
    pub fn new(seed: u64, default_link: LinkConfig) -> Self {
        FabricConfig { seed, default_link }
    }

    /// An ideal (free, lossless) fabric — the degenerate anchor that
    /// must reproduce the in-process transport byte for byte.
    pub fn ideal(seed: u64) -> Self {
        Self::new(seed, LinkConfig::ideal())
    }
}

/// Aggregated counters across every link and direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Request messages offered (router → shard).
    pub requests: u64,
    /// Response messages offered (shard → router).
    pub responses: u64,
    /// Messages lost to seeded drops, both directions.
    pub dropped: u64,
    /// Messages swallowed by partitions, both directions.
    pub partition_drops: u64,
    /// Messages duplicated on the wire.
    pub duplicated: u64,
    /// Sends that stalled on a full channel queue.
    pub queue_stalls: u64,
    /// Payload bytes offered, both directions.
    pub bytes: u64,
}

/// One shard's bidirectional attachment point.
#[derive(Debug)]
struct Link {
    /// Router → shard (commands and write payloads).
    request: Channel,
    /// Shard → router (completions and read payloads).
    response: Channel,
    partitioned: bool,
}

/// The transport fabric between a router and its shards (see crate
/// docs). Link index `i` is the cluster's shard index `i`; the fabric
/// mirrors shard add/remove so the two stay aligned.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    links: Vec<Link>,
    /// Monotonic link id: re-added links get fresh fault streams
    /// instead of replaying a departed shard's.
    next_link_id: u64,
}

impl Fabric {
    /// A fabric with `links` attachment points, all shaped by the
    /// config's default link.
    pub fn new(config: FabricConfig, links: usize) -> Self {
        let mut fabric = Fabric {
            config,
            links: Vec::with_capacity(links),
            next_link_id: 0,
        };
        for _ in 0..links {
            fabric.add_link();
        }
        fabric
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Reshapes one link (both directions). Traffic already in flight
    /// keeps its old timing; the fault streams continue unreset, so a
    /// reshape mid-run stays deterministic.
    pub fn shape_link(&mut self, link: usize, config: LinkConfig) {
        assert!(config.queue_depth > 0, "channel queue depth must be >= 1");
        *self.links[link].request.config_mut() = config;
        *self.links[link].response.config_mut() = config;
    }

    /// Sends a request of `bytes` toward shard `link` at `now`;
    /// returns the arrival instant of the original copy, or `None` if
    /// it was lost. [`Self::request_delivery`] exposes duplicate
    /// deliveries as well.
    pub fn request(&mut self, now: SimTime, link: usize, bytes: u64) -> Option<SimTime> {
        self.request_delivery(now, link, bytes).delivered
    }

    /// Sends a response of `bytes` from shard `link` back to the
    /// router at `now`; returns the arrival instant of the original
    /// copy, or `None` if it was lost. [`Self::response_delivery`]
    /// exposes duplicate deliveries as well.
    pub fn response(&mut self, now: SimTime, link: usize, bytes: u64) -> Option<SimTime> {
        self.response_delivery(now, link, bytes).delivered
    }

    /// [`Self::request`] returning the full [`Delivery`] — including a
    /// duplicated wire copy's second arrival, which deadline-aware
    /// receivers must dedupe (mutations) or absorb (reads/acks).
    pub fn request_delivery(&mut self, now: SimTime, link: usize, bytes: u64) -> Delivery {
        let l = &mut self.links[link];
        l.request.send(now, bytes, l.partitioned)
    }

    /// [`Self::response`] returning the full [`Delivery`].
    pub fn response_delivery(&mut self, now: SimTime, link: usize, bytes: u64) -> Delivery {
        let l = &mut self.links[link];
        l.response.send(now, bytes, l.partitioned)
    }

    /// Cuts the link to shard `link`: every message in either
    /// direction is swallowed until [`Self::heal`].
    pub fn partition(&mut self, link: usize) {
        self.links[link].partitioned = true;
    }

    /// Restores a partitioned link.
    pub fn heal(&mut self, link: usize) {
        self.links[link].partitioned = false;
    }

    /// True while the link is partitioned.
    pub fn is_partitioned(&self, link: usize) -> bool {
        self.links[link].partitioned
    }

    /// Attaches a new link (a shard joining) shaped by the default
    /// link config; returns its index.
    pub fn add_link(&mut self) -> usize {
        let id = self.next_link_id;
        self.next_link_id += 1;
        // Direction tags keep the two streams of one link independent.
        let request_seed = mix64(self.config.seed ^ mix64(id.wrapping_mul(2)));
        let response_seed = mix64(self.config.seed ^ mix64(id.wrapping_mul(2) + 1));
        self.links.push(Link {
            request: Channel::new(self.config.default_link, request_seed),
            response: Channel::new(self.config.default_link, response_seed),
            partitioned: false,
        });
        self.links.len() - 1
    }

    /// Detaches link `link` (a shard leaving); later indices shift
    /// down by one, mirroring the cluster's shard vector.
    pub fn remove_link(&mut self, link: usize) {
        self.links.remove(link);
    }

    /// Aggregated counters across all links.
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats::default();
        for l in &self.links {
            let rq = l.request.stats();
            let rs = l.response.stats();
            s.requests += rq.messages;
            s.responses += rs.messages;
            s.dropped += rq.dropped + rs.dropped;
            s.partition_drops += rq.partition_drops + rs.partition_drops;
            s.duplicated += rq.duplicated + rs.duplicated;
            s.queue_stalls += rq.queue_stalls + rs.queue_stalls;
            s.bytes += rq.bytes + rs.bytes;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::SimDuration;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn request_and_response_are_independent_directions() {
        let cfg = FabricConfig::new(
            1,
            LinkConfig {
                latency: us(10),
                ..LinkConfig::ideal()
            },
        );
        let mut f = Fabric::new(cfg, 2);
        let a = f.request(SimTime::ZERO, 0, 64).unwrap();
        let b = f.response(SimTime::ZERO, 0, 64).unwrap();
        assert_eq!(a, SimTime::ZERO + us(10));
        assert_eq!(b, SimTime::ZERO + us(10), "directions do not serialize");
    }

    #[test]
    fn per_link_shapes_differ() {
        let mut f = Fabric::new(FabricConfig::ideal(1), 2);
        f.shape_link(
            1,
            LinkConfig {
                latency: us(500),
                ..LinkConfig::ideal()
            },
        );
        assert_eq!(f.request(SimTime::ZERO, 0, 64), Some(SimTime::ZERO));
        assert_eq!(
            f.request(SimTime::ZERO, 1, 64),
            Some(SimTime::ZERO + us(500))
        );
    }

    #[test]
    fn partition_and_heal_round_trip() {
        let mut f = Fabric::new(FabricConfig::ideal(1), 1);
        f.partition(0);
        assert!(f.is_partitioned(0));
        assert_eq!(f.request(SimTime::ZERO, 0, 64), None);
        assert_eq!(f.response(SimTime::ZERO, 0, 64), None);
        f.heal(0);
        assert!(f.request(SimTime::ZERO, 0, 64).is_some());
        assert_eq!(f.stats().partition_drops, 2);
    }

    #[test]
    fn readded_links_get_fresh_streams() {
        let jittery = FabricConfig::new(
            7,
            LinkConfig {
                jitter: us(100),
                ..LinkConfig::ideal()
            },
        );
        let mut f = Fabric::new(jittery, 2);
        let before: Vec<_> = (0..8)
            .map(|_| f.request(SimTime::ZERO, 1, 64).unwrap())
            .collect();
        f.remove_link(1);
        let idx = f.add_link();
        assert_eq!(idx, 1);
        let after: Vec<_> = (0..8)
            .map(|_| f.request(SimTime::ZERO, 1, 64).unwrap())
            .collect();
        assert_ne!(before, after, "a re-added link must not replay its past");
    }

    #[test]
    fn stats_aggregate_both_directions() {
        let mut f = Fabric::new(FabricConfig::ideal(1), 2);
        let _ = f.request(SimTime::ZERO, 0, 100);
        let _ = f.request(SimTime::ZERO, 1, 100);
        let _ = f.response(SimTime::ZERO, 0, 50);
        let s = f.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.responses, 1);
        assert_eq!(s.bytes, 250);
    }
}
