//! Sharded multi-device scale-out layer for the KV-SSD study.
//!
//! The paper characterizes one PM983; production deployments of
//! hash-partitioned stores (the Aerospike shape) spread keys over many
//! devices. This crate is the host-side shard router that lets every
//! experiment in the repo run at cluster scale:
//!
//! * [`HashRing`] — consistent-hash key→shard placement with virtual
//!   nodes, deterministic from a seed, with exact moved-fraction
//!   accounting when shards join or leave,
//! * [`KvCluster`] — N independent [`kvssd_core::KvSsd`] devices sharing
//!   one virtual clock, each behind its own NVMe submission queue
//!   ([`kvssd_nvme::SubmissionQueue`]), with fan-out/fan-in completion
//!   handling ([`kvssd_sim::FanIn`]) so concurrent operations on
//!   different shards overlap in virtual time,
//! * cluster-level metrics: merged latency histograms plus per-shard and
//!   aggregate bandwidth series, one [`ClusterStats`] snapshot carrying
//!   every counter (device sums, transport, retries, hedges, dedupes),
//!   and a byte-stable [`KvCluster::report`] table for determinism checks,
//! * R-way replication: [`HashRing::replica_set`] places every key on
//!   the first R distinct shards past its hash, operations fan out to
//!   the whole set and acknowledge at configurable read/write quorums,
//!   and membership changes repair placement (re-replicate from a
//!   surviving copy, demote misplaced replicas),
//! * a pluggable router↔shard [`Transport`]: the in-process default is
//!   free and lossless (byte-identical to the pre-transport path),
//!   while a [`kvssd_fabric::Fabric`] charges per-link latency,
//!   serialization, and queueing and injects seeded faults — with lean
//!   quorum reads and hedged spare legs
//!   ([`ClusterConfig::lean_reads`]) to tame stragglers.
//!
//! A 1-shard cluster behind the default pass-through submission queue is
//! *bit-identical* to a bare device: same seed, same virtual-time
//! results. That degenerate-equivalence property is what anchors the
//! scale-out numbers to the single-device reproduction.
//!
//! # Example
//!
//! ```
//! use kvssd_cluster::{ClusterConfig, KvCluster};
//! use kvssd_core::Payload;
//! use kvssd_sim::SimTime;
//!
//! let mut cluster = KvCluster::for_test_replicated(4, 1);
//! let t = cluster
//!     .store(SimTime::ZERO, b"user:42", Payload::synthetic(512, 7))
//!     .unwrap();
//! let l = cluster.retrieve(t, b"user:42").unwrap();
//! assert!(l.value.is_some());
//! assert_eq!(cluster.len(), 1);
//! # let _ = ClusterConfig::default();
//!
//! // Three-way replication with majority quorums: the key lands on
//! // three shards, and a quorum read survives losing any one of them.
//! let mut replicated = KvCluster::for_test_replicated(4, 3);
//! let t = replicated
//!     .store(SimTime::ZERO, b"user:42", Payload::synthetic(512, 7))
//!     .unwrap();
//! assert_eq!(replicated.replica_routes(b"user:42").unwrap().len(), 3);
//! let victim = replicated.shards()[replicated.route(b"user:42").unwrap()].id();
//! let rep = replicated.remove_shard(t, victim).unwrap();
//! let l = replicated.retrieve(rep.completed, b"user:42").unwrap();
//! assert!(l.value.is_some());
//! ```

pub mod cluster;
pub mod config;
pub mod ring;
pub mod transport;

pub use cluster::{ClusterStats, KvCluster, RebalanceReport, Shard};
pub use config::ClusterConfig;
pub use ring::{HashRing, RingDelta};
pub use transport::{
    InProcess, ReadFanout, Transport, TransportStats, REQUEST_CAPSULE_BYTES, RESPONSE_CAPSULE_BYTES,
};
