//! Virtual-time simulation substrate for the KV-SSD characterization study.
//!
//! Every device and host model in this workspace runs on a deterministic
//! *virtual clock* measured in nanoseconds. Instead of a classic
//! discrete-event simulator with callbacks, components are modeled as
//! **resource timelines**: an operation arriving at time `t` reserves the
//! resources it needs (a controller CPU, a flash die, a bus) and its
//! completion time falls out of when those resources were available. This
//! style composes well — a key-value store calls a filesystem which calls a
//! device, and each layer simply threads `SimTime` through — while still
//! producing queue-depth effects, parallelism, and interference.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — the virtual clock arithmetic,
//! * [`Resource`] / [`ResourcePool`] — FIFO busy-until timelines,
//! * [`QueueRunner`] — an outstanding-operation scheduler that models a
//!   host issuing requests at a fixed queue depth,
//! * [`rng`] — deterministic RNG and a Zipfian distribution for workloads,
//! * [`check`] — seeded property checking with shrink-by-deletion (what
//!   every property and model-oracle suite in the workspace runs on),
//! * [`stats`] — latency histograms with percentiles and bandwidth time
//!   series.
//!
//! # Example
//!
//! ```
//! use kvssd_sim::{Resource, SimDuration, SimTime};
//!
//! // A single flash die serving two reads that arrive at the same time:
//! let mut die = Resource::new();
//! let t0 = SimTime::ZERO;
//! let first = die.acquire(t0, SimDuration::from_micros(90));
//! let second = die.acquire(t0, SimDuration::from_micros(90));
//! assert_eq!(first.end, SimTime::ZERO + SimDuration::from_micros(90));
//! // The second read waits for the first to finish:
//! assert_eq!(second.start, first.end);
//! ```

pub mod check;
pub mod prehash;
pub mod resource;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod time;

pub use prehash::{PrehashHasher, PrehashedMap, PrehashedSet};
pub use resource::{Resource, ResourcePool, Window};
pub use rng::{digest64, mix64, DeterministicRng, ZipfianDistribution};
pub use runner::{FanIn, OpTiming, QueueRunner};
pub use stats::{BandwidthSeries, LatencyHistogram};
pub use time::{SimDuration, SimTime};
