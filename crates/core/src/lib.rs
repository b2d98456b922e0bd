//! KV-SSD firmware personality — the subject of the paper.
//!
//! This crate implements the Samsung-style KV flash translation layer the
//! paper characterizes, over the same NAND substrate as the block
//! personality (`kvssd-block-ftl`). The mechanisms the paper identifies
//! are all first-class here:
//!
//! * **Key hashing + multi-level hash index** ([`index`]): variable-length
//!   keys are hashed to fixed-length key hashes; the global index keeps a
//!   record per KVP, cached in device DRAM and overflowing to flash as it
//!   grows (the Fig. 3 occupancy cliff). Multiple *index managers* each
//!   hold a local index that merges into the global index in batches, and
//!   carry Bloom filters for fast negative lookups.
//! * **Iterator buckets** ([`index::IterBuckets`]): keys are also bucketed
//!   by their first 4 bytes for prefix iteration, as the KV API requires.
//! * **Byte-aligned log-like data packing** ([`blob`], [`device`]): blobs
//!   (metadata + key + value) are appended to open flash pages with a
//!   1 KiB minimum allocation unit (the Fig. 7 space-amplification
//!   mechanism); values beyond the per-page payload budget split into
//!   page-aligned segments with offset bookkeeping (the Fig. 4/5 penalty).
//! * **Garbage collection** ([`device`]): background copy taxes and
//!   foreground stalls when free blocks run out (the Fig. 6 collapse).
//! * **The vendor NVMe KV command set** (via `kvssd-nvme`): keys longer
//!   than 16 B cost a second command (Fig. 8).
//!
//! # Example
//!
//! ```
//! use kvssd_core::{KvConfig, KvSsd, Payload};
//! use kvssd_flash::{FlashTiming, Geometry};
//! use kvssd_sim::SimTime;
//!
//! let mut dev = KvSsd::new(Geometry::small(), FlashTiming::pm983_like(),
//!                          KvConfig::small());
//! let t = dev.store(SimTime::ZERO, b"sensor-0007", Payload::from_bytes(vec![1, 2, 3]))
//!     .unwrap();
//! let got = dev.retrieve(t, b"sensor-0007").unwrap();
//! assert_eq!(got.value.unwrap().len(), 3);
//! ```

pub mod blob;
mod blocks;
pub mod bloom;
pub mod config;
pub mod device;
pub mod error;
pub mod hash;
pub mod index;
pub mod inline_vec;
pub mod keybuf;
pub mod model;
pub mod value;
mod write_buffer;

pub use config::KvConfig;
pub use device::{KvSsd, KvSsdStats, Lookup, SpaceReport};
pub use error::KvError;
pub use keybuf::KeyBuf;
pub use model::KvModel;
pub use value::Payload;
