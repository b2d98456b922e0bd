//! A RocksDB-like LSM-tree key-value store on the host stack.
//!
//! This is the paper's primary block-SSD baseline: "RocksDB on an ext4
//! file system and a block-SSD" with a deliberately small **10 MB block
//! cache** (Sec. IV, Fig. 2). The implementation carries the mechanisms
//! the comparison depends on:
//!
//! * a write path of WAL append + memtable insert (cheap per-op, heavy
//!   on host CPU relative to the KV API — the 13x CPU headline),
//! * memtable flushes into L0 SSTs and **leveled compaction**, whose
//!   sequential reads/writes and whole-file deletes (fs TRIM) keep the
//!   block-SSD's garbage collector idle (Fig. 6a),
//! * **write stalls** when L0 grows faster than compaction drains it —
//!   the long insert tail KV-SSD beats (Fig. 2a),
//! * a read path of memtable -> L0 (newest first) -> L1.. with per-SST
//!   Bloom filters, the 10 MB block cache, and the OS page cache
//!   (Fig. 2c, where RocksDB *wins* against KV-SSD).
//!
//! Functional state (which key maps to which value) is exact; I/O and
//! CPU time flow through `kvssd-host-stack` onto the shared block-SSD.
//!
//! The host side is built so an op does little work and allocates
//! nothing (flushes and compactions take their buffers from the tables
//! compaction consumed): the memtable is a
//! hash-indexed arrival-order vector that a flush sorts once, a put
//! learns the version it replaces from its one memtable probe (and
//! walks the levels only on a miss, to keep live-byte accounting exact),
//! and a table lookup binary-searches 8-byte key windows past the
//! table's common prefix. None of it moves a virtual nanosecond; DESIGN.md,
//! "Host structures of the LSM baseline", has the details.
//!
//! # Example
//!
//! ```
//! use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
//! use kvssd_core::Payload;
//! use kvssd_flash::{FlashTiming, Geometry};
//! use kvssd_host_stack::ExtFs;
//! use kvssd_lsm_store::{LsmConfig, LsmStore};
//! use kvssd_sim::SimTime;
//!
//! let device = BlockSsd::new(Geometry::small(), FlashTiming::pm983_like(),
//!                            BlockFtlConfig::pm983_like());
//! let mut db = LsmStore::new(ExtFs::format(device), LsmConfig::tiny());
//! let t = db.put(SimTime::ZERO, b"k1", Payload::from_bytes(b"v1".to_vec()));
//! let (_, v) = db.get(t, b"k1");
//! assert_eq!(v.unwrap().as_bytes().unwrap(), b"v1");
//! ```

pub mod config;
mod memtable;
pub mod sst;
pub mod store;

pub use config::LsmConfig;
pub use store::{LsmStats, LsmStore};
