//! Host-side substrate: CPU accounting, page cache, and an ext4-like
//! filesystem over the block-SSD.
//!
//! The paper's host stack is Linux: RocksDB runs on ext4 over the
//! block-SSD (with the OS page cache in between), Aerospike uses direct
//! I/O, and the KV path uses the thin SNIA KV API library. The pieces
//! here give those stacks their host-side costs:
//!
//! * [`HostCpu`] — a pool of host cores; every store charges its
//!   per-operation CPU work here, which is exactly what the paper's
//!   `dstat` CPU-utilization comparison measures (KV-SSD's headline
//!   "13x less host CPU than RocksDB").
//! * [`PageCache`] / [`LruCache`] — an OS page cache (and the same LRU
//!   structure reused for RocksDB's 10 MB block cache): a strict LRU
//!   over `(file, page)` keys that finds a page through its file's dense
//!   page vector, drops a whole file in that file's pages only, and
//!   allocates nothing once warm.
//! * [`ExtFs`] — an extent-based filesystem with journaling, buffered
//!   and direct reads/writes, fsync, and whole-file TRIM on delete (the
//!   mechanism that keeps block-SSD GC invisible under RocksDB in
//!   Fig. 6a).

pub mod cache;
pub mod cpu;
pub mod fs;

pub use cache::{LruCache, PageCache};
pub use cpu::{CpuCosts, HostCpu};
pub use fs::{ExtFs, FileId, FsError, FsStats};
