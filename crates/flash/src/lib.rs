//! NAND flash substrate shared by both firmware personalities.
//!
//! The paper's central methodological trick is using *one* piece of
//! hardware (a Samsung PM983) flashed with either key-value or block
//! firmware, so every observed difference is attributable to firmware
//! policy. This crate is the simulated equivalent of that hardware: a
//! NAND array with explicit geometry ([`Geometry`]), timing
//! ([`FlashTiming`]), per-die and per-channel contention, and the real
//! NAND programming constraints (erase-before-program, in-order page
//! programming within a block). Both `kvssd-core` (KV firmware) and
//! `kvssd-block-ftl` (block firmware) drive the same [`FlashDevice`].
//!
//! The block layer under both firmwares lives here too, so they differ
//! only in policy: [`BlockPool`] owns every block's state and valid
//! bytes, the per-die-plane free queues, greedy GC victim selection,
//! erase-and-free and retirement, and [`foreground_reclaim`] is the one
//! foreground-GC loop over it. Allocation order, what a block holds and
//! when to collect stay in each firmware. The controller DRAM both use
//! lives here as well: [`WriteBuffer`] (units held, departures,
//! residency) and [`ReadCache`] (the last eight pages read).
//!
//! # Example
//!
//! ```
//! use kvssd_flash::{FlashDevice, Geometry, FlashTiming, PageAddr};
//! use kvssd_sim::SimTime;
//!
//! let mut flash = FlashDevice::new(Geometry::small(), FlashTiming::pm983_like());
//! let block = flash.geometry().block_at(0, 0, 0);
//! let page = PageAddr { block, page: 0 };
//! let page_bytes = flash.geometry().page_bytes as u64;
//! let programmed = flash.program_page(SimTime::ZERO, page, page_bytes).unwrap();
//! assert!(!programmed.failed);
//! let read_done = flash.read_page(programmed.done, page, 4096).unwrap();
//! assert!(read_done > programmed.done);
//! ```

pub mod buffer;
pub mod device;
pub mod fault;
pub mod geometry;
pub mod pool;
pub mod timing;

pub use buffer::{ReadCache, WriteBuffer};
pub use device::{EraseResult, FlashDevice, FlashError, FlashStats, ProgramResult};
pub use fault::FaultPlan;
pub use geometry::{BlockId, Geometry, PageAddr};
pub use pool::{foreground_reclaim, BlockPool, BlockState, Picked, Reclaim, Undrainable};
pub use timing::FlashTiming;
