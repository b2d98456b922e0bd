//! NVMe transport model, including Samsung's vendor KV command set.
//!
//! The paper's Fig. 8 and the "host-side software stack" findings are all
//! properties of the *command set*, not the flash: each NVMe command is a
//! fixed 64 B capsule with 16 B reserved for an inline key, so any key
//! longer than 16 B needs a **second command** to carry the key — doubling
//! per-operation command processing and measurably cutting bandwidth
//! (~0.53x in the paper). This crate models the link and controller
//! front-end where that cost is paid:
//!
//! * [`KvCommandSet`] — pure accounting of how many commands an operation
//!   needs (and the compound-command what-if from HotStorage '19, the
//!   paper's reference `[10]`),
//! * [`NvmeLink`] — a PCIe transfer resource plus a command front-end
//!   resource that every command serializes through.
//!
//! # Example
//!
//! ```
//! use kvssd_nvme::KvCommandSet;
//!
//! let cs = KvCommandSet::samsung();
//! assert_eq!(cs.commands_for_key(16), 1);
//! assert_eq!(cs.commands_for_key(17), 2); // the Fig. 8 penalty
//! ```

pub mod command;
pub mod link;
pub mod queue;

pub use command::{KvCommandSet, COMMAND_BYTES, INLINE_KEY_BYTES};
pub use link::{NvmeConfig, NvmeLink, NvmeStats};
pub use queue::{SqConfig, SqStats, SubmissionQueue};
