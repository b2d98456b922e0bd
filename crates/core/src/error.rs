//! KV device errors.

use std::fmt;

use kvssd_flash::Undrainable;

/// Errors returned by the KV device API.
///
/// These are *usage* errors (limit violations, device exhaustion).
/// A missing key is not an error — lookups report it as data
/// (`Lookup::value == None`), since not-found is a routine, timed outcome
/// the experiments measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Key shorter than the device minimum (4 B on the PM983).
    KeyTooShort {
        /// Offending length.
        len: usize,
        /// Device minimum.
        min: usize,
    },
    /// Key longer than the device maximum (255 B on the PM983).
    KeyTooLong {
        /// Offending length.
        len: usize,
        /// Device maximum.
        max: usize,
    },
    /// Value larger than the device maximum (2 MiB on the PM983).
    ValueTooLarge {
        /// Offending length.
        len: u64,
        /// Device maximum.
        max: u64,
    },
    /// No space left even after garbage collection: the device cannot
    /// accept the blob.
    DeviceFull,
    /// The global index has reached its slot budget — the paper's
    /// "maximum number of KVPs" limit (~3.1 B on a 3.84 TB device).
    IndexFull {
        /// The configured slot budget.
        max_kvps: u64,
    },
    /// An iterator handle that is not open.
    BadIterator,
    /// A replicated cluster operation could not assemble its quorum:
    /// fewer replica legs acknowledged than the quorum requires (a
    /// lossy or partitioned transport swallowed the rest, even after
    /// any configured per-leg deadline retries). Legs that did execute
    /// stay applied on their devices — for a write this means the data
    /// may be *partially replicated* (durable on the acked replicas,
    /// and possibly on replicas whose acknowledgement was lost), which
    /// the payload exposes instead of leaving callers to guess.
    QuorumUnavailable {
        /// Replica legs that acknowledged.
        acked: usize,
        /// Acknowledgements the quorum required.
        quorum: usize,
        /// Which replica-set lanes acknowledged, as a bitmask (bit `i`
        /// = the `i`-th replica in placement order, the primary being
        /// lane 0). `acked_replicas.count_ones() == acked` whenever
        /// the replica set holds at most 64 lanes.
        acked_replicas: u64,
        /// True when the failed operation was a mutation (store or
        /// delete): the acked lanes durably applied it, so repair can
        /// re-converge the stragglers from a surviving copy.
        write: bool,
    },
    /// An internal invariant did not hold. Every construction site of
    /// this variant is a path the model believes unreachable — it exists
    /// so hot-path code can surface a broken invariant as a typed error
    /// (and the panic-surface ratchet can shrink) instead of aborting an
    /// experiment mid-figure with `unwrap`/`panic!`.
    Internal {
        /// A static description of the violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::KeyTooShort { len, min } => {
                write!(f, "key of {len} B below device minimum of {min} B")
            }
            KvError::KeyTooLong { len, max } => {
                write!(f, "key of {len} B above device maximum of {max} B")
            }
            KvError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} B above device maximum of {max} B")
            }
            KvError::DeviceFull => write!(f, "device full: no reclaimable space"),
            KvError::IndexFull { max_kvps } => {
                write!(f, "index full: device KVP limit of {max_kvps} reached")
            }
            KvError::BadIterator => write!(f, "iterator handle is not open"),
            KvError::QuorumUnavailable {
                acked,
                quorum,
                acked_replicas,
                write,
            } => {
                write!(
                    f,
                    "quorum unavailable: {acked} of {quorum} required replica leg(s) acknowledged \
                     (lane mask {acked_replicas:#b})"
                )?;
                if *write && *acked > 0 {
                    write!(f, "; data partially replicated on the acked lanes")?;
                }
                Ok(())
            }
            KvError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for KvError {}

impl From<Undrainable> for KvError {
    fn from(_: Undrainable) -> Self {
        KvError::Internal {
            what: "GC failed to drain its victim block",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_limits() {
        let e = KvError::KeyTooLong { len: 300, max: 255 };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("255"));
        let e = KvError::IndexFull { max_kvps: 42 };
        assert!(e.to_string().contains("42"));
        let e = KvError::QuorumUnavailable {
            acked: 1,
            quorum: 2,
            acked_replicas: 0b100,
            write: true,
        };
        assert!(e.to_string().contains("1 of 2"));
        assert!(e.to_string().contains("0b100"));
        assert!(e.to_string().contains("partially replicated"));
        let e = KvError::QuorumUnavailable {
            acked: 0,
            quorum: 2,
            acked_replicas: 0,
            write: false,
        };
        assert!(!e.to_string().contains("partially replicated"));
    }

    #[test]
    fn internal_names_the_invariant() {
        let e = KvError::Internal {
            what: "victim selected whenever reclaimable space exists",
        };
        assert!(e.to_string().contains("internal invariant"));
        assert!(e.to_string().contains("victim selected"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(KvError::DeviceFull);
        assert!(e.to_string().contains("full"));
    }
}
