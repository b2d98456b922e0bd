//! Value payloads: real bytes or synthetic descriptors.
//!
//! Macro experiments store millions of KVPs whose *contents* never matter
//! — only their sizes do. [`Payload::Synthetic`] carries just a length and
//! a tag so such runs do not materialize gigabytes in host memory, while
//! [`Payload::Bytes`] gives the library real storage semantics (and lets
//! tests verify data integrity end to end). The device treats both
//! identically for timing and space accounting.
//!
//! Real bytes live behind an `Arc<Vec<u8>>` so cloning a payload — which
//! retrieve does once per hit — is a refcount bump, not a value copy.
//! The `Arc` of a `Vec` is one thin pointer where an `Arc<[u8]>` is a
//! fat one, so a payload is 16 B: it sits inside every index slot, and
//! the slot must stay one 64 B cache line (see `index.rs`).

use std::sync::Arc;

/// A value payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes, returned verbatim on retrieve (shared, not copied).
    Bytes(Arc<Vec<u8>>),
    /// A sized placeholder: `len` bytes of notional data identified by
    /// `tag` (so tests can check the right payload came back).
    Synthetic {
        /// Notional length in bytes.
        len: u32,
        /// Caller-chosen identity tag.
        tag: u64,
    },
}

impl Payload {
    /// Wraps real bytes (a `Vec` is adopted, not copied).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Payload::Bytes(Arc::new(bytes.into()))
    }

    /// A synthetic payload of `len` bytes tagged `tag`.
    pub fn synthetic(len: u32, tag: u64) -> Self {
        Payload::Synthetic { len, tag }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic { len, .. } => *len as u64,
        }
    }

    /// True for zero-length payloads (legal on the device: value length
    /// may be 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, if this payload is real.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Synthetic { .. } => None,
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_bytes(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from_bytes(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_payload_round_trips() {
        let p = Payload::from_bytes(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.as_bytes(), Some(&[1u8, 2, 3][..]));
        assert!(!p.is_empty());
    }

    #[test]
    fn synthetic_payload_has_no_bytes() {
        let p = Payload::synthetic(4096, 77);
        assert_eq!(p.len(), 4096);
        assert_eq!(p.as_bytes(), None);
    }

    #[test]
    fn zero_length_values_are_legal() {
        assert!(Payload::from_bytes(vec![]).is_empty());
        assert!(Payload::synthetic(0, 0).is_empty());
    }

    #[test]
    fn clone_is_a_refcount_bump() {
        let p = Payload::from_bytes(vec![7u8; 64]);
        let q = p.clone();
        assert_eq!(
            p.as_bytes().unwrap().as_ptr(),
            q.as_bytes().unwrap().as_ptr(),
            "cloning a byte payload must share storage, not copy it"
        );
    }

    #[test]
    fn from_bytes_adopts_the_vec() {
        let v = vec![5u8; 64];
        let at = v.as_ptr();
        let p = Payload::from_bytes(v);
        assert_eq!(p.as_bytes().unwrap().as_ptr(), at);
    }

    #[test]
    fn conversions() {
        let p: Payload = vec![9u8].into();
        assert_eq!(p.len(), 1);
        let p: Payload = (&[1u8, 2][..]).into();
        assert_eq!(p.len(), 2);
    }
}
