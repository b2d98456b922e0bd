//! KV vendor command accounting.
//!
//! Models the command-set rules the paper reverse-engineers from the
//! Samsung KV-SSD seminar material (reference `[13]`): 64 B commands,
//! 16 B inline key space, and one extra command per operation whose key
//! does not fit inline.

/// Size of one NVMe submission-queue entry in bytes.
pub const COMMAND_BYTES: u64 = 64;

/// Key bytes that fit inline in a single KV command.
pub const INLINE_KEY_BYTES: usize = 16;

/// The rules for translating KV operations into NVMe commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCommandSet {
    /// Max operations folded into one compound command (the HotStorage
    /// '19 proposal the paper cites as `[10]`); above 1 only in the
    /// ablation benches, 1 (every operation its own command) for the
    /// paper baseline.
    pub compound_batch: usize,
}

impl KvCommandSet {
    /// Samsung's shipped command set: 16 B inline keys, no compounds.
    pub fn samsung() -> Self {
        KvCommandSet { compound_batch: 1 }
    }

    /// The compound-command what-if: consolidate up to `batch` small
    /// operations per command.
    pub fn with_compound(batch: usize) -> Self {
        assert!(batch >= 1, "compound batch must be at least 1");
        KvCommandSet {
            compound_batch: batch,
        }
    }

    /// NVMe commands needed to convey one operation with a key of
    /// `key_len` bytes: 1, plus 1 more if the key does not fit inline.
    pub fn commands_for_key(&self, key_len: usize) -> u64 {
        if key_len <= INLINE_KEY_BYTES {
            1
        } else {
            2
        }
    }
}

impl Default for KvCommandSet {
    fn default() -> Self {
        Self::samsung()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_boundary_is_16_bytes() {
        let cs = KvCommandSet::samsung();
        for len in 4..=16 {
            assert_eq!(cs.commands_for_key(len), 1, "len {len}");
        }
        for len in 17..=255 {
            assert_eq!(cs.commands_for_key(len), 2, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn compound_batch_zero_rejected() {
        let _ = KvCommandSet::with_compound(0);
    }
}
