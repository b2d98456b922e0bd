//! KV firmware configuration and calibration constants.
//!
//! Every constant here is a *mechanism input* (see `DESIGN.md`,
//! "Calibration"): limits come from the Samsung KV API spec quoted in the
//! paper's Sec. II, layout constants from the paper's Sec. IV inferences
//! (32 KiB physical pages with a ~24 KiB value budget, 1 KiB minimum
//! allocation), and firmware CPU costs are tens-of-microseconds key
//! handling consistent with the paper's QD-1 latency gap vs. block I/O.

use kvssd_nvme::KvCommandSet;
use kvssd_sim::SimDuration;

/// Minimum key length (4 B on the PM983 KV-SSD). It also makes a key's
/// iterator bucket (its first four bytes) a contiguous key range.
pub const KEY_MIN: usize = 4;
/// Maximum key length (255 B).
pub const KEY_MAX: usize = 255;
/// Maximum value length (2 MiB).
pub const VALUE_MAX: u64 = 2 * 1024 * 1024;
/// Per-blob metadata bytes stored with the pair (key size, value size,
/// namespace, ... — Sec. II).
pub const META_BYTES: u32 = 32;
/// Header bytes on each continuation segment of a split blob.
pub const SEG_HEADER_BYTES: u32 = 16;
/// Number of index managers (partitioned firmware cores handling hashing
/// and index operations).
pub const INDEX_MANAGERS: usize = 4;
/// Local-index entries accumulated per manager before a merge into the
/// global index.
pub const LOCAL_INDEX_ENTRIES: usize = 32;
/// Bytes per global-index entry (hash, fingerprint, location(s), sizes —
/// the multi-level table's amortized per-record footprint).
pub const INDEX_ENTRY_BYTES: u32 = 48;
/// Fraction of blocks reserved for flash-resident index levels, percent
/// of total.
pub const INDEX_RESERVE_PCT: u32 = 5;
/// Fraction of blocks reserved: over-provisioning percent.
pub const OVERPROVISION_PCT: u32 = 7;
/// Blob segments copied per store while in the background-GC band.
pub const GC_COPIES_PER_STORE: u32 = 8;

// --- firmware CPU costs (per index-manager core) ---
/// Fixed key-hashing cost.
pub const COST_HASH: SimDuration = SimDuration::from_micros(3);
/// Additional hashing cost per key byte.
pub const COST_HASH_PER_BYTE: SimDuration = SimDuration::from_nanos(20);
/// Bloom-filter membership check.
pub const COST_MEMBERSHIP: SimDuration = SimDuration::from_micros(1);
/// DRAM-resident index operation (lookup or local insert).
pub const COST_INDEX_DRAM: SimDuration = SimDuration::from_micros(2);
/// Extra bookkeeping per continuation segment (offset pointer management
/// for split blobs).
pub const COST_OFFSET_MGMT: SimDuration = SimDuration::from_micros(3);
/// Packing cost per blob (append bookkeeping into the open page).
pub const COST_PACK: SimDuration = SimDuration::from_micros(2);

const _: () = assert!(KEY_MIN >= 1 && KEY_MIN <= KEY_MAX);
const _: () = assert!(KEY_MAX <= 255, "KV API caps keys at 255 B");
const _: () = assert!(INDEX_MANAGERS >= 1 && LOCAL_INDEX_ENTRIES >= 1);

/// Key-handling CPU cost for a key of `len` bytes (hash + membership
/// machinery, before any index structure access).
pub fn key_handling_cost(len: usize) -> SimDuration {
    COST_HASH + COST_HASH_PER_BYTE * len as u64 + COST_MEMBERSHIP
}

/// Configuration of the KV firmware personality: the budgets that scale
/// with the device and the ablation switches. The fixed calibration is
/// the constants above.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Minimum allocation unit. The paper infers 1 KiB (ECC-sector
    /// argument, Sec. IV "space amplification") — blobs smaller than this
    /// are padded to it.
    pub alloc_unit: u32,
    /// Alignment of allocations beyond the minimum unit ("packs data very
    /// tightly beyond 1KB").
    pub fine_align: u32,
    /// Usable payload bytes per 32 KiB physical page; the rest is
    /// reserved for recovery/erasure data. 25 088 B lets a 24 KiB value
    /// plus metadata and a max-size key fit in one page, matching the
    /// paper's Fig. 5 boundary at 24 KiB.
    pub page_payload_bytes: u32,
    /// Device DRAM dedicated to caching the global index. Scaled with the
    /// 4 GiB default geometry exactly as the PM983's DRAM scales with
    /// 3.84 TB, so the Fig. 3 overflow happens at the same *relative*
    /// occupancy.
    pub index_dram_bytes: u64,
    /// Global index slot budget — the device KVP limit (~3.1 B on
    /// 3.84 TB; scaled so that, like the real device, the limit binds
    /// slightly *below* `capacity / 1 KiB` and tiny-value fills hit the
    /// KVP ceiling rather than the flash.
    pub max_kvps: u64,
    /// Bloom filter bits per expected key, per index manager.
    pub bloom_bits_per_key: u32,
    /// Whether index managers consult Bloom filters at all (ablation
    /// switch; the shipped firmware has them on).
    pub bloom_enabled: bool,
    /// Volatile write-buffer capacity in bytes.
    pub write_buffer_bytes: u64,
    /// Idle time after which a partially filled open page is programmed
    /// with padding.
    pub partial_flush_timeout: SimDuration,
    /// Free-block watermark where background GC starts.
    pub gc_soft_free_blocks: u32,
    /// Free-block watermark where writes stall behind foreground GC.
    pub gc_hard_free_blocks: u32,
    /// Whether iterator buckets retain key copies (disable for macro runs
    /// that never iterate, to bound host memory).
    pub iterator_buckets: bool,
    /// KV command-set rules (inline key limit, compound what-if).
    pub command_set: KvCommandSet,
}

impl KvConfig {
    /// Defaults scaled for the 4 GiB `Geometry::pm983_scaled()` substrate.
    ///
    /// Scale factor vs. the real 3.84 TB device is ~983x; the index DRAM
    /// budget (4 MiB here vs. ~4 GiB-class there) and the KVP limit
    /// (3.2 M here vs. ~3.1 B there) shrink by the same factor.
    pub fn pm983_scaled() -> Self {
        KvConfig {
            alloc_unit: 1024,
            fine_align: 64,
            page_payload_bytes: 25_088,
            index_dram_bytes: 4 * 1024 * 1024,
            max_kvps: 2_600_000,
            bloom_bits_per_key: 10,
            bloom_enabled: true,
            write_buffer_bytes: 4 * 1024 * 1024,
            partial_flush_timeout: SimDuration::from_millis(1),
            gc_soft_free_blocks: 24,
            gc_hard_free_blocks: 6,
            iterator_buckets: true,
            command_set: KvCommandSet::samsung(),
        }
    }

    /// A configuration for unit tests on `Geometry::small()` (16 MiB):
    /// tiny watermarks and KVP budget, iterator buckets on.
    pub fn small() -> Self {
        KvConfig {
            index_dram_bytes: 64 * 1024,
            max_kvps: 50_000,
            gc_soft_free_blocks: 6,
            gc_hard_free_blocks: 2,
            write_buffer_bytes: 256 * 1024,
            ..Self::pm983_scaled()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on contradictory settings; call after hand-building configs.
    pub fn validate(&self) {
        assert!(self.alloc_unit >= self.fine_align);
        assert!(self.alloc_unit.is_power_of_two());
        assert!(self.fine_align.is_power_of_two());
        assert!(self.gc_hard_free_blocks < self.gc_soft_free_blocks);
        assert!(
            self.page_payload_bytes as u64 >= META_BYTES as u64 + KEY_MAX as u64 + 1024,
            "page payload must fit metadata, a max key, and some value"
        );
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        Self::pm983_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        KvConfig::pm983_scaled().validate();
        KvConfig::small().validate();
    }

    #[test]
    fn key_handling_cost_scales_with_length() {
        assert!(key_handling_cost(255) > key_handling_cost(16));
    }

    #[test]
    fn page_budget_matches_paper_boundary() {
        let c = KvConfig::pm983_scaled();
        // A 24 KiB value + metadata + a 16 B key fits one page...
        assert!(24 * 1024 + META_BYTES + 16 <= c.page_payload_bytes);
        // ...but a 25 KiB value does not (the Fig. 5 dip).
        assert!(25 * 1024 + META_BYTES + 16 > c.page_payload_bytes);
    }

    #[test]
    #[should_panic]
    fn validate_catches_bad_watermarks() {
        let mut c = KvConfig::pm983_scaled();
        c.gc_hard_free_blocks = c.gc_soft_free_blocks;
        c.validate();
    }
}
