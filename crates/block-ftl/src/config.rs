//! Block-FTL tuning knobs, the fixed calibration, and its rationale.
//!
//! Defaults are PM983-class; see `DESIGN.md` ("Calibration"). The values
//! are mechanism inputs — the figure shapes emerge from policy.

use kvssd_sim::SimDuration;

/// Host-visible sector size (bytes). NVMe namespaces expose 512 B.
pub const SECTOR_BYTES: u64 = 512;
/// Mapping / ECC cluster size (bytes). Reads and RMWs happen at this
/// granularity; 4 KiB is the ubiquitous choice.
pub const CLUSTER_BYTES: u64 = 4096;
/// Fraction of physical blocks held back as over-provisioning, in
/// percent of total blocks. 12 % is enterprise-class.
pub const OVERPROVISION_PCT: u64 = 12;
/// Clusters of GC copy-work performed per host write while in the
/// background-GC band.
pub const GC_COPIES_PER_WRITE: u32 = 8;
/// DRAM mapping-table lookup cost (the whole table fits in device DRAM:
/// ~4 B per 4 KiB cluster, so 1 GiB DRAM covers 1 TiB media — this is
/// why Fig. 3's block lines are flat).
pub const MAP_OP: SimDuration = SimDuration::from_nanos(300);
/// Fixed firmware time per host command after NVMe front-end fetch.
pub const PER_CMD_FIRMWARE: SimDuration = SimDuration::from_micros(2);
/// How long the FTL holds a *random* (non-sequential) page before
/// programming, hoping to coalesce/reorder — the Sec. IV
/// "reorganization" incentive. Sequential stripes skip the hold.
pub const COALESCE_HOLD: SimDuration = SimDuration::from_micros(300);
/// Idle time after which a partially filled buffer page is flushed with
/// padding.
pub const PARTIAL_FLUSH_TIMEOUT: SimDuration = SimDuration::from_millis(1);

const _: () = assert!(CLUSTER_BYTES.is_multiple_of(SECTOR_BYTES));

/// Clusters per physical page for a given page size.
///
/// # Panics
///
/// Panics if `page_bytes` is not a multiple of [`CLUSTER_BYTES`].
pub fn clusters_per_page(page_bytes: u32) -> u32 {
    let page_bytes = u64::from(page_bytes);
    assert!(
        page_bytes.is_multiple_of(CLUSTER_BYTES),
        "page size must be a multiple of the cluster size"
    );
    (page_bytes / CLUSTER_BYTES) as u32
}

/// Configuration of the block firmware personality: what callers vary.
#[derive(Debug, Clone, Copy)]
pub struct BlockFtlConfig {
    /// Free-block count at which background GC starts stealing die time.
    pub gc_soft_free_blocks: u32,
    /// Free-block count at which writes stall behind foreground GC.
    pub gc_hard_free_blocks: u32,
    /// Write-buffer capacity in clusters. Host writes complete on buffer
    /// insertion; when the buffer is full they wait for drain.
    pub write_buffer_clusters: u32,
}

impl BlockFtlConfig {
    /// PM983-class defaults.
    pub fn pm983_like() -> Self {
        BlockFtlConfig {
            gc_soft_free_blocks: 24,
            gc_hard_free_blocks: 6,
            write_buffer_clusters: 1024,
        }
    }
}

impl Default for BlockFtlConfig {
    fn default() -> Self {
        Self::pm983_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = BlockFtlConfig::pm983_like();
        assert!(c.gc_hard_free_blocks < c.gc_soft_free_blocks);
        assert_eq!(clusters_per_page(32 * 1024), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn odd_page_size_rejected() {
        let _ = clusters_per_page(5000);
    }
}
