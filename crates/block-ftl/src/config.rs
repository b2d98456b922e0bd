//! Block-FTL tuning knobs and their calibration rationale.

use kvssd_nvme::NvmeConfig;
use kvssd_sim::SimDuration;

/// Configuration of the block firmware personality.
///
/// Defaults are PM983-class; see `DESIGN.md` ("Calibration"). The values
/// are mechanism inputs — the figure shapes emerge from policy, and the
/// ablation benches sweep the interesting ones.
#[derive(Debug, Clone, Copy)]
pub struct BlockFtlConfig {
    /// Host-visible sector size (bytes). NVMe namespaces expose 512 B.
    pub sector_bytes: u32,
    /// Mapping / ECC cluster size (bytes). Reads and RMWs happen at this
    /// granularity; 4 KiB is the ubiquitous choice.
    pub cluster_bytes: u32,
    /// Fraction of physical blocks held back as over-provisioning, in
    /// percent of total blocks. 12 % is enterprise-class.
    pub overprovision_pct: u32,
    /// Free-block count at which background GC starts stealing die time.
    pub gc_soft_free_blocks: u32,
    /// Free-block count at which writes stall behind foreground GC.
    pub gc_hard_free_blocks: u32,
    /// Clusters of GC copy-work performed per host write while in the
    /// background-GC band.
    pub gc_copies_per_write: u32,
    /// DRAM mapping-table lookup cost (the whole table fits in device
    /// DRAM: ~4 B per 4 KiB cluster, so 1 GiB DRAM covers 1 TiB media —
    /// this is why Fig. 3's block lines are flat).
    pub map_op: SimDuration,
    /// Fixed firmware time per host command after NVMe front-end fetch.
    pub per_cmd_firmware: SimDuration,
    /// Write-buffer capacity in clusters. Host writes complete on buffer
    /// insertion; when the buffer is full they wait for drain.
    pub write_buffer_clusters: u32,
    /// How long the FTL holds a *random* (non-sequential) page before
    /// programming, hoping to coalesce/reorder — the Sec. IV
    /// "reorganization" incentive. Sequential stripes skip the hold.
    pub coalesce_hold: SimDuration,
    /// Idle time after which a partially filled buffer page is flushed
    /// with padding.
    pub partial_flush_timeout: SimDuration,
    /// NVMe link parameters.
    pub nvme: NvmeConfig,
}

impl BlockFtlConfig {
    /// PM983-class defaults.
    pub fn pm983_like() -> Self {
        BlockFtlConfig {
            sector_bytes: 512,
            cluster_bytes: 4096,
            overprovision_pct: 12,
            gc_soft_free_blocks: 24,
            gc_hard_free_blocks: 6,
            gc_copies_per_write: 8,
            map_op: SimDuration::from_nanos(300),
            per_cmd_firmware: SimDuration::from_micros(2),
            write_buffer_clusters: 1024,
            coalesce_hold: SimDuration::from_micros(300),
            partial_flush_timeout: SimDuration::from_millis(1),
            nvme: NvmeConfig::pm983_like(),
        }
    }

    /// Clusters per physical page for a given page size.
    pub fn clusters_per_page(&self, page_bytes: u32) -> u32 {
        assert!(
            page_bytes.is_multiple_of(self.cluster_bytes),
            "page size must be a multiple of the cluster size"
        );
        page_bytes / self.cluster_bytes
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
        assert_eq!(c.cluster_bytes % c.sector_bytes, 0);
        assert_eq!(c.clusters_per_page(32 * 1024), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn odd_page_size_rejected() {
        let c = BlockFtlConfig::pm983_like();
        let _ = c.clusters_per_page(5000);
    }
}
