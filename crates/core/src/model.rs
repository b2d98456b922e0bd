//! Analytical performance model of the KV-SSD.
//!
//! The paper's conclusion: "We also plan to develop an analytical model
//! of KV-SSD performance that can help researchers generate more
//! representative workloads." This module is that model: closed-form
//! predictions of store/retrieve latency and sustained bandwidth from
//! the same configuration constants the simulator runs on — no
//! simulation involved. The integration tests validate the predictions
//! against the simulator (`tests/model_validation.rs` at the workspace
//! root).
//!
//! The model composes the paper's mechanisms:
//!
//! * **Store latency (QD 1)** = NVMe ingestion + key handling on an
//!   index manager + buffer insertion, plus per-continuation offset
//!   management for split blobs and the amortized local-to-global merge
//!   (which grows with index-overflow depth — the Fig. 3 write cliff).
//! * **Retrieve latency (QD 1)** = ingestion + key handling + index
//!   lookup (a flash read when the leaf misses DRAM — the Fig. 3 read
//!   step) + a page read per segment + transfer out.
//! * **Sustained write bandwidth** = the tightest of the flash-program,
//!   channel, and command-front-end ceilings, scaled by how much user
//!   payload fits a page after the 1 KiB-granular packing (Figs. 4/5:
//!   the utilization term is what carves the zig-zag).

use kvssd_flash::{FlashTiming, Geometry};
use kvssd_nvme::NvmeConfig;

use crate::blob::BlobLayout;
use crate::config::{
    key_handling_cost, KvConfig, COST_INDEX_DRAM, COST_OFFSET_MGMT, COST_PACK, INDEX_ENTRY_BYTES,
    INDEX_MANAGERS,
};

/// The analytical model: configuration in, predictions out.
#[derive(Debug, Clone, Copy)]
pub struct KvModel {
    config: KvConfig,
    geometry: Geometry,
    timing: FlashTiming,
}

impl KvModel {
    /// Builds the model for a device configuration.
    pub fn new(config: KvConfig, geometry: Geometry, timing: FlashTiming) -> Self {
        KvModel {
            config,
            geometry,
            timing,
        }
    }

    /// Fraction of index leaf segments resident in device DRAM at a
    /// population of `entries` (1.0 while the index fits).
    pub fn index_resident_fraction(&self, entries: u64) -> f64 {
        let size = entries as f64 * INDEX_ENTRY_BYTES as f64;
        (self.config.index_dram_bytes as f64 / size).min(1.0)
    }

    /// Flash levels a merge rewrites at this population (0 while the
    /// index is DRAM-resident) — mirrors the simulator's depth rule.
    pub fn merge_depth(&self, entries: u64) -> u32 {
        let size = entries * INDEX_ENTRY_BYTES as u64;
        if size <= self.config.index_dram_bytes {
            0
        } else {
            let ratio = size as f64 / self.config.index_dram_bytes as f64;
            if ratio <= 8.0 {
                1
            } else if ratio <= 64.0 {
                2
            } else {
                3
            }
        }
    }

    /// One flash page read's latency contribution (tR + pipeline).
    fn page_read_us(&self, bytes: u64) -> f64 {
        (self.timing.t_cmd_overhead + self.timing.t_read).as_micros_f64()
            + self.timing.read_pipeline_time(bytes).as_micros_f64()
    }

    /// Predicted mean store latency at queue depth 1, microseconds.
    pub fn store_latency_us(&self, key_len: usize, value_len: u64, entries: u64) -> f64 {
        let layout = BlobLayout::plan(&self.config, key_len, value_len);
        let cmds = self.config.command_set.commands_for_key(key_len) as f64;
        let wire = cmds * 64.0 + key_len as f64 + value_len as f64;
        let nvme = NvmeConfig::pm983_like();
        let link = wire / nvme.pcie_bytes_per_sec as f64 * 1e6
            + cmds * nvme.per_command.as_micros_f64()
            + nvme.per_completion.as_micros_f64();
        let handling = key_handling_cost(key_len).as_micros_f64()
            + COST_INDEX_DRAM.as_micros_f64()
            + COST_PACK.as_micros_f64()
            + (layout.segments() as f64 - 1.0) * COST_OFFSET_MGMT.as_micros_f64();
        // Amortized local->global merge: every `batch`-th store pays
        // `depth` flash reads per merged entry.
        let depth = self.merge_depth(entries) as f64;
        let miss = 1.0 - self.index_resident_fraction(entries);
        let merge = depth * miss * self.page_read_us(4096);
        // Split blobs write through: dedicated page programs are on the
        // latency path.
        let write_through = if layout.is_split() {
            (self.timing.t_cmd_overhead + self.timing.t_program).as_micros_f64()
                + self
                    .timing
                    .write_pipeline_time(self.geometry.page_bytes as u64)
                    .as_micros_f64()
        } else {
            1.0 // buffer memcpy
        };
        link + handling + merge + write_through
    }

    /// Predicted mean retrieve latency at queue depth 1, microseconds.
    pub fn retrieve_latency_us(&self, key_len: usize, value_len: u64, entries: u64) -> f64 {
        let layout = BlobLayout::plan(&self.config, key_len, value_len);
        let cmds = self.config.command_set.commands_for_key(key_len) as f64;
        let wire = cmds * 64.0 + key_len as f64;
        let nvme = NvmeConfig::pm983_like();
        let link = wire / nvme.pcie_bytes_per_sec as f64 * 1e6
            + cmds * nvme.per_command.as_micros_f64()
            + (value_len as f64 + 16.0) / nvme.pcie_bytes_per_sec as f64 * 1e6
            + nvme.per_completion.as_micros_f64();
        let handling = key_handling_cost(key_len).as_micros_f64() + COST_INDEX_DRAM.as_micros_f64();
        let miss = 1.0 - self.index_resident_fraction(entries);
        let lookup = miss * self.page_read_us(4096);
        // Head segment read, then continuations overlap (their tR's
        // pipeline on distinct dies; the head's completes first).
        let head = self.page_read_us(layout.segment_raw[0] as u64);
        let conts = if layout.is_split() {
            self.page_read_us(*layout.segment_raw.last().expect("split has tail") as u64)
        } else {
            0.0
        };
        link + handling + lookup + head + conts
    }

    /// Predicted sustained insert bandwidth at high queue depth, in user
    /// MB/s (decimal), for fixed-size values.
    pub fn write_bandwidth_mbps(&self, key_len: usize, value_len: u64) -> f64 {
        let layout = BlobLayout::plan(&self.config, key_len, value_len);
        let page_bytes = self.geometry.page_bytes as u64;
        // Pages consumed per blob: co-packed small blobs share pages;
        // split blobs take a dedicated page per segment.
        let pages_per_blob = if layout.is_split() {
            layout.segments() as f64
        } else {
            let per_page = (self.config.page_payload_bytes / layout.segment_alloc[0]).max(1) as f64;
            1.0 / per_page
        };
        // Ceiling 1: die program throughput.
        let t_prog = (self.timing.t_cmd_overhead + self.timing.t_program).as_secs_f64();
        let die_pages_per_sec = self.geometry.dies() as f64 / t_prog;
        // Ceiling 2: channel intake.
        let ch_pages_per_sec = self.geometry.channels as f64
            / self.timing.write_pipeline_time(page_bytes).as_secs_f64();
        // Ceiling 3: command front-end.
        let cmds = self.config.command_set.commands_for_key(key_len) as f64;
        let fe_ops_per_sec = 1.0 / (cmds * NvmeConfig::pm983_like().per_command.as_secs_f64());
        // Ceiling 4: manager key handling across index managers.
        let mgr_ops_per_sec = INDEX_MANAGERS as f64 / key_handling_cost(key_len).as_secs_f64();
        let pages_per_sec = die_pages_per_sec.min(ch_pages_per_sec);
        let ops_per_sec = (pages_per_sec / pages_per_blob)
            .min(fe_ops_per_sec)
            .min(mgr_ops_per_sec);
        ops_per_sec * value_len as f64 / 1e6
    }

    /// Predicted write-latency degradation factor from a resident index
    /// to `entries` records (the Fig. 3 headline ratio).
    pub fn write_degradation(&self, key_len: usize, value_len: u64, entries: u64) -> f64 {
        self.store_latency_us(key_len, value_len, entries)
            / self.store_latency_us(key_len, value_len, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KvModel {
        KvModel::new(
            KvConfig::pm983_scaled(),
            Geometry::pm983_scaled(),
            FlashTiming::pm983_like(),
        )
    }

    #[test]
    fn residency_saturates_at_one() {
        let m = model();
        assert_eq!(m.index_resident_fraction(10), 1.0);
        assert!(m.index_resident_fraction(10_000_000) < 0.1);
    }

    #[test]
    fn merge_depth_steps_with_population() {
        let m = model();
        assert_eq!(m.merge_depth(1_000), 0);
        assert!(m.merge_depth(500_000) >= 1);
        assert!(m.merge_depth(3_000_000) >= 2);
    }

    #[test]
    fn store_latency_grows_with_population() {
        let m = model();
        let low = m.store_latency_us(16, 512, 1_000);
        let high = m.store_latency_us(16, 512, 1_200_000);
        assert!(
            high / low > 5.0,
            "occupancy cliff should appear in the model ({low} -> {high})"
        );
    }

    #[test]
    fn split_blobs_cost_more_to_store_and_read() {
        let m = model();
        let small_w = m.store_latency_us(16, 24 * 1024, 1_000);
        let big_w = m.store_latency_us(16, 25 * 1024, 1_000);
        assert!(big_w > small_w * 2.0, "{small_w} -> {big_w}");
        let small_r = m.retrieve_latency_us(16, 24 * 1024, 1_000);
        let big_r = m.retrieve_latency_us(16, 25 * 1024, 1_000);
        assert!(big_r > small_r * 1.3, "{small_r} -> {big_r}");
    }

    #[test]
    fn bandwidth_dips_past_the_page_budget() {
        let m = model();
        let at = |v: u64| m.write_bandwidth_mbps(16, v);
        assert!(at(25 * 1024) < at(24 * 1024) * 0.75);
        assert!(at(48 * 1024) > at(25 * 1024) * 1.2);
        assert!(at(49 * 1024) < at(48 * 1024) * 0.85);
    }

    /// Every prediction over a grid of key lengths, value lengths and
    /// populations, folded bit for bit. Pinned so a change to where the
    /// model reads its constants from cannot move a prediction.
    const PREDICTION_HISTORY: u64 = 0xD881_7570_96F2_F233;

    #[test]
    fn predictions_match_pinned_history() {
        use kvssd_sim::mix64;
        let m = model();
        let mut fold = 0u64;
        let mut mix = |v: u64| fold = mix64(fold ^ v);
        for entries in [1, 1_000, 90_000, 500_000, 3_000_000] {
            mix(m.index_resident_fraction(entries).to_bits());
            mix(u64::from(m.merge_depth(entries)));
            for key_len in [4, 16, 20, 255] {
                for value_len in [0, 128, 4096, 24 * 1024, 25 * 1024, 100_000, 2 << 20] {
                    mix(m.store_latency_us(key_len, value_len, entries).to_bits());
                    mix(m.retrieve_latency_us(key_len, value_len, entries).to_bits());
                    mix(m.write_bandwidth_mbps(key_len, value_len).to_bits());
                    mix(m.write_degradation(key_len, value_len, entries).to_bits());
                }
            }
        }
        assert_eq!(fold, PREDICTION_HISTORY, "{fold:#X}");
    }

    #[test]
    fn second_nvme_command_halves_small_value_throughput() {
        let m = model();
        let short = m.write_bandwidth_mbps(16, 128);
        let long = m.write_bandwidth_mbps(20, 128);
        let ratio = long / short;
        assert!(
            (0.4..0.7).contains(&ratio),
            "two-command keys should land near 0.5x ({ratio})"
        );
    }
}
