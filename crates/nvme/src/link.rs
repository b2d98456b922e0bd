//! The NVMe link: PCIe data movement plus controller command front-end.
//!
//! Two shared resources shape host-visible behavior:
//!
//! * the **front-end**: every submitted command (including the extra
//!   key-carrying command for > 16 B keys) costs fixed firmware time to
//!   fetch, parse, and dispatch; commands serialize through it. This is
//!   the bottleneck Fig. 8 exposes.
//! * the **PCIe link**: command capsules and data payloads share link
//!   bandwidth in both directions (modeled as one full-duplex-ish
//!   resource per direction).

use kvssd_sim::{Resource, SimDuration, SimTime};

use crate::command::COMMAND_BYTES;

/// Link and front-end timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeConfig {
    /// Firmware time to fetch/parse/dispatch one command capsule.
    pub per_command: SimDuration,
    /// PCIe bandwidth per direction, bytes/second.
    pub pcie_bytes_per_sec: u64,
    /// Cost to post a completion entry back to the host.
    pub per_completion: SimDuration,
}

impl NvmeConfig {
    /// PM983-class defaults: ~2.5 us command handling, PCIe 3.0 x4
    /// (~3.2 GB/s per direction), 0.5 us completion posting.
    pub fn pm983_like() -> Self {
        NvmeConfig {
            per_command: SimDuration::from_nanos(2_500),
            pcie_bytes_per_sec: 3_200_000_000,
            per_completion: SimDuration::from_nanos(500),
        }
    }
}

impl Default for NvmeConfig {
    fn default() -> Self {
        Self::pm983_like()
    }
}

/// Link traffic counters.
#[derive(Debug, Clone, Default)]
pub struct NvmeStats {
    /// Command capsules processed.
    pub commands: u64,
    /// Data bytes moved host -> device.
    pub bytes_in: u64,
    /// Data bytes moved device -> host.
    pub bytes_out: u64,
    /// Completions posted.
    pub completions: u64,
}

/// The shared host-device transport (see module docs).
#[derive(Debug)]
pub struct NvmeLink {
    config: NvmeConfig,
    front_end: Resource,
    pcie_in: Resource,
    pcie_out: Resource,
    stats: NvmeStats,
}

impl NvmeLink {
    /// Creates an idle link.
    pub fn new(config: NvmeConfig) -> Self {
        NvmeLink {
            config,
            front_end: Resource::new(),
            pcie_in: Resource::new(),
            pcie_out: Resource::new(),
            stats: NvmeStats::default(),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &NvmeConfig {
        &self.config
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NvmeStats {
        &self.stats
    }

    /// Submits an operation encoded as `commands` capsules with
    /// `payload_bytes` of host-to-device data (store/write direction).
    ///
    /// Returns when the command and its data are available to the
    /// firmware. Capsules and payload move over the inbound PCIe
    /// resource; each capsule then pays front-end processing.
    /// `commands` may be 0 for operations that ride an earlier compound
    /// capsule (the HotStorage '19 consolidation what-if): only payload
    /// moves, no front-end work.
    pub fn submit(&mut self, now: SimTime, commands: u64, payload_bytes: u64) -> SimTime {
        assert!(
            commands >= 1 || payload_bytes > 0,
            "an operation needs a command or a payload"
        );
        let wire_bytes = commands * COMMAND_BYTES + payload_bytes;
        let xfer = self.pcie_in.acquire(
            now,
            SimDuration::for_bytes(wire_bytes, self.config.pcie_bytes_per_sec),
        );
        let fe = self
            .front_end
            .acquire_after(now, xfer.end, self.config.per_command * commands);
        self.stats.commands += commands;
        self.stats.bytes_in += payload_bytes;
        fe.end
    }

    /// Returns the operation's data (`payload_bytes`, device-to-host) and
    /// posts a completion. `ready` is when the device finished the
    /// operation internally.
    ///
    /// Completion posting is DMA-engine work and does **not** occupy the
    /// command front-end: completions finish late, and funneling them
    /// through the submission pipeline would (wrongly) stall every later
    /// command behind the previous operation's completion.
    pub fn complete(&mut self, ready: SimTime, payload_bytes: u64) -> SimTime {
        let xfer = self.pcie_out.acquire(
            ready,
            SimDuration::for_bytes(payload_bytes + 16, self.config.pcie_bytes_per_sec),
        );
        self.stats.bytes_out += payload_bytes;
        self.stats.completions += 1;
        xfer.end + self.config.per_completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> NvmeLink {
        NvmeLink::new(NvmeConfig::pm983_like())
    }

    #[test]
    fn single_command_cost_is_transfer_plus_front_end() {
        let mut l = link();
        let t = l.submit(SimTime::ZERO, 1, 0);
        let expected =
            SimDuration::for_bytes(64, l.config().pcie_bytes_per_sec) + l.config().per_command;
        assert_eq!(t.since(SimTime::ZERO), expected);
    }

    #[test]
    fn two_command_key_costs_nearly_double_front_end() {
        let mut a = link();
        let mut b = link();
        let one = a.submit(SimTime::ZERO, 1, 0).since(SimTime::ZERO);
        let two = b.submit(SimTime::ZERO, 2, 0).since(SimTime::ZERO);
        assert!(two > one);
        assert!(two.as_nanos() >= one.as_nanos() + a.config().per_command.as_nanos());
    }

    #[test]
    fn front_end_serializes_concurrent_submissions() {
        let mut l = link();
        let t1 = l.submit(SimTime::ZERO, 1, 0);
        let t2 = l.submit(SimTime::ZERO, 1, 0);
        assert!(t2 > t1);
    }

    #[test]
    fn payload_rides_the_inbound_link() {
        let mut small = link();
        let mut big = link();
        let ts = small.submit(SimTime::ZERO, 1, 4096);
        let tb = big.submit(SimTime::ZERO, 1, 1 << 20);
        assert!(tb > ts);
        assert_eq!(big.stats().bytes_in, 1 << 20);
    }

    #[test]
    fn completion_moves_data_out() {
        let mut l = link();
        let done = l.complete(SimTime::ZERO, 4096);
        assert!(done > SimTime::ZERO);
        assert_eq!(l.stats().bytes_out, 4096);
        assert_eq!(l.stats().completions, 1);
    }

    #[test]
    fn completions_do_not_block_later_submissions() {
        // A late completion must not push the front-end timeline: the
        // next submission still sees only submission traffic ahead.
        let mut a = link();
        let solo = a.submit(SimTime::ZERO, 1, 0);
        let mut b = link();
        let _done = b.complete(SimTime::ZERO + SimDuration::from_millis(5), 0);
        let after_completion = b.submit(SimTime::ZERO, 1, 0);
        assert_eq!(
            solo.since(SimTime::ZERO),
            after_completion.since(SimTime::ZERO)
        );
    }

    #[test]
    #[should_panic(expected = "command or a payload")]
    fn empty_submission_rejected() {
        let mut l = link();
        let _ = l.submit(SimTime::ZERO, 0, 0);
    }

    #[test]
    fn compound_rider_pays_no_front_end() {
        let mut l = link();
        let t = l.submit(SimTime::ZERO, 0, 4096);
        assert!(t.since(SimTime::ZERO) < SimDuration::from_micros(2));
    }
}
