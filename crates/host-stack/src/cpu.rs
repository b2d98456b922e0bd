//! Host CPU pool and cost constants.
//!
//! The paper's CPU comparison (`dstat` on a 2x Xeon Silver 4208 host) is
//! about *host cycles spent per operation*: RocksDB burns them on
//! memtable/WAL work, compaction, comparisons, and CRCs; Aerospike on its
//! in-memory index; the KV path on little more than command marshalling.
//! [`HostCpu`] accounts those cycles on a pool of cores so utilization
//! can be reported as `busy-time / (elapsed x cores)`.

use kvssd_sim::{ResourcePool, SimDuration, SimTime};

/// A pool of host CPU cores.
#[derive(Debug)]
pub struct HostCpu {
    cores: ResourcePool,
}

impl HostCpu {
    /// Creates a pool of `cores` cores.
    pub fn new(cores: usize) -> Self {
        HostCpu {
            cores: ResourcePool::new(cores),
        }
    }

    /// Runs `work` starting no earlier than `now` on the
    /// earliest-available core; returns the completion time.
    pub fn run(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        if work.is_zero() {
            return now;
        }
        self.cores.acquire(now, work).end
    }

    /// Total busy time across cores.
    pub fn busy_total(&self) -> SimDuration {
        self.cores.busy_total()
    }

    /// Mean utilization over `[0, until]` across cores.
    pub fn utilization(&self, until: SimTime) -> f64 {
        self.cores.utilization(until)
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }
}

/// Host-side per-operation CPU costs (calibration inputs; see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// Syscall / submission overhead per I/O.
    pub syscall: SimDuration,
    /// A key comparison.
    pub compare: SimDuration,
    /// Memory copy, tenths of a nanosecond per byte (0.1 ns/B granular).
    pub memcpy_deci_ns_per_byte: u64,
    /// CRC/checksum, tenths of a nanosecond per byte.
    pub checksum_deci_ns_per_byte: u64,
}

impl CpuCosts {
    /// Xeon-Silver-class defaults: 1.5 us syscall, 80 ns compare,
    /// 0.1 ns/B copy, 0.2 ns/B checksum.
    pub fn xeon_like() -> Self {
        CpuCosts {
            syscall: SimDuration::from_nanos(1_500),
            compare: SimDuration::from_nanos(80),
            memcpy_deci_ns_per_byte: 1,
            checksum_deci_ns_per_byte: 2,
        }
    }

    /// Copy cost for `bytes`.
    pub fn memcpy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * self.memcpy_deci_ns_per_byte / 10)
    }

    /// Checksum cost for `bytes`.
    pub fn checksum(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * self.checksum_deci_ns_per_byte / 10)
    }
}

impl Default for CpuCosts {
    fn default() -> Self {
        Self::xeon_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreground_work_serializes_on_one_core() {
        let mut cpu = HostCpu::new(1);
        let a = cpu.run(SimTime::ZERO, SimDuration::from_micros(10));
        let b = cpu.run(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(b.since(a), SimDuration::from_micros(10));
    }

    #[test]
    fn multiple_cores_run_in_parallel() {
        let mut cpu = HostCpu::new(4);
        let ends: Vec<SimTime> = (0..4)
            .map(|_| cpu.run(SimTime::ZERO, SimDuration::from_micros(10)))
            .collect();
        assert!(ends.iter().all(|&e| e == ends[0]));
    }

    #[test]
    fn utilization_is_fractional() {
        let mut cpu = HostCpu::new(2);
        let _done = cpu.run(SimTime::ZERO, SimDuration::from_micros(50));
        let u = cpu.utilization(SimTime::ZERO + SimDuration::from_micros(100));
        assert!((u - 0.25).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn zero_work_is_free() {
        let mut cpu = HostCpu::new(1);
        assert_eq!(cpu.run(SimTime::ZERO, SimDuration::ZERO), SimTime::ZERO);
        assert_eq!(cpu.busy_total(), SimDuration::ZERO);
    }

    #[test]
    fn cost_helpers_scale() {
        let c = CpuCosts::xeon_like();
        assert!(c.memcpy(100_000) > c.memcpy(1_000));
        assert!(c.checksum(4096) > SimDuration::ZERO);
    }
}
