//! [`KvStore`] adapters for the four systems under study.
//!
//! Each adapter owns its whole stack (device included) so experiments
//! compare like against like, and charges the host-side CPU the paper's
//! `dstat` comparison would see: the KV path is a thin API library; the
//! software stores carry their own weight.

use kvssd_block_ftl::BlockSsd;
use kvssd_cluster::KvCluster;
use kvssd_core::{KvSsd, Payload};
use kvssd_hash_store::HashStore;
use kvssd_host_stack::HostCpu;
use kvssd_lsm_store::LsmStore;
use kvssd_sim::{SimDuration, SimTime};

use crate::{KvStore, SpaceUsage};

/// The KV-SSD through the SNIA KV API library: per-op host work is
/// little more than command marshalling.
#[derive(Debug)]
pub struct KvSsdStore {
    device: KvSsd,
    host: HostCpu,
    api_cost: SimDuration,
}

impl KvSsdStore {
    /// Wraps a KV-SSD device.
    pub fn new(device: KvSsd) -> Self {
        KvSsdStore {
            device,
            host: HostCpu::new(8),
            api_cost: SimDuration::from_micros(1),
        }
    }

    /// The device inside (for device-level statistics).
    pub fn device(&self) -> &KvSsd {
        &self.device
    }

    /// Mutable device access (experiments flush between phases).
    pub fn device_mut(&mut self) -> &mut KvSsd {
        &mut self.device
    }
}

impl KvStore for KvSsdStore {
    fn name(&self) -> &'static str {
        "KV-SSD"
    }

    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime {
        let t = self.host.run(now, self.api_cost);
        self.device
            .store(t, key, Payload::synthetic(value_len, tag))
            .expect("store within device limits")
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        let t = self.host.run(now, self.api_cost);
        let l = self.device.retrieve(t, key).expect("valid key");
        (l.at, l.value.is_some())
    }

    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        let t = self.host.run(now, self.api_cost);
        self.device.delete(t, key).expect("valid key").0
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.device.flush(now).expect("flush programs open pages")
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn space(&self) -> SpaceUsage {
        let s = self.device.space();
        SpaceUsage {
            user_bytes: s.user_bytes,
            stored_bytes: s.allocated_bytes,
        }
    }
}

/// A sharded KV-SSD cluster through the same thin API library: the host
/// work per op is identical to [`KvSsdStore`] (hashing a key is noise
/// next to command marshalling), so a 1-shard cluster behind the
/// pass-through submission queue reproduces the single-device numbers
/// bit for bit while N shards scale the device side out.
#[derive(Debug)]
pub struct ClusterStore {
    cluster: KvCluster,
    host: HostCpu,
    api_cost: SimDuration,
}

impl ClusterStore {
    /// Wraps a cluster.
    pub fn new(cluster: KvCluster) -> Self {
        ClusterStore {
            cluster,
            host: HostCpu::new(8),
            api_cost: SimDuration::from_micros(1),
        }
    }

    /// The cluster inside (for shard-level statistics).
    pub fn cluster(&self) -> &KvCluster {
        &self.cluster
    }

    /// Mutable cluster access (experiments add/remove shards).
    pub fn cluster_mut(&mut self) -> &mut KvCluster {
        &mut self.cluster
    }
}

impl KvStore for ClusterStore {
    fn name(&self) -> &'static str {
        "KV-SSD cluster"
    }

    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime {
        let t = self.host.run(now, self.api_cost);
        self.cluster
            .store(t, key, Payload::synthetic(value_len, tag))
            .expect("store within cluster limits")
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        let t = self.host.run(now, self.api_cost);
        let l = self.cluster.retrieve(t, key).expect("valid key");
        (l.at, l.value.is_some())
    }

    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        let t = self.host.run(now, self.api_cost);
        self.cluster.delete(t, key).expect("valid key").0
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.cluster.flush(now).expect("flush programs open pages")
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn space(&self) -> SpaceUsage {
        let s = self.cluster.space();
        SpaceUsage {
            user_bytes: s.user_bytes,
            stored_bytes: s.allocated_bytes,
        }
    }
}

/// The RocksDB-like store on ext4 over the block-SSD.
#[derive(Debug)]
pub struct LsmKvStore {
    store: LsmStore,
}

impl LsmKvStore {
    /// Wraps an LSM store.
    pub fn new(store: LsmStore) -> Self {
        LsmKvStore { store }
    }

    /// The store inside (for stall/compaction statistics).
    pub fn inner(&self) -> &LsmStore {
        &self.store
    }
}

impl KvStore for LsmKvStore {
    fn name(&self) -> &'static str {
        "RocksDB"
    }

    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime {
        self.store.put(now, key, Payload::synthetic(value_len, tag))
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        let (t, v) = self.store.get(now, key);
        (t, v.is_some())
    }

    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        self.store.delete(now, key)
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.store.flush_all(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.store.cpu_busy_total()
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: self.store.user_bytes(),
            stored_bytes: self.store.disk_bytes(),
        }
    }
}

/// The Aerospike-like store with direct device I/O.
#[derive(Debug)]
pub struct HashKvStore {
    store: HashStore,
}

impl HashKvStore {
    /// Wraps a hash store.
    pub fn new(store: HashStore) -> Self {
        HashKvStore { store }
    }

    /// The store inside (for defrag statistics).
    pub fn inner(&self) -> &HashStore {
        &self.store
    }
}

impl KvStore for HashKvStore {
    fn name(&self) -> &'static str {
        "Aerospike"
    }

    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime {
        self.store.put(now, key, Payload::synthetic(value_len, tag))
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        let (t, v) = self.store.get(now, key);
        (t, v.is_some())
    }

    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        self.store.delete(now, key).0
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.store.flush(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.store.cpu().busy_total()
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: self.store.user_bytes(),
            stored_bytes: self.store.live_device_bytes(),
        }
    }
}

/// Raw block-device direct I/O: each key owns a fixed 512 B-aligned slot
/// sized for the value. This is the paper's "block-SSD direct I/O"
/// baseline (Figs. 3–5): same request sizes as the KV side, no store
/// logic at all.
#[derive(Debug)]
pub struct RawBlockStore {
    device: BlockSsd,
    host: HostCpu,
    slot_bytes: u64,
    slots: kvssd_sim::PrehashedMap<Box<[u8]>, u64>,
    next_slot: u64,
    user_bytes: u64,
}

impl RawBlockStore {
    /// Wraps a block device with `value_bytes`-sized slots.
    pub fn new(device: BlockSsd, value_bytes: u32) -> Self {
        let slot_bytes = (value_bytes as u64).div_ceil(512).max(1) * 512;
        RawBlockStore {
            device,
            host: HostCpu::new(8),
            slot_bytes,
            slots: kvssd_sim::PrehashedMap::default(),
            next_slot: 0,
            user_bytes: 0,
        }
    }

    /// The device inside.
    pub fn device(&self) -> &BlockSsd {
        &self.device
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut BlockSsd {
        &mut self.device
    }

    fn slot_of(&mut self, key: &[u8]) -> u64 {
        if let Some(&s) = self.slots.get(key) {
            return s;
        }
        let s = self.next_slot;
        assert!(
            (s + 1) * self.slot_bytes <= self.device.capacity_bytes(),
            "raw store out of slots"
        );
        self.next_slot += 1;
        self.slots.insert(key.into(), s);
        s
    }
}

impl KvStore for RawBlockStore {
    fn name(&self) -> &'static str {
        "Block direct I/O"
    }

    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, _tag: u64) -> SimTime {
        let t = self.host.run(now, SimDuration::from_micros(1));
        let new = !self.slots.contains_key(key);
        let slot = self.slot_of(key);
        if new {
            self.user_bytes += key.len() as u64 + value_len as u64;
        }
        let bytes = (value_len as u64).div_ceil(512).max(1) * 512;
        self.device
            .write(t, slot * self.slot_bytes, bytes.min(self.slot_bytes))
            .expect("raw write in range")
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        let t = self.host.run(now, SimDuration::from_micros(1));
        match self.slots.get(key) {
            Some(&slot) => {
                let done = self
                    .device
                    .read(t, slot * self.slot_bytes, self.slot_bytes)
                    .expect("raw read in range");
                (done, true)
            }
            None => (t, false),
        }
    }

    fn delete(&mut self, now: SimTime, key: &[u8]) -> SimTime {
        let t = self.host.run(now, SimDuration::from_micros(1));
        if let Some(slot) = self.slots.remove(key) {
            self.user_bytes = self.user_bytes.saturating_sub(key.len() as u64);
            return self
                .device
                .trim(t, slot * self.slot_bytes, self.slot_bytes)
                .expect("raw trim in range");
        }
        t
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.device.flush(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: self.user_bytes.max(1),
            stored_bytes: self.slots.len() as u64 * self.slot_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_block_ftl::BlockFtlConfig;
    use kvssd_core::KvConfig;
    use kvssd_flash::{FlashTiming, Geometry};
    use kvssd_hash_store::HashStoreConfig;
    use kvssd_host_stack::ExtFs;
    use kvssd_lsm_store::LsmConfig;

    fn all_stores() -> Vec<Box<dyn KvStore>> {
        let g = Geometry::small();
        let timing = FlashTiming::pm983_like();
        vec![
            Box::new(KvSsdStore::new(KvSsd::new(g, timing, KvConfig::small()))),
            Box::new(ClusterStore::new(KvCluster::for_test_replicated(2, 1))),
            Box::new(LsmKvStore::new(LsmStore::new(
                ExtFs::format(BlockSsd::new(g, timing, BlockFtlConfig::pm983_like())),
                LsmConfig::tiny(),
            ))),
            Box::new(HashKvStore::new(HashStore::new(
                BlockSsd::new(g, timing, BlockFtlConfig::pm983_like()),
                HashStoreConfig::aerospike_like(),
            ))),
            Box::new(RawBlockStore::new(
                BlockSsd::new(g, timing, BlockFtlConfig::pm983_like()),
                4096,
            )),
        ]
    }

    #[test]
    fn every_adapter_reports_space_and_cpu() {
        for mut s in all_stores() {
            let mut t = SimTime::ZERO;
            for i in 0..50u64 {
                t = s.insert(t, format!("spacekey{i:08}").as_bytes(), 1000, i);
            }
            let sp = s.space();
            assert!(sp.user_bytes > 0, "{}", s.name());
            assert!(sp.stored_bytes > 0, "{}", s.name());
            assert!(sp.amplification() >= 0.9, "{}", s.name());
            assert!(
                s.host_cpu_busy() > SimDuration::ZERO,
                "{} reported no CPU",
                s.name()
            );
        }
    }

    #[test]
    fn kv_api_uses_least_host_cpu() {
        let mut stores = all_stores();
        let mut cpu = Vec::new();
        for s in &mut stores {
            let mut t = SimTime::ZERO;
            for i in 0..200u64 {
                t = s.insert(t, format!("cpukey{i:010}").as_bytes(), 512, i);
            }
            cpu.push((s.name(), s.host_cpu_busy()));
        }
        let kv = cpu.iter().find(|(n, _)| *n == "KV-SSD").unwrap().1;
        let rdb = cpu.iter().find(|(n, _)| *n == "RocksDB").unwrap().1;
        assert!(
            kv.as_nanos() * 3 < rdb.as_nanos(),
            "KV API should use far less host CPU ({kv} vs {rdb})"
        );
    }
}
