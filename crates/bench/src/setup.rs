//! Shared device and store constructors for the experiments.
//!
//! Every experiment builds its systems from here so all comparisons run
//! on the same scaled PM983 substrate (geometry + timing), differing only
//! in firmware/stack — the paper's methodology.

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_cluster::{ClusterConfig, InProcess, KvCluster, Transport};
use kvssd_core::{KvConfig, KvSsd};
use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
use kvssd_flash::{FlashTiming, Geometry};
use kvssd_hash_store::{HashStore, HashStoreConfig};
use kvssd_host_stack::ExtFs;
use kvssd_kvbench::{HashKvStore, KvSsdStore, LsmKvStore, RawBlockStore};
use kvssd_lsm_store::{LsmConfig, LsmStore};

use crate::Scale;

/// The shared hardware: scaled PM983 geometry.
pub fn geometry() -> Geometry {
    Geometry::pm983_scaled()
}

/// The shared hardware: PM983-class NAND timing.
pub fn timing() -> FlashTiming {
    FlashTiming::pm983_like()
}

/// A fresh KV-firmware device with default (scaled) configuration.
pub fn kv_ssd() -> KvSsdStore {
    KvSsdStore::new(KvSsd::new(geometry(), timing(), KvConfig::pm983_scaled()))
}

/// A KV-firmware device with a custom configuration.
pub fn kv_ssd_with(config: KvConfig) -> KvSsdStore {
    KvSsdStore::new(KvSsd::new(geometry(), timing(), config))
}

/// A KV configuration for macro runs: iterator buckets off so host
/// memory stays bounded at millions of keys.
pub fn kv_config_macro() -> KvConfig {
    KvConfig {
        iterator_buckets: false,
        ..KvConfig::pm983_scaled()
    }
}

/// A fresh block-firmware device.
pub fn block_ssd() -> BlockSsd {
    BlockSsd::new(geometry(), timing(), BlockFtlConfig::pm983_like())
}

/// Raw block direct I/O with `value_bytes`-sized slots (the Figs. 3–5
/// baseline).
pub fn block_direct(value_bytes: u32) -> RawBlockStore {
    RawBlockStore::new(block_ssd(), value_bytes)
}

/// RocksDB-like store on ext4 over the block-SSD, 10 MB block cache,
/// 192 GB-class host (scaled).
pub fn rocksdb() -> LsmKvStore {
    LsmKvStore::new(LsmStore::new(
        ExtFs::format(block_ssd()),
        LsmConfig::rocksdb_like(),
    ))
}

/// RocksDB-like store on the 6 GB-class macro host (scaled).
pub fn rocksdb_small_host() -> LsmKvStore {
    LsmKvStore::new(LsmStore::new(
        ExtFs::format(block_ssd()),
        LsmConfig::rocksdb_like_small_host(),
    ))
}

/// A KV-SSD cluster under `config`. Shards are scaled-PM983 devices
/// configured by [`kv_config_macro`], or, at [`Scale::Tiny`], unit-test
/// geometry devices, where occupancy (not absolute size) drives the
/// mechanism. With a `link`, replica legs cross a [`Fabric`] of links of
/// that shape (reshape single links later through
/// [`KvCluster::fabric_mut`]); without one they take the pass-through
/// in-process queues, so a 1-shard cluster is the single-device setup.
/// Wrap it in a `ClusterStore` to drive it as a `KvStore`; the fault
/// sweep drives it bare, since its ops may fail with
/// `QuorumUnavailable`, which the adapter treats as fatal.
pub fn kv_cluster(config: ClusterConfig, link: Option<LinkConfig>, scale: Scale) -> KvCluster {
    let transport: Box<dyn Transport> = match link {
        Some(link) => Box::new(Fabric::new(
            FabricConfig::new(config.seed, link),
            config.shards,
        )),
        None => Box::new(InProcess),
    };
    let device = kv_config_macro();
    KvCluster::with_transport(config, transport, |_| match scale {
        Scale::Tiny => KvSsd::new(
            Geometry::small(),
            FlashTiming::pm983_like(),
            KvConfig::small(),
        ),
        _ => KvSsd::new(geometry(), timing(), device),
    })
}

/// Aerospike-like store with direct device I/O.
pub fn aerospike() -> HashKvStore {
    HashKvStore::new(HashStore::new(
        block_ssd(),
        HashStoreConfig::aerospike_like(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_kvbench::KvStore;
    use kvssd_sim::SimTime;

    #[test]
    fn all_setups_construct_and_serve() {
        let mut stores: Vec<Box<dyn KvStore>> = vec![
            Box::new(kv_ssd()),
            Box::new(rocksdb()),
            Box::new(aerospike()),
            Box::new(block_direct(4096)),
        ];
        for s in &mut stores {
            let t = s.insert(SimTime::ZERO, b"setup-key", 100, 0);
            assert!(s.read(t, b"setup-key").1, "{}", s.name());
        }
    }

    #[test]
    fn macro_config_disables_buckets() {
        assert!(!kv_config_macro().iterator_buckets);
    }
}
