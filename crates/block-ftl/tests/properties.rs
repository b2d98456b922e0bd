//! Property tests: the block-SSD keeps exact mapping/validity accounting
//! through buffering, GC, TRIM, write streams and failed programs.
//! Seeded cases on [`kvssd_sim::check`] (a failed assertion is a failing
//! case, shrunk by deletion).

use kvssd_block_ftl::{BlockFtlConfig, BlockSsd};
use kvssd_flash::{FaultPlan, FlashDevice, FlashTiming, Geometry};
use kvssd_sim::check::check;
use kvssd_sim::{DeterministicRng, PrehashedSet, SimTime};

/// `(first cluster, cluster count)`, reduced to the device's range.
#[derive(Debug, Clone, Copy)]
enum BlkOp {
    Write(u16, u8),
    Read(u16, u8),
    Trim(u16, u8),
    Flush,
}
use BlkOp::*;

fn blk_ops(rng: &mut DeterministicRng) -> Vec<BlkOp> {
    let n = rng.between(1, 150);
    let op = |rng: &mut DeterministicRng| {
        let (cluster, clusters) = (rng.below(1 << 16) as u16, rng.between(1, 3) as u8);
        match rng.below(10) {
            0..=3 => Write(cluster, clusters),
            4..=6 => Read(cluster, clusters),
            7..=8 => Trim(cluster, clusters),
            _ => Flush,
        }
    };
    (0..n).map(|_| op(rng)).collect()
}

fn ssd(program_fail_one_in: Option<u64>) -> BlockSsd {
    let plan = FaultPlan {
        program_fail_one_in,
        erase_fail_one_in: None,
    };
    let flash = FlashDevice::with_faults(Geometry::small(), FlashTiming::pm983_like(), plan);
    BlockSsd::over(flash, BlockFtlConfig::pm983_like())
}

/// Valid-byte accounting equals the reference set of written (and
/// not-trimmed) clusters under arbitrary mixes of I/O — through GC
/// relocations, buffer flushes and the re-placement of clusters whose
/// page program failed — and no completion precedes its issue.
fn validity_holds(mut dev: BlockSsd, ops: &[BlkOp]) -> Result<(), String> {
    let total = (dev.capacity_bytes() / 4096) as u16;
    let range = |cluster: u16, clusters: u8| {
        let first = cluster % total;
        first..first + (clusters as u16).min(total - first)
    };
    let bytes = |r: &std::ops::Range<u16>| (r.start as u64 * 4096, r.len() as u64 * 4096);
    let mut model: PrehashedSet<u16> = PrehashedSet::default();
    let mut t = SimTime::ZERO;
    for op in ops {
        let issued = t;
        match *op {
            Write(cluster, clusters) => {
                let r = range(cluster, clusters);
                t = dev.write(t, bytes(&r).0, bytes(&r).1).unwrap();
                model.extend(r);
            }
            Read(cluster, clusters) => {
                let r = range(cluster, clusters);
                t = dev.read(t, bytes(&r).0, bytes(&r).1).unwrap();
            }
            Trim(cluster, clusters) => {
                let r = range(cluster, clusters);
                t = dev.trim(t, bytes(&r).0, bytes(&r).1).unwrap();
                model.retain(|c| !r.contains(c));
            }
            Flush => t = dev.flush(t),
        }
        assert!(t >= issued, "completion preceded its issue");
        assert_eq!(dev.valid_bytes(), model.len() as u64 * 4096);
    }
    // A final flush must not change logical validity.
    let _done = dev.flush(t);
    assert_eq!(dev.valid_bytes(), model.len() as u64 * 4096);
    Ok(())
}

#[test]
fn validity_matches_reference() {
    check(
        0..48,
        blk_ops,
        |_| None,
        |ops| validity_holds(ssd(None), ops),
    );
}

/// One program in 20 fails: a case loses a block or two, not the device.
#[test]
fn validity_matches_reference_on_faulty_flash() {
    let faulty = |ops: &[BlkOp]| validity_holds(ssd(Some(20)), ops);
    check(0..48, blk_ops, |_| None, faulty);
}

/// Defect (C): a partial Rand-stream page fails, its clusters are
/// re-admitted to a fresh Rand unit, and the failed program's epilogue
/// parks that unit under them — the next program finds pending clusters
/// and no blocks. Seed 0 of the campaign above.
#[test]
fn replaced_clusters_keep_their_unit() {
    #[rustfmt::skip]
    let ops = vec![
        Write(52947, 2), Write(61927, 1), Write(55525, 1), Write(64970, 2), Write(2712, 3), Flush,
        Write(19972, 2), Flush, Write(51342, 3), Write(41783, 3), Write(24778, 3), Flush,
        Write(33509, 2), Write(36404, 1), Write(1717, 3), Write(40137, 3), Flush, Write(62942, 2),
        Flush,
    ];
    validity_holds(ssd(Some(20)), &ops).unwrap();
}

/// Capacity overwrite churn: writing the whole logical space several
/// times over never wedges and never loses accounting.
#[test]
fn full_device_churn_survives() {
    for seed in [0u64, 97, 251, 499] {
        let mut dev = ssd(None);
        let clusters = dev.capacity_bytes() / 4096;
        let mut rng = DeterministicRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        // First fill everything, then churn 1.5x capacity randomly.
        for c in 0..clusters {
            t = dev.write(t, c * 4096, 4096).unwrap();
        }
        for _ in 0..clusters * 3 / 2 {
            let c = rng.below(clusters);
            t = dev.write(t, c * 4096, 4096).unwrap();
        }
        assert_eq!(dev.valid_bytes(), clusters * 4096);
        assert!(dev.stats().gc_erases > 0, "churn must have forced GC");
    }
}
