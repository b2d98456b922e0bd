//! Property tests: the flash device enforces the NAND contract under
//! arbitrary operation sequences, checked against a reference state
//! machine. Seeded cases on [`kvssd_sim::check`] (a failed assertion is
//! a failing case, shrunk by deletion).

use kvssd_flash::{BlockId, FlashDevice, FlashTiming, Geometry, PageAddr};
use kvssd_sim::check::check;
use kvssd_sim::{DeterministicRng, SimTime};

/// Block selectors are reduced modulo the geometry.
#[derive(Debug, Clone)]
enum FlashOp {
    Program { block: u8, bytes: u16 },
    Read { block: u8, page: u8, bytes: u16 },
    Erase { block: u8 },
}
use FlashOp::*;

fn flash_ops(rng: &mut DeterministicRng) -> Vec<FlashOp> {
    let n = rng.between(1, 199);
    let op = |rng: &mut DeterministicRng| {
        let (block, page) = (rng.below(256) as u8, rng.below(256) as u8);
        let bytes = rng.between(1, 32_767) as u16;
        match rng.below(3) {
            0 => Program { block, bytes },
            1 => Read { block, page, bytes },
            _ => Erase { block },
        }
    };
    (0..n).map(|_| op(rng)).collect()
}

/// The device's accept/reject decisions and its visible state match a
/// trivial reference model (block -> pages programmed since the last
/// erase) for any op sequence.
fn matches_reference(ops: &[FlashOp]) -> Result<(), String> {
    let g = Geometry::small();
    let mut dev = FlashDevice::new(g, FlashTiming::pm983_like());
    let mut model = vec![0u32; g.total_blocks() as usize];
    let block_of = |b: u8| BlockId(b as u32 % g.total_blocks());
    let mut t = SimTime::ZERO;
    for op in ops {
        match *op {
            Program { block, bytes } => {
                let block = block_of(block);
                let page = model[block.0 as usize];
                let res = dev.program_page(t, PageAddr { block, page }, bytes as u64);
                if page < g.pages_per_block {
                    let r = res.expect("in-order program of an erased page");
                    assert!(!r.failed, "no fault plan installed");
                    t = t.max(r.done);
                    model[block.0 as usize] += 1;
                } else {
                    assert!(res.is_err(), "a full block must reject programs");
                }
            }
            Read { block, page, bytes } => {
                let block = block_of(block);
                let page = page as u32 % g.pages_per_block;
                let res = dev.read_page(t, PageAddr { block, page }, bytes as u64);
                if page < model[block.0 as usize] {
                    let done = res.expect("read of a written page");
                    assert!(done > t, "reads take time");
                    t = done;
                } else {
                    assert!(res.is_err(), "unwritten page must not read");
                }
            }
            Erase { block } => {
                let r = dev.erase_block(t, block_of(block)).expect("erase");
                assert!(!r.failed, "no fault plan installed");
                t = t.max(r.done);
                model[block_of(block).0 as usize] = 0;
            }
        }
        // Visible counters agree with the model at every step.
        for (b, &pages) in model.iter().enumerate() {
            assert_eq!(dev.written_pages(BlockId(b as u32)), pages);
        }
    }
    Ok(())
}

#[test]
fn device_matches_reference_state_machine() {
    check(0..64, flash_ops, |_| None, matches_reference);
}

/// Total die busy time equals the sum of array-operation times,
/// independent of how programs interleave across blocks.
fn busy_time_is_conserved(programs: &[u8]) -> Result<(), String> {
    let g = Geometry::small();
    let mut dev = FlashDevice::new(g, FlashTiming::pm983_like());
    let mut issued = 0u64;
    for &b in programs {
        let block = BlockId(b as u32 % g.total_blocks());
        let page = dev.written_pages(block);
        if page < g.pages_per_block {
            let addr = PageAddr { block, page };
            dev.program_page(SimTime::ZERO, addr, 1024)
                .expect("program");
            issued += 1;
        }
    }
    let per_op = dev.timing().t_cmd_overhead + dev.timing().t_program;
    assert_eq!(dev.die_busy_total().as_nanos(), per_op.as_nanos() * issued);
    assert_eq!(dev.stats().programs, issued);
    Ok(())
}

#[test]
fn die_busy_time_is_conserved() {
    let blocks = |rng: &mut DeterministicRng| -> Vec<u8> {
        let n = rng.between(1, 59);
        (0..n).map(|_| rng.below(256) as u8).collect()
    };
    check(0..64, blocks, |_| None, busy_time_is_conserved);
}
