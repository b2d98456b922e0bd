//! Pinned golden digests for every figure's rendered table.
//!
//! The per-op fast path (batched submission, in-place key generation,
//! hash-keyed registries), the fill/measure sub-cell split and the
//! byte-key hasher are host-side optimizations: they must not move a
//! single byte of any figure. This test pins all thirteen tiny-scale
//! tables to fixed digests at worker thread counts 1 (the exact serial
//! path) and 4 (the pool), so any behavioral drift — from the hot path,
//! the scheduler, a map's iteration order, or the device model — fails
//! CI with a diffable signal.
//!
//! The same pass checks the scheduler's contract: the thread count is
//! set through `KVSSD_BENCH_THREADS`, the user-facing knob, and every
//! figure must render at both counts.
//!
//! If a change is *supposed* to move these tables (a modeling change,
//! a new column), re-pin: run with `KVSSD_GOLDEN_PRINT=1` to print the
//! new digests, and record the move in CHANGES.md.

use kvssd_study::bench::experiments::{cells, FIGURES};
use kvssd_study::bench::Scale;
use kvssd_study::sim::digest64;

const SCALEOUT_TINY: u64 = 0xabe13033e5996bbd;
const REPLICATION_TINY: u64 = 0x1d1051945373459c;
const FABRIC_TINY: u64 = 0x4dfc10f50a108b79;
const FIG2_TINY: u64 = 0x4ef34a875caea89c;
const FIG4_TINY: u64 = 0xbd3bffcf169491bb;
const FABRIC_FAULTS_TINY: u64 = 0x7e36ff7e4d2a09de;

/// Figure name → pinned digest of its tiny-scale table, in `repro_all`
/// order.
const PINS: [(&str, u64); 13] = [
    ("fig2", FIG2_TINY),
    ("fig3", 0xa705df6c39472e8a),
    ("fig4", FIG4_TINY),
    ("fig5", 0x05ed6143b0f087c7),
    ("fig6", 0x35b4b772ed346ac1),
    ("fig7", 0xba3f7c9ebbe4e962),
    ("fig8", 0x3fcd0bd7c45a4f51),
    ("headline", 0x733eee8ad50843ee),
    ("ablations", 0x94684940e3491616),
    ("scaleout", SCALEOUT_TINY),
    ("replication", REPLICATION_TINY),
    ("fabric", FABRIC_TINY),
    ("fabric_faults", FABRIC_FAULTS_TINY),
];

/// One test (not several) so the process-global thread setting cannot
/// race between concurrently running test functions.
#[test]
fn figures_match_pinned_digests_at_threads_1_and_4() {
    let print = kvssd_study::bench::env_config("KVSSD_GOLDEN_PRINT").is_some();
    for threads in [1usize, 4] {
        std::env::set_var("KVSSD_BENCH_THREADS", threads.to_string());
        assert_eq!(cells::thread_count(), threads);
        for ((name, figure), (pinned, want)) in FIGURES.into_iter().zip(PINS) {
            assert_eq!(name, pinned, "PINS must list FIGURES in order");
            let table = figure(Scale::Tiny);
            assert_eq!(
                table.matches("\n=== ").count(),
                1,
                "{name} must render its one table at {threads} thread(s)"
            );
            let got = digest64(table.as_bytes());
            if print {
                println!("{name}: 0x{got:016x}");
                continue;
            }
            assert_eq!(
                got, want,
                "{name} table drifted from its pinned digest (got 0x{got:016x}) at \
                 {threads} thread(s); a host-side optimization must not move figure \
                 bytes.\n{table}"
            );
        }
    }
    std::env::remove_var("KVSSD_BENCH_THREADS");
}
