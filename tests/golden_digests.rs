//! Pinned golden digests for the figures' rendered tables.
//!
//! The per-op fast path (batched submission, in-place key generation,
//! hash-keyed registries), the fill/measure sub-cell split and the
//! byte-key hasher are host-side optimizations: they must not move a
//! single byte of any figure. These tests pin the tiny-scale
//! `scaleout`, `replication`, `fabric` and `fabric_faults` (retries,
//! tied writes, replica dedupe) tables, plus `fig2` (KV-SSD, LSM and
//! hash-store end to end) and `fig4` (block-direct), to fixed digests
//! at worker thread counts 1 (the exact serial path) and 4 (the pool),
//! so any behavioral drift — from the hot path, the scheduler,
//! a map's iteration order, or the device model — fails CI with a
//! diffable signal.
//!
//! If a change is *supposed* to move these tables (a modeling change,
//! a new column), re-pin: run with `KVSSD_GOLDEN_PRINT=1` to print the
//! new digests, and record the move in CHANGES.md.

use kvssd_study::bench::experiments::{
    cells, fabric, fabric_faults, fig2, fig4, replication, scaleout,
};
use kvssd_study::bench::Scale;

/// FNV-style fold (mix64-chained) over the rendered bytes.
fn digest(s: &str) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        d = kvssd_study::sim::rng::mix64(d ^ b as u64);
    }
    d
}

const SCALEOUT_TINY: u64 = 0xabe13033e5996bbd;
const REPLICATION_TINY: u64 = 0x1d1051945373459c;
const FABRIC_TINY: u64 = 0x4dfc10f50a108b79;
const FIG2_TINY: u64 = 0x4ef34a875caea89c;
const FIG4_TINY: u64 = 0xbd3bffcf169491bb;
const FABRIC_FAULTS_TINY: u64 = 0x7e36ff7e4d2a09de;

fn check(name: &str, rendered: &str, want: u64) {
    let got = digest(rendered);
    if kvssd_study::bench::env_config("KVSSD_GOLDEN_PRINT").is_some() {
        println!("{name}: 0x{got:016x}");
        return;
    }
    assert_eq!(
        got, want,
        "{name} table drifted from its pinned digest (got 0x{got:016x}); \
         a host-side optimization must not move figure bytes.\n{rendered}"
    );
}

/// One test (not several) so the process-global thread override cannot
/// race between concurrently running test functions.
#[test]
fn figures_match_pinned_digests_at_threads_1_and_4() {
    for threads in [1usize, 4] {
        cells::set_thread_override(Some(threads));
        check(
            "scaleout",
            &scaleout::render(&scaleout::run(Scale::Tiny)),
            SCALEOUT_TINY,
        );
        check(
            "replication",
            &replication::render(&replication::run(Scale::Tiny)),
            REPLICATION_TINY,
        );
        check("fig2", &fig2::render(&fig2::run(Scale::Tiny)), FIG2_TINY);
        check("fig4", &fig4::render(&fig4::run(Scale::Tiny)), FIG4_TINY);
        check(
            "fabric",
            &fabric::render(&fabric::run(Scale::Tiny)),
            FABRIC_TINY,
        );
        check(
            "fabric_faults",
            &fabric_faults::render(&fabric_faults::run(Scale::Tiny)),
            FABRIC_FAULTS_TINY,
        );
    }
    cells::set_thread_override(None);
}
