//! The parallel scheduler must not change results: rendered figure
//! tables with `KVSSD_BENCH_THREADS=1` (the exact serial pass-through)
//! and `=4` (the worker pool) are byte-identical at tiny scale.

use kvssd_study::bench::experiments::{cells, FIGURES};
use kvssd_study::bench::Scale;

fn rendered_suite(scale: Scale) -> String {
    FIGURES.iter().map(|(_, figure)| figure(scale)).collect()
}

/// One test (not several) so the process-global thread override cannot
/// race between concurrently running test functions.
#[test]
fn thread_count_does_not_change_rendered_tables() {
    // The env-var path is the user-facing contract; drive it directly.
    std::env::set_var("KVSSD_BENCH_THREADS", "1");
    assert_eq!(cells::thread_count(), 1);
    let serial = rendered_suite(Scale::Tiny);

    std::env::set_var("KVSSD_BENCH_THREADS", "4");
    assert_eq!(cells::thread_count(), 4);
    let parallel = rendered_suite(Scale::Tiny);

    std::env::remove_var("KVSSD_BENCH_THREADS");

    assert_eq!(
        serial.matches("\n=== ").count(),
        FIGURES.len(),
        "suite must actually render every figure"
    );
    assert_eq!(
        serial, parallel,
        "KVSSD_BENCH_THREADS=1 and =4 must produce byte-identical tables"
    );
}
