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
//! If a change is *supposed* to move these tables (a modeling change,
//! a new column), re-pin: run with `KVSSD_GOLDEN_PRINT=1` to print the
//! new digests, and record the move in CHANGES.md.

use kvssd_study::bench::experiments::{
    ablations, cells, fabric, fabric_faults, fig2, fig3, fig4, fig5, fig6, fig7, fig8, headline,
    replication, scaleout,
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

/// Brackets what a print-only figure writes in the re-executed child.
const MARK: &str = "\u{1}golden-capture\u{1}\n";

/// Four figures still print from `report()` and have no `render`; their
/// bytes are captured by re-running this test binary on the ignored
/// `print_figure` helper with `--nocapture` and cutting between marks.
fn captured_report(name: &str) -> String {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "print_figure", "--ignored", "--nocapture"])
        .env("KVSSD_GOLDEN_FIGURE", name)
        .output()
        .expect("re-run the test binary");
    assert!(out.status.success(), "child failed for {name}");
    let text = String::from_utf8(out.stdout).expect("utf-8 tables");
    let mut parts = text.split(MARK);
    parts.next();
    parts.next().expect("marked figure output").to_string()
}

/// Child half of [`captured_report`]; does nothing under a plain run.
#[test]
#[ignore = "helper re-executed by figures_match_pinned_digests_at_threads_1_and_4"]
fn print_figure() {
    let Some(name) = kvssd_study::bench::env_config("KVSSD_GOLDEN_FIGURE") else {
        return;
    };
    print!("{MARK}");
    match name.as_str() {
        "fig3" => drop(fig3::report(Scale::Tiny)),
        "fig6" => drop(fig6::report(Scale::Tiny)),
        "fig8" => drop(fig8::report(Scale::Tiny)),
        "headline" => drop(headline::report(Scale::Tiny)),
        other => panic!("{other} has a render(); no capture needed"),
    }
    print!("{MARK}");
}

fn rendered(name: &str) -> String {
    let s = Scale::Tiny;
    match name {
        "fig2" => fig2::render(&fig2::run(s)),
        "fig4" => fig4::render(&fig4::run(s)),
        "fig5" => fig5::render(&fig5::run(s)),
        "fig7" => fig7::render(&fig7::run(s)),
        "ablations" => ablations::render(&ablations::run(s)),
        "scaleout" => scaleout::render(&scaleout::run(s)),
        "replication" => replication::render(&replication::run(s)),
        "fabric" => fabric::render(&fabric::run(s)),
        "fabric_faults" => fabric_faults::render(&fabric_faults::run(s)),
        _ => captured_report(name),
    }
}

/// One test (not several) so the process-global thread override cannot
/// race between concurrently running test functions.
#[test]
fn figures_match_pinned_digests_at_threads_1_and_4() {
    let print = kvssd_study::bench::env_config("KVSSD_GOLDEN_PRINT").is_some();
    for threads in [1usize, 4] {
        cells::set_thread_override(Some(threads));
        for (name, want) in PINS {
            let table = rendered(name);
            let got = digest(&table);
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
    cells::set_thread_override(None);
}
