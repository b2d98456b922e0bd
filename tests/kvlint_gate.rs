//! Tier-1 gate: `cargo test -q` from the workspace root runs the full
//! kvlint pass over the repository. Any unsuppressed violation of the
//! determinism / virtual-time invariants fails this test with a
//! file:line diagnostic naming the rule. The lockfile test holds the
//! offline-green and bench-isolation invariants that Cargo itself
//! leaves open.

use std::path::Path;

#[test]
fn panic_surface_baseline_is_tight() {
    // The ratchet: the committed kvlint-baseline.toml must equal the
    // re-derived per-file panic-surface counts exactly. Over budget is
    // a regression (caught by the clean gate below too); *under* budget
    // is slack a future regression could hide in — shrink the baseline
    // in the same change that removes the sites. Equality also means
    // the baseline can never grow without the diff showing it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = kvssd_lint::lint_workspace(root).expect("workspace walk succeeds");
    let baseline = kvssd_lint::load_baseline(root)
        .expect("baseline parses")
        .expect("kvlint-baseline.toml is committed at the workspace root");
    assert_eq!(
        baseline.counts, report.panic_surface,
        "kvlint-baseline.toml (left) differs from the re-derived panic-surface counts \
         (right); regenerate it with `cargo run -p kvssd-lint -- --write-baseline` \
         (budgets may only shrink)"
    );
}

#[test]
fn kvlint_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = kvssd_lint::lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — the walker is likely broken",
        report.files_scanned
    );
    if !report.is_clean() {
        for d in &report.diagnostics {
            eprintln!("{d}");
        }
        panic!(
            "kvlint: {} unsuppressed violation(s) in {} file(s) scanned — see diagnostics above; \
             suppress only with a justified `// kvlint: allow(<rule>) — <why>` pragma",
            report.total_violations(),
            report.files_scanned
        );
    }
}

#[test]
fn lockfiles_are_offline_and_only_the_runners_link_the_bench_crate() {
    // A `source =` line marks a registry or git package: the workspace
    // must build offline from path dependencies alone. And `kvssd-bench`
    // holds the sanctioned wall-clock and env-read modules: a library
    // crate linking it could launder host state into a figure. Cargo
    // rejects that as a dependency cycle for every crate the bench
    // crate depends on, but not for a new crate or for kvssd-lint.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let src = std::fs::read_to_string(root.join(lock)).expect("lockfile is committed");
        for pkg in src.split("[[package]]").skip(1) {
            let name = pkg
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("every lockfile package has a name")
                .trim_matches('"');
            assert!(
                !pkg.lines().any(|l| l.starts_with("source =")),
                "{lock}: `{name}` comes from a registry or git source; only path \
                 dependencies build offline"
            );
            let deps = pkg
                .split_once("dependencies = [")
                .map_or("", |(_, d)| d.split(']').next().unwrap_or(""));
            let links_bench = deps
                .split(',')
                .any(|d| d.trim().trim_matches('"').split(' ').next() == Some("kvssd-bench"));
            assert!(
                !links_bench || ["kvssd-study", "kvssd-benchmark"].contains(&name),
                "{lock}: `{name}` depends on kvssd-bench; only the root package and the \
                 benchmark runner may link the crate that owns the wall clock and the env"
            );
        }
    }
}
