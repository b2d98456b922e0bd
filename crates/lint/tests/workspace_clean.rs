//! The detection path end to end: full `lint_workspace` passes over
//! seeded throwaway workspaces report a planted violation at file:line
//! and ratchet planted panic sites against a planted baseline. The
//! pass over this repository itself is the root package's tier-1 test
//! `tests/kvlint_gate.rs::kvlint_workspace_is_clean`.

use kvssd_lint::{lint_workspace, load_baseline};

#[test]
fn seeded_violation_is_caught() {
    // Build a throwaway mini-workspace containing one forbidden call
    // and prove the full directory pass reports it at file:line.
    let dir = std::env::temp_dir().join(format!("kvlint-seeded-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create temp workspace");
    std::fs::write(
        src.join("lib.rs"),
        "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n",
    )
    .unwrap();

    let report = lint_workspace(&dir).expect("temp workspace walk succeeds");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!report.is_clean());
    assert_eq!(report.violations.get("no-wall-clock"), Some(&2));
    let wall = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "no-wall-clock")
        .expect("wall-clock diagnostic present");
    assert_eq!(wall.path, "crates/demo/src/lib.rs");
    assert_eq!(wall.line, 1);
    // The rendered form is the file:line diagnostic.
    assert!(wall
        .to_string()
        .starts_with("crates/demo/src/lib.rs:1: no-wall-clock:"));
}

#[test]
fn seeded_panic_sites_ratchet_against_the_baseline() {
    // End-to-end over a throwaway mini-workspace: the full directory
    // pass counts hot-path panic sites, the committed baseline waives
    // exactly its budget, slack shows as baseline != counts (what the
    // tier-1 tightness test compares), and an over-budget regression
    // turns back into violations.
    let dir = std::env::temp_dir().join(format!("kvlint-ratchet-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("create temp workspace");
    let two_sites = "pub fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n\
                     pub fn g(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    std::fs::write(src.join("device.rs"), two_sites).unwrap();

    // No baseline: every site is a violation.
    let r = lint_workspace(&dir).unwrap();
    assert_eq!(r.violations["panic-surface"], 2, "{:?}", r.diagnostics);
    assert_eq!(r.panic_surface["crates/core/src/device.rs"], 2);

    // A budget of exactly 2 waives them; the count stays visible.
    std::fs::write(
        dir.join("kvlint-baseline.toml"),
        "[panic-surface]\n\"crates/core/src/device.rs\" = 2\n",
    )
    .unwrap();
    let r = lint_workspace(&dir).unwrap();
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert_eq!(r.panic_surface_total(), 2);

    // Fixing one site leaves slack: the baseline no longer equals the
    // counts, though the plain gate stays clean.
    let one_site = "pub fn f(o: Option<u8>) -> Option<u8> {\n    o\n}\n\
                    pub fn g(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    std::fs::write(src.join("device.rs"), one_site).unwrap();
    let r = lint_workspace(&dir).unwrap();
    assert!(r.is_clean(), "within budget: {:?}", r.diagnostics);
    let b = load_baseline(&dir).unwrap().expect("baseline present");
    assert_eq!(r.panic_surface["crates/core/src/device.rs"], 1);
    assert_ne!(b.counts, r.panic_surface);

    // A regression past a (tightened) budget fails the plain gate, and
    // every site in the over-budget file surfaces with file:line.
    std::fs::write(
        dir.join("kvlint-baseline.toml"),
        "[panic-surface]\n\"crates/core/src/device.rs\" = 1\n",
    )
    .unwrap();
    std::fs::write(src.join("device.rs"), two_sites).unwrap();
    let r = lint_workspace(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(r.violations["panic-surface"], 2, "{:?}", r.diagnostics);
    assert!(r
        .diagnostics
        .iter()
        .all(|d| d.path == "crates/core/src/device.rs"));
}
