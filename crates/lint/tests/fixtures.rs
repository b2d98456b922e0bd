//! Every rule, three ways: a fixture that must trigger, the same
//! pattern suppressed by a justified `kvlint: allow` pragma, and a
//! clean file. Plus the pragma-hygiene cases: unknown rule and missing
//! justification are themselves errors.
//!
//! Fixtures live under `crates/lint/fixtures/` (excluded from the
//! workspace pass — they exist to violate the rules) and are linted
//! here through the exact production path (`lint_rust_str`) under a
//! library-crate pseudo-path.

use kvssd_lint::lint_rust_str;
use kvssd_lint::rules::{RawDiag, BAD_PRAGMA};

/// Lints a Rust fixture as if it were library-crate source.
fn lint_lib(src: &str) -> (Vec<RawDiag>, Vec<(&'static str, usize)>) {
    lint_rust_str("crates/fixture/src/lib.rs", src)
}

fn rule_lines(diags: &[RawDiag], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

fn suppressed_count(sup: &[(&'static str, usize)], rule: &str) -> usize {
    sup.iter().find(|(r, _)| *r == rule).map_or(0, |(_, n)| *n)
}

// ----- no-wall-clock ---------------------------------------------------

#[test]
fn wall_clock_triggers_with_file_lines() {
    let (d, _) = lint_lib(include_str!("../fixtures/wall_clock_trigger.rs"));
    assert_eq!(rule_lines(&d, "no-wall-clock"), vec![2, 5]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn wall_clock_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/wall_clock_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "no-wall-clock"), 2);
}

#[test]
fn wall_clock_clean_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/wall_clock_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty());
}

#[test]
fn fabric_crate_is_not_wall_clock_sanctioned() {
    // The transport simulates a network in virtual time; its timing
    // must come from SimTime/SimDuration, never the host clock. No
    // fabric path is on the allowlist, so wall-clock use anywhere in
    // the crate is an error — checked through the production path with
    // a fabric pseudo-path.
    assert!(
        !kvssd_lint::WALL_CLOCK_ALLOWLIST
            .iter()
            .any(|p| p.contains("fabric")),
        "no fabric module may be wall-clock-sanctioned"
    );
    let (d, sup) = lint_rust_str(
        "crates/fabric/src/link.rs",
        include_str!("../fixtures/fabric_wall_clock_trigger.rs"),
    );
    assert_eq!(rule_lines(&d, "no-wall-clock"), vec![4, 7]);
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(sup.is_empty());
}

// ----- no-random-state-map ---------------------------------------------

#[test]
fn random_state_map_triggers_outside_cfg_test_only() {
    let src = include_str!("../fixtures/random_state_map_trigger.rs");
    let (d, _) = lint_lib(src);
    assert_eq!(rule_lines(&d, "no-random-state-map"), vec![3, 5, 6]);
    assert_eq!(d.len(), 3, "cfg(test) HashSet must be exempt: {d:?}");
    // The same file in a tests/ path class is entirely exempt.
    let (d, _) = lint_rust_str("crates/fixture/tests/model.rs", src);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn random_state_map_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/random_state_map_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "no-random-state-map"), 1);
}

#[test]
fn random_state_map_clean_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/random_state_map_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty());
}

// ----- no-env-read -----------------------------------------------------

#[test]
fn env_read_triggers_on_reads_not_writes_or_args() {
    let (d, _) = lint_lib(include_str!("../fixtures/env_read_trigger.rs"));
    assert_eq!(rule_lines(&d, "no-env-read"), vec![4, 7]);
    assert_eq!(d.len(), 2, "set_var/args must not trigger: {d:?}");
}

#[test]
fn env_read_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/env_read_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "no-env-read"), 1);
}

#[test]
fn env_read_clean_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/env_read_clean.rs"));
    assert!(d.is_empty(), "env! is compile-time, not a read: {d:?}");
    assert!(sup.is_empty());
}

// ----- no-unseeded-entropy ---------------------------------------------

#[test]
fn unseeded_entropy_triggers_everywhere_even_tests() {
    let src = include_str!("../fixtures/unseeded_entropy_trigger.rs");
    let (d, _) = lint_lib(src);
    assert_eq!(rule_lines(&d, "no-unseeded-entropy"), vec![4, 5, 6]);
    // Entropy has no test exemption.
    let (d, _) = lint_rust_str("crates/fixture/tests/model.rs", src);
    assert_eq!(d.len(), 3, "{d:?}");
}

#[test]
fn unseeded_entropy_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/unseeded_entropy_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "no-unseeded-entropy"), 1);
}

#[test]
fn unseeded_entropy_clean_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/unseeded_entropy_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty());
}

// ----- pragma hygiene --------------------------------------------------

#[test]
fn unknown_rule_in_allow_pragma_is_an_error_and_does_not_suppress() {
    let (d, sup) = lint_lib(include_str!("../fixtures/pragma_unknown_rule.rs"));
    assert_eq!(rule_lines(&d, BAD_PRAGMA), vec![4]);
    assert_eq!(rule_lines(&d, "no-wall-clock"), vec![5]);
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(sup.is_empty(), "an invalid pragma must not suppress");
}

#[test]
fn missing_justification_is_an_error_and_does_not_suppress() {
    let (d, sup) = lint_lib(include_str!("../fixtures/pragma_missing_justification.rs"));
    assert_eq!(rule_lines(&d, BAD_PRAGMA), vec![4]);
    assert_eq!(rule_lines(&d, "no-wall-clock"), vec![5]);
    assert!(sup.is_empty());
}

#[test]
fn bad_pragma_itself_cannot_be_allowed() {
    // `allow(bad-pragma)` names a category, not a rule — it is itself a
    // bad pragma, so the escape hatch cannot disable pragma hygiene.
    let (d, _) = lint_lib("// kvlint: allow(bad-pragma) — nice try, not a rule name\n");
    assert_eq!(rule_lines(&d, BAD_PRAGMA), vec![1]);
}

// ----- rng-domain-separation -------------------------------------------

#[test]
fn duplicate_rng_domain_triggers_at_both_sites() {
    let (d, _) = lint_lib(include_str!("../fixtures/rng_domain_trigger.rs"));
    assert_eq!(rule_lines(&d, "rng-domain-separation"), vec![3, 6]);
    assert_eq!(d.len(), 2, "{d:?}");
    // Each site's message points at the other site.
    assert!(d[0].message.contains(":6"), "{}", d[0].message);
    assert!(d[1].message.contains(":3"), "{}", d[1].message);
}

#[test]
fn rng_domain_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/rng_domain_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "rng-domain-separation"), 2);
}

#[test]
fn rng_domain_clean_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/rng_domain_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty());
}

// ----- unsafe-requires-safety ------------------------------------------

#[test]
fn unsafe_without_safety_comment_triggers() {
    let (d, _) = lint_lib(include_str!("../fixtures/unsafe_safety_trigger.rs"));
    assert_eq!(rule_lines(&d, "unsafe-requires-safety"), vec![3, 5]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn unsafe_allow_pragma_suppresses() {
    let (d, sup) = lint_lib(include_str!("../fixtures/unsafe_safety_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "unsafe-requires-safety"), 1);
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let (d, sup) = lint_lib(include_str!("../fixtures/unsafe_safety_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty(), "SAFETY comments need no pragma");
}

// ----- panic-surface ---------------------------------------------------

/// Lints a panic-surface fixture under a hot-path pseudo-path (the rule
/// only applies to `crates/{core,cluster,fabric}/src/`).
fn lint_hot(src: &str) -> (Vec<RawDiag>, Vec<(&'static str, usize)>) {
    lint_rust_str("crates/core/src/fixture.rs", src)
}

#[test]
fn panic_surface_triggers_per_site_in_hot_path_only() {
    let src = include_str!("../fixtures/panic_surface_trigger.rs");
    let (d, _) = lint_hot(src);
    assert_eq!(rule_lines(&d, "panic-surface"), vec![4, 5, 7]);
    assert_eq!(d.len(), 3, "{d:?}");
    // The same sites outside the hot-path crates are not counted.
    let (d, _) = lint_rust_str("crates/fixture/src/lib.rs", src);
    assert!(d.is_empty(), "{d:?}");
    // Nor in test code of a hot-path crate.
    let (d, _) = lint_rust_str("crates/core/tests/model.rs", src);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn panic_surface_allow_pragma_suppresses() {
    let (d, sup) = lint_hot(include_str!("../fixtures/panic_surface_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "panic-surface"), 3);
}

#[test]
fn panic_surface_clean_is_clean() {
    let (d, sup) = lint_hot(include_str!("../fixtures/panic_surface_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert!(sup.is_empty());
}

// ----- dead-pragma -----------------------------------------------------

#[test]
fn stale_pragma_triggers_at_its_own_line() {
    let (d, _) = lint_lib(include_str!("../fixtures/dead_pragma_trigger.rs"));
    assert_eq!(rule_lines(&d, "dead-pragma"), vec![2]);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("no-wall-clock"), "{}", d[0].message);
}

#[test]
fn prophylactic_pragma_kept_by_allow_dead_pragma() {
    let (d, sup) = lint_lib(include_str!("../fixtures/dead_pragma_allowed.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "dead-pragma"), 1);
}

#[test]
fn live_pragma_is_not_dead() {
    let (d, sup) = lint_lib(include_str!("../fixtures/dead_pragma_clean.rs"));
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(suppressed_count(&sup, "no-wall-clock"), 1);
    assert_eq!(suppressed_count(&sup, "dead-pragma"), 0);
}
