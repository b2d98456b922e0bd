//! The panic-surface baseline: a committed per-file budget with
//! **ratchet semantics** — new violations fail, the baseline may only
//! shrink.
//!
//! Format (a TOML subset, hand-parsed):
//!
//! ```toml
//! [panic-surface]
//! "crates/core/src/device.rs" = 13
//! ```
//!
//! Every lint pass fails a file over its budget (an un-listed file has
//! budget 0); the waiver lives in [`crate::lint_files`]. Slack — a
//! budget above the actual count, headroom a future regression could
//! hide in — fails the tier-1 test
//! `tests/kvlint_gate.rs::panic_surface_baseline_is_tight`, which
//! demands the committed budgets equal the re-derived counts. That
//! forces the baseline to shrink in the same change that removes the
//! panic sites, and forbids it from ever growing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-file panic-surface budgets, keyed by workspace-relative path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// path → allowed number of panic-surface sites.
    pub counts: BTreeMap<String, usize>,
}

/// The canonical name of the baseline file at the workspace root.
pub const BASELINE_FILE: &str = "kvlint-baseline.toml";

impl Baseline {
    /// Parses the baseline file format. Unknown sections are ignored so
    /// the format can grow; malformed entry lines are reported as
    /// `Err(line-number)`.
    pub fn parse(src: &str) -> Result<Baseline, u32> {
        let mut counts = BTreeMap::new();
        let mut in_section = false;
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_section = line == "[panic-surface]";
                continue;
            }
            if !in_section {
                continue;
            }
            let err = idx as u32 + 1;
            let (path, n) = line.split_once('=').ok_or(err)?;
            let path = path.trim().trim_matches('"');
            let n: usize = n.trim().parse().map_err(|_| err)?;
            if path.is_empty() {
                return Err(err);
            }
            counts.insert(path.to_string(), n);
        }
        Ok(Baseline { counts })
    }

    /// Renders the canonical file content for `actual` counts
    /// (zero-count entries are dropped — absence is the budget).
    pub fn render(actual: &BTreeMap<String, usize>) -> String {
        let mut s = String::from(
            "# kvlint panic-surface baseline — per-file budget of unwrap/expect/panic!/\n\
             # slice-index sites in non-test code of the hot-path crates (block-ftl,\n\
             # core, cluster, fabric, flash). Ratchet semantics: a count above its budget\n\
             # fails the lint gate, and the verify/CI ratchet step also fails on slack\n\
             # (budget above actual), so this file can only shrink. Regenerate with:\n\
             #   cargo run -p kvssd-lint -- --write-baseline\n\n[panic-surface]\n",
        );
        for (path, n) in actual {
            if *n > 0 {
                let _ = writeln!(s, "\"{path}\" = {n}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(p, n)| (p.to_string(), *n)).collect()
    }

    #[test]
    fn parse_render_round_trip() {
        let actual = counts(&[
            ("crates/core/src/device.rs", 13),
            ("crates/fabric/src/link.rs", 1),
        ]);
        let rendered = Baseline::render(&actual);
        let parsed = Baseline::parse(&rendered).unwrap();
        assert_eq!(parsed.counts, actual);
    }

    #[test]
    fn zero_entries_are_dropped_on_render() {
        let rendered = Baseline::render(&counts(&[("a.rs", 0), ("b.rs", 2)]));
        assert!(!rendered.contains("a.rs"));
        assert!(rendered.contains("\"b.rs\" = 2"));
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        assert_eq!(Baseline::parse("[panic-surface]\n\"a.rs\" = two\n"), Err(2));
        assert_eq!(Baseline::parse("[panic-surface]\nnonsense\n"), Err(2));
        // Unknown sections are tolerated.
        assert!(Baseline::parse("[future]\nx = 1\n")
            .unwrap()
            .counts
            .is_empty());
    }
}
