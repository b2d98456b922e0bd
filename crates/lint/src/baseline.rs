//! The panic-surface baseline: a committed per-file budget with
//! **ratchet semantics** — new violations fail, the baseline may only
//! shrink.
//!
//! Format (a TOML subset, hand-parsed like the manifest scanner):
//!
//! ```toml
//! [panic-surface]
//! "crates/core/src/device.rs" = 13
//! ```
//!
//! Two comparison modes:
//!
//! * **gate** ([`Baseline::exceeded`]): any file over its budget (or any
//!   un-listed file with sites) is a violation. Runs on every lint pass.
//! * **tight** ([`Baseline::slack`]): any budget above the actual count
//!   is *slack* — headroom a future regression could hide in. The
//!   verify/CI ratchet step fails on slack too, which is what forces
//!   the committed baseline to shrink in the same PR that removes the
//!   panic sites (and, transitively, forbids it from ever growing:
//!   CI re-derives the counts and diffs them against the committed
//!   copy on every push).

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

    /// Gate check: files whose actual count exceeds their budget
    /// (un-listed files have budget 0). Returns `(path, actual,
    /// budget)` triples.
    pub fn exceeded(&self, actual: &BTreeMap<String, usize>) -> Vec<(String, usize, usize)> {
        actual
            .iter()
            .filter_map(|(path, &n)| {
                let budget = self.counts.get(path).copied().unwrap_or(0);
                (n > budget).then(|| (path.clone(), n, budget))
            })
            .collect()
    }

    /// Tightness check: budgets above the actual count (including
    /// entries for files with no sites at all). Returns `(path,
    /// actual, budget)` triples.
    pub fn slack(&self, actual: &BTreeMap<String, usize>) -> Vec<(String, usize, usize)> {
        self.counts
            .iter()
            .filter_map(|(path, &budget)| {
                let n = actual.get(path).copied().unwrap_or(0);
                (budget > n).then(|| (path.clone(), n, budget))
            })
            .collect()
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
    fn exceeded_flags_growth_and_new_files() {
        let b = Baseline::parse("[panic-surface]\n\"a.rs\" = 2\n").unwrap();
        assert!(b.exceeded(&counts(&[("a.rs", 2)])).is_empty());
        assert_eq!(
            b.exceeded(&counts(&[("a.rs", 3)])),
            [("a.rs".to_string(), 3, 2)]
        );
        assert_eq!(
            b.exceeded(&counts(&[("new.rs", 1)])),
            [("new.rs".to_string(), 1, 0)]
        );
    }

    #[test]
    fn slack_flags_stale_budgets() {
        let b = Baseline::parse("[panic-surface]\n\"a.rs\" = 2\n\"gone.rs\" = 1\n").unwrap();
        let s = b.slack(&counts(&[("a.rs", 1)]));
        assert_eq!(
            s,
            [("a.rs".to_string(), 1, 2), ("gone.rs".to_string(), 0, 1)]
        );
        assert!(b.slack(&counts(&[("a.rs", 2), ("gone.rs", 1)])).is_empty());
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
