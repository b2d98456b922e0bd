//! kvlint — the repo's in-house static analyzer.
//!
//! The reproduction's scientific claims rest on invariants that used to
//! be true only by convention: figure tables byte-identical at any
//! thread count and every run reproducible from a seed in pure virtual
//! time. kvlint machine-checks them. It tokenizes every workspace `.rs`
//! file (a small lexer — no `syn`, to stay offline-green) and enforces
//! eight rules (see [`rules::Rule`]) with file:line diagnostics.
//!
//! Most rules look at one file's tokens. `rng-domain-separation` checks
//! seeding-domain constants for uniqueness across the whole workspace,
//! and `panic-surface` ratchets the hot-path crates' panic sites against
//! a committed baseline ([`baseline`]) that may only shrink.
//!
//! Violations can be suppressed with a pragma that must carry a
//! justification:
//!
//! ```text
//! let sw = Stopwatch::start(); // kvlint: allow(no-wall-clock) — timing the host simulator, not the device
//! ```
//!
//! (The code before the comment matters: a pragma must start its
//! comment line to be recognized, so this doc example is prose, not a
//! live grant in kvlint's own source.)
//!
//! The pragma covers its own line and the line directly below it. A
//! pragma naming an unknown rule, or missing its justification, is
//! itself an error (`bad-pragma`) — typos must not silently widen the
//! allowed surface. And a pragma that suppresses nothing is an error too
//! (`dead-pragma`) — stale grants get deleted, not inherited.
//!
//! Two entry points make violations impossible to miss: the
//! `cargo run -p kvssd-lint` binary (a timed step of
//! `scripts/verify.sh`), and the tier-1 tests that lint the whole
//! workspace and hold the baseline tight (`cargo test` fails on any
//! violation or any baseline drift).

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use rules::{RawDiag, Rule};

/// What kind of file a path is, for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src/**`, root `src/**`): every rule.
    LibrarySrc,
    /// Integration tests and model-checking suites (`**/tests/**`):
    /// exempt from `no-random-state-map` (a test-local map leaks into
    /// no figure).
    Tests,
    /// Example binaries (`**/examples/**`).
    Examples,
    /// Bench targets (`**/benches/**`).
    Benches,
    /// kvlint's own fixture corpus — never linted as workspace code.
    Fixture,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let seg = |s: &str| rel.split('/').any(|p| p == s);
    if rel.starts_with("crates/lint/fixtures/") {
        FileClass::Fixture
    } else if seg("tests") {
        FileClass::Tests
    } else if seg("examples") {
        FileClass::Examples
    } else if seg("benches") {
        FileClass::Benches
    } else {
        FileClass::LibrarySrc
    }
}

/// The one module allowed to touch `std::time::{Instant, SystemTime}`.
pub const WALL_CLOCK_ALLOWLIST: &[&str] = &["crates/bench/src/walltime.rs"];

/// The one module allowed to read the environment (`env_config`).
pub const ENV_READ_ALLOWLIST: &[&str] = &["crates/bench/src/lib.rs"];

/// One finding, attached to a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name, or [`rules::BAD_PRAGMA`].
    pub rule: &'static str,
    /// Human explanation with the remedy.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The result of a workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Unsuppressed findings, in path/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule unsuppressed violation counts (all rules always present).
    pub violations: BTreeMap<&'static str, usize>,
    /// Per-rule counts of findings silenced by a valid pragma.
    pub suppressed: BTreeMap<&'static str, usize>,
    /// Post-suppression `panic-surface` site counts per hot-path file —
    /// what the baseline ratchet compares and `--write-baseline` writes.
    /// Populated whether or not a baseline waived the sites.
    pub panic_surface: BTreeMap<String, usize>,
}

impl Report {
    fn new() -> Self {
        let mut r = Report::default();
        for rule in Rule::ALL {
            r.violations.insert(rule.name(), 0);
            r.suppressed.insert(rule.name(), 0);
        }
        r.violations.insert(rules::BAD_PRAGMA, 0);
        r
    }

    /// True when the workspace has zero unsuppressed violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Total unsuppressed violations.
    pub fn total_violations(&self) -> usize {
        self.diagnostics.len()
    }

    /// Total `panic-surface` sites across hot-path files (within-budget
    /// sites included — this is the number the ratchet squeezes).
    pub fn panic_surface_total(&self) -> usize {
        self.panic_surface.values().sum()
    }

    fn absorb(&mut self, path: &str, kept: Vec<RawDiag>, suppressed: Vec<(&'static str, usize)>) {
        for (rule, n) in suppressed {
            *self.suppressed.entry(rule).or_insert(0) += n;
        }
        for d in kept {
            *self.violations.entry(d.rule).or_insert(0) += 1;
            self.diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: d.line,
                rule: d.rule,
                message: d.message,
            });
        }
    }
}

/// Per-file state carried between the per-file scan and the workspace
/// pass.
struct FileWork {
    rel: String,
    /// Unsuppressed findings accumulated so far.
    diags: Vec<RawDiag>,
    /// Validated suppression pragmas.
    allows: Vec<(Rule, u32)>,
    /// `mix64(<lit>)` seeding-domain constants (library code only).
    domains: Vec<rules::DomainConst>,
}

/// Lints a set of `(workspace-relative path, source)` Rust files as one
/// workspace: per-file token rules, the workspace-wide
/// `rng-domain-separation` check, and — when `baseline` is given — the
/// panic-surface ratchet. This is THE engine: the binary, the tier-1
/// gate, and the fixture tests all go through it.
pub fn lint_files(files: &[(String, String)], baseline: Option<&Baseline>) -> Report {
    let mut report = Report::new();
    let mut work: Vec<FileWork> = Vec::with_capacity(files.len());

    for (rel, src) in files {
        report.files_scanned += 1;
        let class = classify(rel);
        let lexed = lexer::lex(src);
        let test_regions = rules::cfg_test_regions(&lexed.toks);
        let mut diags = rules::check_tokens(
            &lexed,
            &test_regions,
            class,
            WALL_CLOCK_ALLOWLIST.contains(&rel.as_str()),
            ENV_READ_ALLOWLIST.contains(&rel.as_str()),
        );
        diags.extend(rules::check_unsafe_safety(&lexed));
        diags.extend(rules::check_panic_surface(
            &lexed,
            &test_regions,
            rel,
            class,
        ));
        let allows = rules::validate_pragmas(&lexed.pragmas, &mut diags);
        work.push(FileWork {
            rel: rel.clone(),
            diags,
            allows,
            domains: rules::collect_rng_domains(&lexed, &test_regions, class),
        });
    }

    // --- rng-domain-separation: domain constants must be unique. ---
    let mut by_value: BTreeMap<u64, Vec<(usize, u32, String)>> = BTreeMap::new();
    for (wi, w) in work.iter().enumerate() {
        for d in &w.domains {
            by_value
                .entry(d.value)
                .or_default()
                .push((wi, d.line, d.text.clone()));
        }
    }
    for sites in by_value.values().filter(|s| s.len() > 1) {
        for (i, &(wi, line, ref text)) in sites.iter().enumerate() {
            let (owi, oline, _) = sites[if i == 0 { 1 } else { 0 }];
            let other = format!("{}:{}", files[owi].0, oline);
            work[wi].diags.push(RawDiag {
                line,
                rule: Rule::RngDomainSeparation.name(),
                message: format!(
                    "mix64 seeding-domain constant `{text}` is also used at {other}; streams \
                     seeded from the same domain are correlated — pick a fresh constant"
                ),
            });
        }
    }

    // --- suppression, dead-pragma, the baseline ratchet. ---
    for w in &mut work {
        w.diags
            .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        let (mut kept, mut suppressed, mut hits) =
            rules::apply_suppressions(std::mem::take(&mut w.diags), &w.allows);
        let (dead, excused) = rules::dead_pragma_pass(&w.allows, &mut hits);
        kept.extend(dead);
        if excused > 0 {
            suppressed.push((Rule::DeadPragma.name(), excused));
        }
        let panic_sites = kept
            .iter()
            .filter(|d| d.rule == Rule::PanicSurface.name())
            .count();
        if panic_sites > 0 {
            report.panic_surface.insert(w.rel.clone(), panic_sites);
            if let Some(b) = baseline {
                let budget = b.counts.get(&w.rel).copied().unwrap_or(0);
                if panic_sites <= budget {
                    // Within budget: counted, ratcheted, but not a
                    // violation. Over budget: every site stays visible.
                    kept.retain(|d| d.rule != Rule::PanicSurface.name());
                }
            }
        }
        report.absorb(&w.rel, kept, suppressed);
    }
    report
}

/// Lints one Rust source string as `rel_path` would be linted in the
/// workspace pass (including the workspace-wide rules, over the
/// one-file "workspace"). Public so fixtures and tests hit the exact
/// production path.
pub fn lint_rust_str(rel_path: &str, src: &str) -> (Vec<RawDiag>, Vec<(&'static str, usize)>) {
    let files = [(rel_path.to_string(), src.to_string())];
    flatten(lint_files(&files, None))
}

fn flatten(report: Report) -> (Vec<RawDiag>, Vec<(&'static str, usize)>) {
    let kept = report
        .diagnostics
        .into_iter()
        .map(|d| RawDiag {
            line: d.line,
            rule: d.rule,
            message: d.message,
        })
        .collect();
    let suppressed = report
        .suppressed
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
    (kept, suppressed)
}

/// Directories never descended into: build output, VCS internals, and
/// kvlint's own fixture corpus (fixtures exist to violate the rules).
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | ".git" | "crates/lint/fixtures")
        || rel.ends_with("/target")
        || rel.ends_with("/.git")
}

/// Walks the workspace rooted at `root` and lints every `.rs` file,
/// applying the committed panic-surface baseline
/// (`kvlint-baseline.toml`) when present. Deterministic: files are
/// visited in sorted path order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let baseline = load_baseline(root)?;
    lint_workspace_with(root, baseline.as_ref())
}

/// Reads and parses the committed baseline at `root`, if present. A
/// malformed baseline is an I/O-level error, not a silently-empty
/// budget.
pub fn load_baseline(root: &Path) -> std::io::Result<Option<Baseline>> {
    match fs::read_to_string(root.join(baseline::BASELINE_FILE)) {
        Ok(src) => Baseline::parse(&src).map(Some).map_err(|line| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}:{line}: malformed baseline entry",
                    baseline::BASELINE_FILE
                ),
            )
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// [`lint_workspace`] with an explicit baseline decision (`None` turns
/// every panic-surface site into a violation — what `--write-baseline`
/// uses to measure the true count).
pub fn lint_workspace_with(root: &Path, baseline: Option<&Baseline>) -> std::io::Result<Report> {
    let mut paths = Vec::new();
    collect_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint_files(&files, baseline))
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .expect("walked paths live under root")
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if !skip_dir(&rel) {
                collect_files(root, &path, out)?;
            }
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path_segment() {
        assert_eq!(classify("crates/core/src/device.rs"), FileClass::LibrarySrc);
        assert_eq!(classify("src/lib.rs"), FileClass::LibrarySrc);
        assert_eq!(classify("tests/determinism.rs"), FileClass::Tests);
        assert_eq!(
            classify("crates/core/tests/properties.rs"),
            FileClass::Tests
        );
        assert_eq!(
            classify("crates/bench/examples/repro_all.rs"),
            FileClass::Examples
        );
        assert_eq!(classify("benchmark/benches/main.rs"), FileClass::Benches);
        assert_eq!(
            classify("crates/lint/fixtures/clean.rs"),
            FileClass::Fixture
        );
    }

    #[test]
    fn library_map_flagged_but_test_file_exempt() {
        let src = "use std::collections::HashMap;\n";
        let (lib, _) = lint_rust_str("crates/x/src/lib.rs", src);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, "no-random-state-map");
        let (test, _) = lint_rust_str("crates/x/tests/model.rs", src);
        assert!(test.is_empty());
    }

    #[test]
    fn allowlisted_files_pass_their_rule() {
        let (d, _) = lint_rust_str("crates/bench/src/walltime.rs", "use std::time::Instant;\n");
        assert!(d.is_empty());
        let (d, _) = lint_rust_str(
            "crates/bench/src/lib.rs",
            "fn f() { std::env::var(\"X\").ok(); }\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn duplicate_rng_domains_flagged_across_files() {
        let files = [
            (
                "crates/cluster/src/a.rs".to_string(),
                "fn s(x: u64) -> u64 { mix64(x ^ mix64(0x11)) }\n".to_string(),
            ),
            (
                "crates/fabric/src/b.rs".to_string(),
                "fn t(x: u64) -> u64 { mix64(0x11 ^ x) }\n".to_string(),
            ),
        ];
        let report = lint_files(&files, None);
        assert_eq!(
            report.violations["rng-domain-separation"], 2,
            "{:?}",
            report.diagnostics
        );
        assert!(report.diagnostics[0]
            .message
            .contains("crates/fabric/src/b.rs:1"));
    }

    #[test]
    fn panic_surface_baseline_waives_within_budget_only() {
        let src = "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n".to_string();
        let files = [("crates/core/src/device.rs".to_string(), src)];
        // No baseline: a violation.
        let r = lint_files(&files, None);
        assert_eq!(r.violations["panic-surface"], 1);
        assert_eq!(r.panic_surface["crates/core/src/device.rs"], 1);
        // Budget 1: waived but still counted.
        let b = Baseline::parse("[panic-surface]\n\"crates/core/src/device.rs\" = 1\n").unwrap();
        let r = lint_files(&files, Some(&b));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.panic_surface_total(), 1);
        // Budget 0 for the file: over budget, back to a violation.
        let b = Baseline::parse("[panic-surface]\n\"other.rs\" = 9\n").unwrap();
        let r = lint_files(&files, Some(&b));
        assert_eq!(r.violations["panic-surface"], 1);
    }

    #[test]
    fn dead_pragma_flagged_in_full_pass() {
        let src = "// kvlint: allow(no-wall-clock) — nothing below ever used a clock\nfn f() {}\n";
        let (d, _) = lint_rust_str("crates/x/src/lib.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "dead-pragma");
        assert_eq!(d[0].line, 1);
    }
}
