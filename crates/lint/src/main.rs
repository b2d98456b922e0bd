//! `cargo run -p kvssd-lint` — lints the workspace and exits nonzero on
//! any unsuppressed violation.
//!
//! ```text
//! kvssd-lint [workspace-root] [--rule NAME]... [--list-rules]
//!            [--write-baseline] [--strict]
//! ```
//!
//! Without a root argument the workspace root is found by walking up
//! from the current directory to the first `Cargo.toml` that declares
//! `[workspace]`. The bare invocation (the tier-1 gate path) keeps its
//! v1 contract: print diagnostics, per-rule table, summary JSON; exit 0
//! iff clean.
//!
//! * `--rule NAME` (repeatable) restricts reporting and the exit code
//!   to the named rules — for drilling into one rule's findings.
//! * `--list-rules` prints the rule table and exits 0.
//! * `--write-baseline` rewrites `kvlint-baseline.toml` from the
//!   current post-suppression panic-surface counts.
//! * `--strict` also fails on baseline *slack* (budget above actual):
//!   the ratchet step of verify.sh/CI, which forces the baseline to
//!   shrink in the same change that removes the sites.

use std::path::PathBuf;
use std::process::ExitCode;

use kvssd_lint::baseline::{Baseline, BASELINE_FILE};
use kvssd_lint::rules::Rule;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(src) = std::fs::read_to_string(&manifest) {
            if src.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

struct Opts {
    root: Option<PathBuf>,
    rules: Vec<String>,
    list_rules: bool,
    write_baseline: bool,
    strict: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        rules: Vec::new(),
        list_rules: false,
        write_baseline: false,
        strict: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rule" => {
                let name = args.next().ok_or("--rule needs a rule name")?;
                if Rule::from_name(&name).is_none() && name != kvssd_lint::rules::BAD_PRAGMA {
                    return Err(format!(
                        "unknown rule `{name}` (try --list-rules for the full table)"
                    ));
                }
                opts.rules.push(name);
            }
            "--list-rules" => opts.list_rules = true,
            "--write-baseline" => opts.write_baseline = true,
            "--strict" => opts.strict = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            _ if opts.root.is_none() => opts.root = Some(PathBuf::from(a)),
            _ => return Err(format!("unexpected argument `{a}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kvssd-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.list_rules {
        for rule in Rule::ALL {
            println!("{:<24} {}", rule.name(), rule.summary());
        }
        println!(
            "{:<24} a malformed `kvlint: allow` pragma (not allowable)",
            kvssd_lint::rules::BAD_PRAGMA
        );
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("kvssd-lint: no workspace root found above the current directory");
            return ExitCode::FAILURE;
        }
    };

    let report = match kvssd_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kvssd-lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if opts.write_baseline {
        let path = root.join(BASELINE_FILE);
        let rendered = Baseline::render(&report.panic_surface);
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("kvssd-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "kvlint: wrote {} ({} file(s), {} site(s))",
            path.display(),
            report.panic_surface.len(),
            report.panic_surface_total()
        );
    }

    let selected = |rule: &str| opts.rules.is_empty() || opts.rules.iter().any(|r| r == rule);
    let mut shown = 0usize;
    for d in &report.diagnostics {
        if selected(d.rule) {
            println!("{d}");
            shown += 1;
        }
    }
    println!(
        "kvlint: {} files scanned, {} violation(s){}",
        report.files_scanned,
        shown,
        if opts.rules.is_empty() {
            String::new()
        } else {
            format!(" (rules: {})", opts.rules.join(", "))
        }
    );
    for rule in Rule::ALL {
        if !selected(rule.name()) {
            continue;
        }
        println!(
            "kvlint-rule {:<22} {} violation(s), {} suppressed",
            rule.name(),
            report.violations.get(rule.name()).copied().unwrap_or(0),
            report.suppressed.get(rule.name()).copied().unwrap_or(0),
        );
    }
    if selected(kvssd_lint::rules::BAD_PRAGMA) {
        println!(
            "kvlint-rule {:<22} {} violation(s)",
            kvssd_lint::rules::BAD_PRAGMA,
            report
                .violations
                .get(kvssd_lint::rules::BAD_PRAGMA)
                .copied()
                .unwrap_or(0),
        );
    }
    println!("kvlint-summary: {}", report.summary_json());

    let mut failed = shown > 0;

    if opts.strict {
        match kvssd_lint::load_baseline(&root) {
            Ok(Some(b)) => {
                for (path, actual, budget) in b.slack(&report.panic_surface) {
                    println!(
                        "kvlint-ratchet: {path}: budget {budget} but only {actual} site(s) — \
                         shrink the baseline (cargo run -p kvssd-lint -- --write-baseline)"
                    );
                    failed = true;
                }
            }
            Ok(None) => {
                if !report.panic_surface.is_empty() {
                    println!(
                        "kvlint-ratchet: no {BASELINE_FILE} but {} panic-surface site(s) exist",
                        report.panic_surface_total()
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("kvssd-lint: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
