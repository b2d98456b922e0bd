//! `cargo run -p kvssd-lint` — lints the workspace and exits nonzero on
//! any unsuppressed violation.
//!
//! ```text
//! kvssd-lint [workspace-root] [--write-baseline]
//! ```
//!
//! Without a root argument the workspace root is found by walking up
//! from the current directory to the first `Cargo.toml` that declares
//! `[workspace]`. The bare invocation prints diagnostics and the
//! per-rule table; it exits 0 iff clean.
//!
//! * `--write-baseline` rewrites `kvlint-baseline.toml` from the
//!   current post-suppression panic-surface counts.
//!
//! Baseline slack (a budget above the actual count) is the tier-1
//! test `tests/kvlint_gate.rs::panic_surface_baseline_is_tight`'s
//! business, not this binary's.

use std::path::PathBuf;
use std::process::ExitCode;

use kvssd_lint::baseline::{Baseline, BASELINE_FILE};
use kvssd_lint::rules::{Rule, BAD_PRAGMA};

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
    write_baseline: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        write_baseline: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--write-baseline" => opts.write_baseline = true,
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

    let root = match opts.root.or_else(find_workspace_root) {
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

    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "kvlint: {} files scanned, {} violation(s)",
        report.files_scanned,
        report.total_violations()
    );
    for rule in Rule::ALL {
        println!(
            "kvlint-rule {:<22} {} violation(s), {} suppressed",
            rule.name(),
            report.violations[rule.name()],
            report.suppressed[rule.name()],
        );
    }
    println!(
        "kvlint-rule {:<22} {} violation(s)",
        BAD_PRAGMA, report.violations[BAD_PRAGMA],
    );

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
