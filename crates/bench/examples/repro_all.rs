//! Runs every experiment at the selected scale (`KVSSD_BENCH_SCALE` =
//! tiny|quick|full, default quick; anything else is an error) and prints
//! the tables — the one program that prints a figure.
//!
//! With an argument, runs just that figure: `repro_all -- fig5`.
//! With `--timings`, appends a per-figure scheduler table (cells, wall
//! seconds, serial-equivalent seconds, slowest cell) drained from the
//! cell scheduler — where each figure's wall-clock went.
//! Worker threads for cell-parallel figures: `KVSSD_BENCH_THREADS`
//! (defaults to `available_parallelism()`; `1` is the exact serial
//! path).
use kvssd_bench::experiments::{self, cells};
use kvssd_bench::Scale;

/// Prints the drained scheduler timings as an aligned table.
fn print_timings(timings: &[cells::FigureTiming]) {
    if timings.is_empty() {
        println!("\n(no cell-scheduled figures ran; nothing to time)");
        return;
    }
    println!("\n=== Cell scheduler timings ===");
    println!(
        "{:<22} {:>7} {:>6} {:>9} {:>10} {:>9}",
        "figure", "threads", "cells", "wall s", "serial s", "max-cell"
    );
    for t in timings {
        let label = if t.phase.is_empty() {
            t.figure.clone()
        } else {
            format!("{}/{}", t.figure, t.phase)
        };
        let serial: f64 = t.cell_seconds.iter().sum();
        let max_cell = t.cell_seconds.iter().copied().fold(0.0f64, f64::max);
        println!(
            "{label:<22} {:>7} {:>6} {:>9.3} {:>10.3} {:>9.3}",
            t.threads, t.cells, t.wall_seconds, serial, max_cell
        );
    }
}

fn main() {
    kvssd_bench::alloctune::retain_large_allocations();
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timings = args.iter().any(|a| a == "--timings");
    let wanted = args.iter().find(|a| *a != "--timings");

    let selected: Vec<_> = experiments::FIGURES
        .iter()
        .filter(|(name, _)| wanted.is_none_or(|w| w == name))
        .collect();
    if let (Some(name), true) = (wanted, selected.is_empty()) {
        eprintln!(
            "unknown figure `{name}`; valid names: {} (flags: --timings)",
            experiments::figure_names().join(", ")
        );
        std::process::exit(1);
    }
    for (_, figure) in selected {
        print!("{}", figure(scale));
    }

    if timings {
        print_timings(&cells::take_timings());
    }
}
