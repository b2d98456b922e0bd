//! Self-timing harness: runs the cell-parallel figure suite twice —
//! once serial (1 thread, the exact pass-through path) and once
//! parallel (`KVSSD_BENCH_THREADS` or `available_parallelism()`) — and
//! writes per-figure wall-clock, speedup, and thread count to
//! `BENCH_HARNESS.json` (override the path with
//! `KVSSD_BENCH_HARNESS_OUT`).
//!
//! Scale: `KVSSD_BENCH_SCALE` = tiny|quick|full (default quick).
use std::fmt::Write as _;

use kvssd_bench::experiments::{self, cells, cluster_ops};
use kvssd_bench::walltime::Stopwatch;
use kvssd_bench::{opprof, Scale};

// Count heap traffic for the opprof section (pure pass-through to the
// system allocator otherwise).
#[global_allocator]
static ALLOC: opprof::CountingAlloc = opprof::CountingAlloc;

/// Per-figure wall-clock for one pass (seconds, plus cell stats).
struct Pass {
    figure: &'static str,
    cells: usize,
    seconds: f64,
    max_cell_seconds: f64,
}

/// Runs every ported figure once at the forced thread count.
fn run_pass(scale: Scale, threads: usize) -> Vec<Pass> {
    cells::set_thread_override(Some(threads));
    cells::take_timings(); // drop any stale records
    let mut out = Vec::new();
    for (name, run) in experiments::PORTED {
        let t0 = Stopwatch::start();
        run(scale);
        let seconds = t0.elapsed_secs();
        let timing = cells::take_timings();
        let (ncells, max_cell) = timing.iter().fold((0usize, 0.0f64), |(n, m), t| {
            let cell_max = t.cell_seconds.iter().cloned().fold(0.0f64, f64::max);
            (n + t.cells, m.max(cell_max))
        });
        out.push(Pass {
            figure: name,
            cells: ncells,
            seconds,
            max_cell_seconds: max_cell,
        });
    }
    cells::set_thread_override(None);
    out
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn main() {
    kvssd_bench::alloctune::retain_large_allocations();
    let scale = Scale::from_env();
    let threads = cells::thread_count();
    eprintln!(
        "bench_harness: scale={} parallel_threads={}",
        scale_name(scale),
        threads
    );

    eprintln!("bench_harness: cluster_ops microbench...");
    let cl_ops = cluster_ops::run(scale);
    eprintln!("bench_harness: opprof stage profile...");
    let prof = opprof::run(scale);
    eprintln!("bench_harness: serial pass (1 thread)...");
    let serial = run_pass(scale, 1);
    eprintln!("bench_harness: parallel pass ({threads} threads)...");
    let parallel = run_pass(scale, threads.max(1));

    let total_serial: f64 = serial.iter().map(|p| p.seconds).sum();
    let total_parallel: f64 = parallel.iter().map(|p| p.seconds).sum();
    let speedup = |s: f64, p: f64| if p > 0.0 { s / p } else { 0.0 };

    // Manual JSON: the workspace has zero registry dependencies.
    let mut json = String::new();
    json.push_str("{\n");
    writeln!(json, "  \"scale\": \"{}\",", scale_name(scale)).unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(
        json,
        "  \"cluster_ops\": {{\"scale\": \"{}\", \"ops\": {}, \
         \"baseline_ops_per_sec\": {:.0}, \"optimized_ops_per_sec\": {:.0}, \
         \"improvement\": {:.2}, \"checksum\": \"{:016x}\"}},",
        scale_name(scale),
        cl_ops.baseline.ops,
        cl_ops.baseline.ops_per_sec(),
        cl_ops.optimized.ops_per_sec(),
        cl_ops.improvement(),
        cl_ops.baseline.checksum
    )
    .unwrap();
    let stages: Vec<String> = prof
        .stages
        .iter()
        .map(|s| {
            format!(
                "\"{}\": {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.3}}}",
                s.name, s.ns_per_op, s.allocs_per_op
            )
        })
        .collect();
    writeln!(
        json,
        "  \"opprof\": {{\"scale\": \"{}\", {}}},",
        scale_name(scale),
        stages.join(", ")
    )
    .unwrap();
    json.push_str("  \"figures\": [\n");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.figure, p.figure, "pass order must match");
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"cells\": {}, \"serial_seconds\": {:.3}, \
             \"parallel_seconds\": {:.3}, \"speedup\": {:.2}, \
             \"max_cell_seconds\": {:.3}}}{}",
            s.figure,
            s.cells,
            s.seconds,
            p.seconds,
            speedup(s.seconds, p.seconds),
            p.max_cell_seconds,
            if i + 1 < serial.len() { "," } else { "" }
        )
        .unwrap();
    }
    json.push_str("  ],\n");
    writeln!(json, "  \"total_serial_seconds\": {total_serial:.3},").unwrap();
    writeln!(json, "  \"total_parallel_seconds\": {total_parallel:.3},").unwrap();
    writeln!(
        json,
        "  \"speedup\": {:.2}",
        speedup(total_serial, total_parallel)
    )
    .unwrap();
    json.push_str("}\n");

    let path = kvssd_bench::env_config("KVSSD_BENCH_HARNESS_OUT")
        .unwrap_or_else(|| "BENCH_HARNESS.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_HARNESS.json");
    println!(
        "wrote {path}: serial {total_serial:.2}s, parallel {total_parallel:.2}s \
         ({threads} threads, {:.2}x)",
        speedup(total_serial, total_parallel)
    );
}
