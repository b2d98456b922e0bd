//! Cluster hot-path microbench runner: prints the per-op vs batched
//! driver throughput table and records the result in
//! `BENCH_HARNESS.json` (override the path with
//! `KVSSD_BENCH_HARNESS_OUT`).
//!
//! Both legs are measured in this same process on this same host — the
//! improvement figure never compares against a stale snapshot. The JSON
//! update is line-based: the `"cluster_ops"` entry is replaced when
//! present, otherwise inserted after the opening brace, so the harness
//! file's other sections survive untouched.
//!
//! Scale: `KVSSD_BENCH_SCALE` = tiny|quick|full (default quick).

use kvssd_bench::experiments::cluster_ops;
use kvssd_bench::Scale;

/// Renders the one-line JSON value for the `"cluster_ops"` key.
fn cluster_ops_json(r: &cluster_ops::ClusterOpsResult, scale: Scale) -> String {
    let scale = match scale {
        Scale::Tiny => "tiny",
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    format!(
        "  \"cluster_ops\": {{\"scale\": \"{}\", \"ops\": {}, \
         \"baseline_ops_per_sec\": {:.0}, \"optimized_ops_per_sec\": {:.0}, \
         \"improvement\": {:.2}, \"checksum\": \"{:016x}\"}},",
        scale,
        r.baseline.ops,
        r.baseline.ops_per_sec(),
        r.optimized.ops_per_sec(),
        r.improvement(),
        r.baseline.checksum
    )
}

/// Replaces or inserts the `"cluster_ops"` line in the harness JSON.
fn patch_harness(path: &str, line: &str) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        // No harness file yet: write a minimal one holding just this
        // section (the trailing comma becomes a closing line).
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let body = format!("{{\n{}\n}}\n", line.trim_end_matches(','));
            return std::fs::write(path, body);
        }
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    let mut replaced = false;
    for l in text.lines() {
        if l.trim_start().starts_with("\"cluster_ops\"") {
            out.push(line.to_string());
            replaced = true;
        } else {
            out.push(l.to_string());
        }
    }
    if !replaced {
        let brace = out
            .iter()
            .position(|l| l.trim() == "{")
            .expect("harness JSON must open with a brace");
        out.insert(brace + 1, line.to_string());
    }
    std::fs::write(path, out.join("\n") + "\n")
}

fn main() {
    kvssd_bench::alloctune::retain_large_allocations();
    let scale = Scale::from_env();
    let r = cluster_ops::run(scale);
    cluster_ops::print_table(&r);

    let path = kvssd_bench::env_config("KVSSD_BENCH_HARNESS_OUT")
        .unwrap_or_else(|| "BENCH_HARNESS.json".to_string());
    let line = cluster_ops_json(&r, scale);
    patch_harness(&path, &line).expect("update harness JSON");
    println!("updated {path} [cluster_ops]");
}
