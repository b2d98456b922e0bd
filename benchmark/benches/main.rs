//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! kvssd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload in this process; the last stdout line is
//!     the result as one JSON object (the contract in BENCHMARK.json).
//! kvssd-benchmark --seed <n> [--seconds <s>] [--repeats <k>] [--trace]
//!     all five workloads, each run in a fresh child process, repeats
//!     interleaved (A B C D E, A B C D E, ...); prints every metric and
//!     the median of the run medians.
//! kvssd-benchmark --smoke
//!     all five at 1/100 size, twice each in this process; fails unless
//!     every sim-domain result is bit-identical and no op failed.
//! ```

mod alloc;
mod host;
mod layers;
mod run;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use kvssd_bench::alloctune;

use run::{Metric, Options, Report};
use workloads::{System, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of BENCHMARK.json, and the default for suite runs.
const DEFAULT_SECONDS: u64 = 12;
/// Set-ups per run; `setup_s` is their lower quartile.
const SETUPS: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    repeats: Option<u64>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut number = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next().ok_or("--workload needs a name")?),
            "--seed" => args.seed = Some(number("--seed")?),
            "--seconds" => args.seconds = Some(number("--seconds")?),
            "--repeats" => args.repeats = Some(number("--repeats")?),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if matches!(args.seconds, Some(s) if !(1..=60).contains(&s)) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(w: &'static Workload, opts: &Options) -> Report {
    let seed = opts.seed;
    match w.system {
        System::KvSsd { index_dram_bytes } => {
            run::run(w, opts, || workloads::build_kv(index_dram_bytes))
        }
        System::Cluster => run::run(w, opts, || workloads::build_cluster(seed)),
        System::Lsm => run::run(w, opts, workloads::build_lsm),
        System::Hash => run::run(w, opts, workloads::build_hash),
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!(
            "metric {:<44} {:>16.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn print_report(r: &Report, opts: &Options) {
    println!(
        "== {} ({}) seed={} seconds={} trace={}",
        r.workload, r.system, opts.seed, opts.seconds, opts.trace as u8
    );
    let mut end_to_end = r.end_to_end.clone();
    end_to_end.push(Metric::new(
        "failed_ops_pct",
        r.failed_ops_pct(),
        "%",
        r.ops_attempted,
    ));
    print_metrics("end-to-end", &end_to_end);
    println!("count  ops_attempted {}", r.ops_attempted);
    println!("count  ops_failed {}", r.ops_failed);
    println!("check  sim_digest {:016x}", r.sim_digest);
    println!(
        "check  calib_ns before={:.4} after={:.4} drift_pct={:.2} segment_iqr_pct={:.2}",
        r.calib_before_ns,
        r.calib_after_ns,
        r.calib_drift_pct(),
        r.segment_iqr_pct
    );
    let kops: Vec<String> = r.segment_kops.iter().map(|k| format!("{k:.1}")).collect();
    println!(
        "check  segment_kops median={:.1} : {}",
        host::median(&r.segment_kops),
        kops.join(" ")
    );
    let setups: Vec<String> = r.setup_secs.iter().map(|s| format!("{s:.4}")).collect();
    println!("check  setup_secs {}", setups.join(" "));
    if !r.per_layer.is_empty() {
        print_metrics("per-layer (traced run)", &r.per_layer);
        let shares: f64 = r
            .per_layer
            .iter()
            .filter(|m| m.name.ends_with(".share_pct"))
            .map(|m| m.value)
            .sum();
        println!(
            "check  share_pct_sum {shares:.3} (the rest is bench.driver + bench.unattributed)"
        );
        println!(
            "-- span self times (host ms; trace in benchmark/out/trace-{}.json)",
            r.workload
        );
        for (name, ms) in &r.span_self_ms {
            println!("span   {name:<44} {ms:>16.3} ms");
        }
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end untraced, per-layer traced).
fn result_json(r: &Report, traced: bool) -> String {
    let metrics = if traced { &r.per_layer } else { &r.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.ops_failed == 0,
        r.ops_attempted,
        r.ops_failed,
        body.join(", ")
    )
}

/// `--smoke`: every sim-domain result must repeat bit for bit.
fn smoke() -> ExitCode {
    // Everything end-to-end but these is sim-domain or an exact count.
    const HOST: [&str; 3] = ["host_kops", "setup_s", "peak_rss_mb"];
    let opts = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        shrink: 100,
        setups: 1,
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let a = run_workload(w, &opts);
        let b = run_workload(w, &opts);
        let mut diffs = Vec::new();
        if a.sim_digest != b.sim_digest {
            diffs.push("sim_digest".to_string());
        }
        for (x, y) in a.end_to_end.iter().zip(&b.end_to_end) {
            if !HOST.contains(&x.name.as_str()) && x.value.to_bits() != y.value.to_bits() {
                diffs.push(format!("{} ({} vs {})", x.name, x.value, y.value));
            }
        }
        if a.ops_failed + b.ops_failed > 0 {
            diffs.push(format!(
                "failed ops ({} and {})",
                a.ops_failed, b.ops_failed
            ));
        }
        let verdict = if diffs.is_empty() { "ok" } else { "FAIL" };
        println!(
            "smoke {:<24} {verdict} sim_digest={:016x} ops={} {}",
            w.name,
            a.sim_digest,
            a.ops_attempted,
            diffs.join("; ")
        );
        ok &= diffs.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric of the suite summary: a value per repeat.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// Suite mode: each run of each workload in a fresh child process,
/// repeats interleaved so a slow minute of the sandbox lands on every
/// workload alike.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let repeats = args.repeats.unwrap_or(1).max(1);
    let mut series: Vec<Vec<Series>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut digests: Vec<Vec<String>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut failed = false;
    // An untraced run gives the end-to-end metrics; with --trace a traced
    // run follows and gives the per-layer ones (the names with a dot).
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for _ in 0..repeats {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            for &traced in modes {
                let out = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                failed |= !out.status.success();
                for line in stdout.lines() {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    match f[..] {
                        ["metric", name, value, unit, ..] if name.contains('.') == traced => {
                            let value = value.parse().unwrap_or(f64::NAN);
                            match series[wi].iter_mut().find(|s| s.name == name) {
                                Some(s) => s.values.push(value),
                                None => series[wi].push(Series {
                                    name: name.to_string(),
                                    unit: unit.to_string(),
                                    values: vec![value],
                                }),
                            }
                        }
                        ["check", "sim_digest", digest] => digests[wi].push(digest.to_string()),
                        _ => {}
                    }
                }
            }
        }
    }
    println!(
        "\n==== summary: median of {repeats} run(s) per workload, seed {seed}, {seconds} s ===="
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        println!("== {}", w.name);
        for s in &series[wi] {
            println!(
                "summary {:<44} {:>16.6} {:<10} runs={} iqr_pct={:.2}",
                s.name,
                host::median(&s.values),
                s.unit,
                s.values.len(),
                host::iqr_pct(&s.values)
            );
        }
        // Same seed, same code: the sim domain must not move at all.
        let same = digests[wi].windows(2).all(|p| p[0] == p[1]);
        println!(
            "summary sim_digest {} ({})",
            digests[wi].first().map_or("-", String::as_str),
            if same {
                "identical across runs"
            } else {
                "DIFFERS across runs"
            }
        );
        failed |= !same;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    alloctune::retain_large_allocations();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke();
    }
    let Some(name) = &args.workload else {
        return suite(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        });
    };
    let Some(w) = Workload::by_name(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload `{name}`; one of {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let opts = Options {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        shrink: 1,
        setups: SETUPS,
    };
    let report = run_workload(w, &opts);
    print_report(&report, &opts);
    println!("{}", result_json(&report, opts.trace));
    ExitCode::SUCCESS
}
