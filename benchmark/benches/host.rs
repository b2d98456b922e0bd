//! Host-clock side of the benchmark: the wall clock, order statistics,
//! `/proc` readings, the calibration kernel and the span recorder.
//!
//! Nothing here touches the simulator; these numbers describe the
//! sandbox the simulator ran on.

use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;

use kvssd_bench::walltime::Stopwatch;
use kvssd_sim::rng::mix64;

/// Host nanoseconds since the process started measuring.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Stopwatch);

impl Clock {
    pub fn start() -> Self {
        Clock(Stopwatch::start())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed_secs()
    }

    pub fn ns(&self) -> u64 {
        (self.0.elapsed_secs() * 1e9) as u64
    }
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile of `v`, by linear interpolation (the
/// "exclusive" method of Python's `statistics.quantiles(v, n=4)`).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |k: f64| {
        let pos = (k * (s.len() + 1) as f64 / 4.0 - 1.0).clamp(0.0, (s.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(s.len() - 1);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (q(1.0), q(3.0))
}

/// Interquartile range of `v` as a percentage of its median.
pub fn iqr_pct(v: &[f64]) -> f64 {
    if v.len() < 2 || median(v) == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    100.0 * (q3 - q1) / median(v)
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(ns on a CPU, ns waiting on a run queue)` of this thread, from
/// `/proc/self/schedstat`. The benchmark drives a workload from one
/// thread, so this is the whole process.
pub fn schedstat() -> (u64, u64) {
    let s = fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// The fixed calibration kernel: a dependent chain of 64-bit mixes that
/// touches no memory, so its time moves only when the sandbox's CPU
/// does. Returns host ns per mix (median of 9 chains).
pub fn calibrate(clock: &Clock) -> f64 {
    const CHAIN: u64 = 200_000;
    let mut samples = Vec::with_capacity(9);
    for round in 0..9u64 {
        let t0 = clock.secs();
        let mut x = black_box(round);
        for _ in 0..CHAIN {
            x = mix64(x);
        }
        black_box(x);
        samples.push((clock.secs() - t0) * 1e9 / CHAIN as f64);
    }
    median(&samples)
}

/// One span: `[start_ns, end_ns)` under `parent` (an index into the same
/// recorder, `None` for the root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// In-memory span recorder, written out once when the run ends. When
/// disabled every call is a branch and nothing else.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its id (meaningless when disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.clock.ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.clock.ns();
        }
    }

    /// Records an already-timed span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.ns()
    }

    /// Self time of every span name: each span's duration minus the part
    /// its children cover, summed by name (host ns).
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name
    }

    /// Writes the spans as a JSON array to `path` (creating its
    /// directory). Spans of one run share `run_id`.
    pub fn write_json(&self, path: &str, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":\"{run_id}\"}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        fs::write(path, out)
    }
}
