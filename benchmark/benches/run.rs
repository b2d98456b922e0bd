//! One run of one workload: set-up, warm-up, the measured segments, the
//! verification pass, and the end-to-end metrics on both clocks.

use kvssd_kvbench::keys::KeyGen;
use kvssd_kvbench::{
    run_phase, AccessPattern, KvStore, OpBatch, OpMix, PhaseRecorder, SpaceUsage, ValueSize,
    WorkloadSpec,
};
use kvssd_sim::rng::mix64;
use kvssd_sim::{DeterministicRng, LatencyHistogram, QueueRunner, SimDuration, SimTime};

use crate::alloc;
use crate::host::{self, Clock, Tracer};
use crate::layers;
use crate::workloads::{Sut, Workload, SEGMENTS};

/// Keys are 16 bytes on every workload (the paper's default).
pub const KEY_BYTES: usize = 16;
pub type Key = [u8; KEY_BYTES];

/// Keys the verification pass retrieves.
const VERIFY_KEYS: u64 = 10_000;
/// The verification pass (and the model map) reach this far past the
/// population, so every workload also checks known misses.
const VERIFY_REACH_PCT: u64 = 110;

/// How a run is sized and what it records.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Record spans and measure the per-layer metrics.
    pub trace: bool,
    /// Divide populations and op counts by this (1, or 100 for `--smoke`).
    pub shrink: u64,
    /// Times the set-up is built and filled; `setup_s` is their lower
    /// quartile.
    pub setups: usize,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (segments, ops, batches).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub system: &'static str,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Ops the driver issued to the measured instance over its whole life
    /// (fill, warm-up, measured phase, verification), and how many failed.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Digest over every sim-domain counter and histogram of the run.
    pub sim_digest: u64,
    pub calib_before_ns: f64,
    pub calib_after_ns: f64,
    pub segment_iqr_pct: f64,
    /// Host kops of each measured segment, in run order.
    pub segment_kops: Vec<f64>,
    /// Host seconds of each set-up, in run order.
    pub setup_secs: Vec<f64>,
    /// Traced runs: self time (host ms) of every span name, i.e. each
    /// span's duration minus what its child spans cover.
    pub span_self_ms: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.ops_failed as f64 / self.ops_attempted.max(1) as f64
    }

    pub fn calib_drift_pct(&self) -> f64 {
        100.0 * (self.calib_after_ns - self.calib_before_ns) / self.calib_before_ns
    }
}

/// Index a [`KeyGen`] key was generated from (base-36 body after the
/// 4-byte prefix).
fn key_index(key: &[u8]) -> usize {
    key[4..].iter().fold(0usize, |v, &c| {
        v * 36 + (if c <= b'9' { c - b'0' } else { c - b'a' + 10 }) as usize
    })
}

/// The driver: sits between `run_phase` and the system under test,
/// keeps the host-side model map `key -> (len, tag)`, counts attempted
/// and failed ops, and keeps failed ops out of the latency histograms.
pub struct Driver<S> {
    pub sut: S,
    /// Model map, dense over key indices; length 0 means absent.
    model_len: Vec<u32>,
    model_tag: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Key + value bytes of successful writes.
    pub user_bytes: u64,
    clock: Clock,
    /// When set, `(enter, exit)` host ns of each `run_ops` call.
    pub batch_spans: Option<Vec<(u64, u64)>>,
}

impl<S: Sut> Driver<S> {
    pub fn new(sut: S, key_space: u64, clock: Clock) -> Self {
        Driver {
            sut,
            model_len: vec![0; key_space as usize],
            model_tag: vec![0; key_space as usize],
            attempted: 0,
            failed: 0,
            user_bytes: 0,
            clock,
            batch_spans: None,
        }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    fn expected(&self, key: &[u8]) -> Option<(u32, u64)> {
        let i = key_index(key);
        match self.model_len.get(i) {
            Some(&len) if len != 0 => Some((len, self.model_tag[i])),
            _ => None,
        }
    }

    fn remember(&mut self, key: &[u8], len: u32, tag: u64) {
        let i = key_index(key);
        if i >= self.model_len.len() {
            self.model_len.resize(i + 1, 0);
            self.model_tag.resize(i + 1, 0);
        }
        self.model_len[i] = len;
        self.model_tag[i] = tag;
    }

    /// Untimed pass: retrieves `VERIFY_KEYS` seeded keys (hits and known
    /// misses) and counts every disagreement with the model map.
    fn verify(&mut self, population: u64, seed: u64, now: SimTime) {
        let keygen = KeyGen::new(KEY_BYTES);
        let mut rng = DeterministicRng::seed_from(seed);
        let mut key = Vec::with_capacity(KEY_BYTES);
        let reach = (population * VERIFY_REACH_PCT / 100).max(population + 1);
        for _ in 0..VERIFY_KEYS {
            keygen.key_into(rng.below(reach), &mut key);
            self.attempted += 1;
            match self.sut.fetch(now, &key) {
                Ok(held) if held == self.expected(&key) => {}
                _ => self.failed += 1,
            }
        }
    }
}

impl<S: Sut> KvStore for Driver<S> {
    fn name(&self) -> &'static str {
        self.sut.label()
    }

    // `run_phase` reaches the store only through `run_ops`, `flush` and
    // `host_cpu_busy`; the single-op entry points exist to satisfy the
    // trait and follow the same rules.
    fn insert(&mut self, now: SimTime, key: &[u8], value_len: u32, tag: u64) -> SimTime {
        self.sut.put(now, key, value_len, tag).unwrap_or(now)
    }

    fn read(&mut self, now: SimTime, key: &[u8]) -> (SimTime, bool) {
        self.sut.get(now, key).unwrap_or((now, false))
    }

    fn delete(&mut self, now: SimTime, _key: &[u8]) -> SimTime {
        now
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.sut.flush(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.sut.cpu_busy()
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            user_bytes: 1,
            stored_bytes: 1,
        }
    }

    fn run_ops(&mut self, runner: &mut QueueRunner, batch: &OpBatch, rec: &mut PhaseRecorder<'_>) {
        let enter = self.batch_spans.as_ref().map(|_| self.clock.ns());
        for (op, key) in batch.iter() {
            self.attempted += 1;
            let mut ok = true;
            let mut found = true;
            let timing = runner.submit(|issue| {
                let done = if op.is_read {
                    self.sut.get(issue, key).map(|(done, hit)| {
                        found = hit;
                        done
                    })
                } else {
                    self.sut.put(issue, key, op.value_len, op.tag)
                };
                done.unwrap_or_else(|_| {
                    ok = false;
                    issue
                })
            });
            if op.is_read {
                ok &= found == self.expected(key).is_some();
            } else if ok {
                self.remember(key, op.value_len, op.tag);
                self.user_bytes += key.len() as u64 + op.value_len as u64;
            }
            if ok {
                rec.record(op, key.len(), timing, found);
            } else {
                // A failed op enters no latency histogram.
                self.failed += 1;
            }
        }
        if let (Some(enter), Some(spans)) = (enter, self.batch_spans.as_mut()) {
            spans.push((enter, self.clock.ns()));
        }
    }
}

/// Sim-domain results of a phase, accumulated over its segments.
struct SimPhase {
    reads: LatencyHistogram,
    writes: LatencyHistogram,
    cpu_busy: SimDuration,
    not_found: u64,
    started: SimTime,
    finished: SimTime,
}

fn fold(digest: u64, value: u64) -> u64 {
    mix64(digest ^ value).rotate_left(17)
}

fn fold_histogram(mut digest: u64, h: &LatencyHistogram) -> u64 {
    digest = fold(digest, h.count());
    if h.is_empty() {
        return digest;
    }
    for v in [h.min(), h.mean(), h.max()] {
        digest = fold(digest, v.as_nanos());
    }
    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99] {
        digest = fold(digest, h.percentile(p).as_nanos());
    }
    digest
}

/// The measured-phase spec of segment `segment` (the warm-up is a
/// segment like any other, with its own seed).
pub fn segment_spec(w: &Workload, population: u64, ops: u64, seed: u64) -> WorkloadSpec {
    let mix = match w.read_pct {
        100 => OpMix::ReadOnly,
        0 => OpMix::UpdateOnly,
        read_pct => OpMix::Mixed { read_pct },
    };
    WorkloadSpec::new(w.name, ops, (population * w.reach_pct / 100).max(1))
        .mix(mix)
        .pattern(w.pattern)
        .value(ValueSize::Fixed(w.value_bytes))
        .key_bytes(KEY_BYTES)
        .queue_depth(w.queue_depth)
        .seed(seed)
}

/// Runs workload `w` once. `build` constructs the (empty) system under
/// test; it is called `opts.setups` times and the last instance is the
/// one measured.
pub fn run<S: Sut>(w: &'static Workload, opts: &Options, build: impl Fn() -> S) -> Report {
    let clock = Clock::start();
    let mut tracer = Tracer::new(clock, opts.trace);
    let run_span = tracer.begin("run", None);
    let population = (w.population / opts.shrink).max(64);
    let seg_ops = w.segment_ops(opts.seconds, opts.shrink);
    let mut seeds = DeterministicRng::seed_from(opts.seed);
    let fill_seed = seeds.next_u64();

    // --- set-up: build + fill, several times; keep the last ---------
    let fill_spec = WorkloadSpec::new("fill", population, population)
        .mix(OpMix::InsertOnly)
        .pattern(AccessPattern::Uniform)
        .value(ValueSize::Fixed(w.value_bytes))
        .key_bytes(KEY_BYTES)
        .queue_depth(8)
        .seed(fill_seed);
    let mut setup_secs = Vec::with_capacity(opts.setups);
    let mut built = None;
    for _ in 0..opts.setups.max(1) {
        drop(built.take());
        let span = tracer.begin("setup", Some(run_span));
        let t0 = clock.secs();
        let mut driver = Driver::new(build(), population * VERIFY_REACH_PCT / 100 + 1, clock);
        let fill = run_phase(&mut driver, &fill_spec, SimTime::ZERO);
        setup_secs.push(clock.secs() - t0);
        tracer.end(span);
        built = Some((driver, fill));
    }
    let (mut driver, fill) = built.expect("at least one set-up");
    let fill_counts = driver.sut.counts();
    let fill_user_bytes = driver.user_bytes;

    // --- warm-up: one unmeasured segment ------------------------------
    let span = tracer.begin("warmup", Some(run_span));
    let settled = fill.finished + SimDuration::from_millis(200);
    let warm = run_phase(
        &mut driver,
        &segment_spec(w, population, seg_ops, seeds.next_u64()),
        settled,
    );
    tracer.end(span);

    // --- measured phase -------------------------------------------------
    let calib_before_ns = host::calibrate(&clock);
    let before = driver.sut.counts();
    let user_bytes_before = driver.user_bytes;
    let (allocs0, alloc_bytes0) = alloc::counts();
    let (cpu0, runq0) = host::schedstat();
    let mut sim = SimPhase {
        reads: LatencyHistogram::new(),
        writes: LatencyHistogram::new(),
        cpu_busy: SimDuration::ZERO,
        not_found: 0,
        started: warm.finished,
        finished: warm.finished,
    };
    let mut seg_secs = Vec::with_capacity(SEGMENTS as usize);
    for i in 0..SEGMENTS {
        let spec = segment_spec(w, population, seg_ops, seeds.next_u64());
        // In a traced run every other segment records its batch spans, so
        // the untraced half of the same run prices the tracing.
        let traced = opts.trace && i % 2 == 0;
        driver.batch_spans = traced.then(Vec::new);
        let span = tracer.begin("segment", Some(run_span));
        let mut cursor = tracer.now_ns();
        let t0 = clock.secs();
        let m = run_phase(&mut driver, &spec, sim.finished);
        seg_secs.push(clock.secs() - t0);
        tracer.end(span);
        if let Some(batches) = driver.batch_spans.take() {
            // Between two `run_ops` calls `run_phase` is planning.
            for (enter, exit) in batches {
                tracer.record("plan", cursor, enter, Some(span));
                tracer.record("store-calls", enter, exit, Some(span));
                cursor = exit;
            }
        }
        sim.reads.merge_from(&m.reads);
        sim.writes.merge_from(&m.writes);
        sim.cpu_busy += m.cpu_busy;
        sim.not_found += m.not_found;
        sim.finished = m.finished;
    }
    let (cpu1, runq1) = host::schedstat();
    let (allocs1, alloc_bytes1) = alloc::counts();
    let delta = driver.sut.counts().since(&before);
    let calib_after_ns = host::calibrate(&clock);
    let ops = SEGMENTS * seg_ops;
    let user_bytes = driver.user_bytes - user_bytes_before;

    // --- verification (untimed) ----------------------------------------
    let span = tracer.begin("verify", Some(run_span));
    driver.verify(population, seeds.next_u64(), sim.finished);
    tracer.end(span);

    // --- end-to-end metrics ------------------------------------------------
    let seg_kops: Vec<f64> = seg_secs.iter().map(|s| seg_ops as f64 / s / 1e3).collect();
    let sim_secs = sim.finished.since(sim.started).as_secs_f64();
    let done = sim.reads.count() + sim.writes.count();
    // A read-only measured phase has no stores of its own: its write-side
    // metrics are those of its fill (the only writes the workload makes).
    let (writes, write_flash_bytes, write_user_bytes) = if sim.writes.is_empty() {
        (
            &fill.writes,
            fill_counts.flash_bytes_written,
            fill_user_bytes,
        )
    } else {
        (&sim.writes, delta.flash_bytes_written, user_bytes)
    };
    let us = |d: SimDuration| d.as_micros_f64();
    // The sandbox's disturbances only ever slow a segment or a set-up
    // down, so the quartile on the undisturbed side is the steadier
    // estimate: over five sets of ten runs the median segment spread up
    // to 27 % between runs, the upper quartile at most 17 % (README).
    let end_to_end = vec![
        Metric::new(
            "host_kops",
            host::quartiles(&seg_kops).1,
            "kops/s",
            SEGMENTS,
        ),
        Metric::new(
            "setup_s",
            host::quartiles(&setup_secs).0,
            "s",
            setup_secs.len() as u64,
        ),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB", 1),
        Metric::new(
            "allocs_per_kop",
            (allocs1 - allocs0) as f64 * 1e3 / ops as f64,
            "1/kop",
            ops,
        ),
        Metric::new("sim_kops", done as f64 / sim_secs / 1e3, "kops/sim_s", done),
        Metric::new(
            "sim_read_p50_us",
            us(sim.reads.percentile(50.0)),
            "sim_us",
            sim.reads.count(),
        ),
        Metric::new(
            "sim_read_p99_us",
            us(sim.reads.percentile(99.0)),
            "sim_us",
            sim.reads.count(),
        ),
        Metric::new(
            "sim_write_p50_us",
            us(writes.percentile(50.0)),
            "sim_us",
            writes.count(),
        ),
        Metric::new(
            "sim_write_p99_us",
            us(writes.percentile(99.0)),
            "sim_us",
            writes.count(),
        ),
        Metric::new(
            "sim_host_cpu_cores",
            sim.cpu_busy.as_secs_f64() / sim_secs,
            "cores",
            done,
        ),
        Metric::new(
            "waf",
            write_flash_bytes as f64 / write_user_bytes.max(1) as f64,
            "B/B",
            writes.count(),
        ),
        Metric::new("space_amp", driver.sut.space_amp(), "B/B", 1),
    ];

    // --- sim digest: every sim-domain counter and histogram --------------
    let mut sim_digest = fold(0, ops);
    for v in delta.values().into_iter().chain(fill_counts.values()) {
        sim_digest = fold(sim_digest, v);
    }
    for h in [&sim.reads, &sim.writes, &fill.writes] {
        sim_digest = fold_histogram(sim_digest, h);
    }
    for v in [
        sim.finished.as_nanos(),
        sim.cpu_busy.as_nanos(),
        sim.not_found,
        driver.failed,
        user_bytes,
        driver.sut.space_amp().to_bits(),
    ] {
        sim_digest = fold(sim_digest, v);
    }

    let mut report = Report {
        workload: w.name,
        system: driver.sut.label(),
        end_to_end,
        per_layer: Vec::new(),
        ops_attempted: driver.attempted,
        ops_failed: driver.failed,
        sim_digest,
        calib_before_ns,
        calib_after_ns,
        segment_iqr_pct: host::iqr_pct(&seg_kops),
        segment_kops: seg_kops,
        setup_secs,
        span_self_ms: Vec::new(),
    };

    // --- per-layer metrics (traced run only) --------------------------------
    if opts.trace {
        let halves = |parity: u64| -> Vec<f64> {
            (0..SEGMENTS)
                .filter(|i| i % 2 == parity)
                .map(|i| seg_secs[i as usize] * 1e9 / seg_ops as f64)
                .collect()
        };
        let measured = layers::Measured {
            workload: w,
            population,
            seg_ops,
            ops,
            delta,
            client_writes: sim.writes.count(),
            client_reads: sim.reads.count(),
            user_bytes,
            sim_ns: sim.finished.since(sim.started).as_nanos(),
            sim_end: sim.finished,
            read_p999_us: us(sim.reads.percentile(99.9)),
            write_p999_us: us(writes.percentile(99.9)),
            dies: driver.sut.dies(),
            shard_keys: driver.sut.shard_keys(),
            host_ns_per_op: seg_secs.iter().sum::<f64>() * 1e9 / ops as f64,
            traced_ns_per_op: host::median(&halves(0)),
            untraced_ns_per_op: host::median(&halves(1)),
            alloc_bytes: alloc_bytes1 - alloc_bytes0,
            cpu_ns: cpu1 - cpu0,
            runq_ns: runq1 - runq0,
            calib_ns: calib_after_ns,
            calib_drift_pct: report.calib_drift_pct(),
            segment_iqr_pct: report.segment_iqr_pct,
        };
        let probes_span = tracer.begin("probes", Some(run_span));
        report.per_layer = layers::per_layer(
            &measured,
            &mut driver,
            &mut tracer,
            probes_span,
            seeds.next_u64(),
        );
        tracer.end(probes_span);
        tracer.end(run_span);
        report.span_self_ms = tracer
            .self_times()
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6))
            .collect();
        let path = format!("{}/out/trace-{}.json", env!("CARGO_MANIFEST_DIR"), w.name);
        let run_id = format!("{}-seed{}", w.name, opts.seed);
        if let Err(e) = tracer.write_json(&path, &run_id) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    report
}
