//! Property tests for the simulation substrate, with the in-repo
//! [`DeterministicRng`] as the case generator.

use kvssd_sim::{
    DeterministicRng, LatencyHistogram, QueueRunner, Resource, ResourcePool, SimDuration, SimTime,
    ZipfianDistribution,
};

/// Histogram percentiles stay within the structure's relative-error
/// bound against exact order statistics, for arbitrary samples.
#[test]
fn histogram_percentiles_bounded_error() {
    let mut rng = DeterministicRng::seed_from(0x5151_0001);
    for _ in 0..48 {
        let len = rng.between(1, 400) as usize;
        let mut samples: Vec<u64> = (0..len).map(|_| rng.between(1, 10_000_000_000)).collect();
        let p = 1.0 + rng.unit() * 99.0;
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let got = h.percentile(p).as_nanos();
        // Bucketed value is an upper edge: never below the exact value's
        // bucket, never more than ~4 % above the true max of that rank.
        assert!(got as f64 >= exact as f64 * 0.96, "got {got} exact {exact}");
        assert!(got <= h.max().as_nanos());
    }
}

/// Histogram mean/min/max are exact regardless of bucketing.
#[test]
fn histogram_exact_moments() {
    let mut rng = DeterministicRng::seed_from(0x5151_0002);
    for _ in 0..48 {
        let len = rng.between(1, 200) as usize;
        let samples: Vec<u64> = (0..len).map(|_| rng.below(1_000_000_000)).collect();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        assert_eq!(h.mean().as_nanos() as u128, sum / samples.len() as u128);
        assert_eq!(h.min().as_nanos(), *samples.iter().min().unwrap());
        assert_eq!(h.max().as_nanos(), *samples.iter().max().unwrap());
    }
}

/// A FIFO resource conserves busy time and never overlaps service
/// windows, for arbitrary arrivals.
#[test]
fn resource_windows_never_overlap() {
    let mut rng = DeterministicRng::seed_from(0x5151_0003);
    for _ in 0..48 {
        let n = rng.between(1, 100) as usize;
        let mut r = Resource::new();
        let mut windows = Vec::new();
        let mut total = 0u64;
        for _ in 0..n {
            let at = rng.below(1_000_000);
            let dur = rng.between(1, 9_999);
            let w = r.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            assert_eq!(w.end.since(w.start).as_nanos(), dur);
            assert!(w.start >= SimTime::from_nanos(at));
            windows.push(w);
            total += dur;
        }
        assert_eq!(r.busy_total().as_nanos(), total);
        for pair in windows.windows(2) {
            assert!(pair[1].start >= pair[0].end, "service overlapped");
        }
    }
}

/// A pool of n servers is never slower than a single server and never
/// faster than perfect n-way splitting.
#[test]
fn pool_speedup_is_bounded() {
    let mut rng = DeterministicRng::seed_from(0x5151_0004);
    for _ in 0..48 {
        let n = rng.between(1, 7) as usize;
        let jobs: Vec<u64> = (0..rng.between(1, 80))
            .map(|_| rng.between(1, 9_999))
            .collect();
        let mut single = Resource::new();
        let mut pool = ResourcePool::new(n);
        let mut single_end = SimTime::ZERO;
        let mut pool_end = SimTime::ZERO;
        for &j in &jobs {
            single_end = single
                .acquire(SimTime::ZERO, SimDuration::from_nanos(j))
                .end;
            pool_end = pool_end.max(pool.acquire(SimTime::ZERO, SimDuration::from_nanos(j)).end);
        }
        let total: u64 = jobs.iter().sum();
        assert_eq!(single_end.as_nanos(), total);
        assert!(pool_end <= single_end);
        assert!(pool_end.as_nanos() >= total / n as u64);
    }
}

/// The queue runner respects its depth: with QD d over one server,
/// makespan equals total service regardless of d, and latencies are
/// bounded by d x service.
#[test]
fn queue_runner_conservation() {
    let mut rng = DeterministicRng::seed_from(0x5151_0005);
    for _ in 0..48 {
        let qd = rng.between(1, 15) as usize;
        let services: Vec<u64> = (0..rng.between(1, 80))
            .map(|_| rng.between(1, 4_999))
            .collect();
        let mut server = Resource::new();
        let mut runner = QueueRunner::new(qd);
        let max_service = *services.iter().max().unwrap();
        for &s in &services {
            let t = runner.submit(|issue| server.acquire(issue, SimDuration::from_nanos(s)).end);
            assert!(
                t.latency().as_nanos() <= qd as u64 * max_service,
                "latency exceeded QD x max service"
            );
        }
        let total: u64 = services.iter().sum();
        assert_eq!(runner.drain().as_nanos(), total);
    }
}

/// Zipfian samples always land in range and the distribution is
/// monotone-ish: the hottest decile gets at least its uniform share.
#[test]
fn zipf_in_range_and_skewed() {
    let mut gen_rng = DeterministicRng::seed_from(0x5151_0006);
    for _ in 0..24 {
        let n = gen_rng.between(10, 5_000);
        let theta = 0.05 + gen_rng.unit() * 0.94;
        let seed = gen_rng.below(1_000);
        let zipf = ZipfianDistribution::new(n, theta);
        let mut rng = DeterministicRng::seed_from(seed);
        let draws = 2_000;
        let mut hot = 0u64;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            assert!(r < n);
            if r < n.div_ceil(10) {
                hot += 1;
            }
        }
        assert!(
            hot * 100 >= draws * 8,
            "hot decile under uniform share: {hot}"
        );
    }
}
