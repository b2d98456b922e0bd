//! The paper's experiments, one module per table/figure.
//!
//! Every module exposes `run(scale) -> <ResultType>` returning structured
//! measurements (integration tests assert on those) and
//! `render(&result) -> String`, the paper-shaped rows. [`FIGURES`] is the
//! one registry; the `repro_all` example is the one program that prints.

pub mod ablations;
pub mod cells;
pub mod fabric;
pub mod fabric_faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod headline;
pub mod replication;
pub mod scaleout;

use kvssd_kvbench::{
    run_phase, AccessPattern, KvStore, OpMix, RunMetrics, ValueSize, WorkloadSpec,
};
use kvssd_sim::{LatencyHistogram, SimTime};

use crate::Scale;

/// Runs one figure at a scale and returns its rendered table.
pub type FigureFn = fn(Scale) -> String;

/// Every figure's name with its run-and-render function, in canonical
/// order (the order `repro_all` runs them).
pub const FIGURES: [(&str, FigureFn); 13] = [
    ("fig2", |s| fig2::render(&fig2::run(s))),
    ("fig3", |s| fig3::render(&fig3::run(s))),
    ("fig4", |s| fig4::render(&fig4::run(s))),
    ("fig5", |s| fig5::render(&fig5::run(s))),
    ("fig6", |s| fig6::render(&fig6::run(s))),
    ("fig7", |s| fig7::render(&fig7::run(s))),
    ("fig8", |s| fig8::render(&fig8::run(s))),
    ("headline", |s| headline::render(&headline::run(s))),
    ("ablations", |s| ablations::render(&ablations::run(s))),
    ("scaleout", |s| scaleout::render(&scaleout::run(s))),
    ("replication", |s| replication::render(&replication::run(s))),
    ("fabric", |s| fabric::render(&fabric::run(s))),
    ("fabric_faults", |s| {
        fabric_faults::render(&fabric_faults::run(s))
    }),
];

/// The canonical figure names, straight from [`FIGURES`] — the one
/// registry help text and tooling list so the set can't drift.
pub fn figure_names() -> Vec<&'static str> {
    FIGURES.iter().map(|(n, _)| *n).collect()
}

/// Fills a store with `n` sequential-order keys of `value_bytes` values
/// at queue depth `qd`; returns the fill metrics.
pub(crate) fn fill(
    store: &mut dyn KvStore,
    n: u64,
    value_bytes: u32,
    qd: usize,
    start: SimTime,
) -> RunMetrics {
    let spec = WorkloadSpec::new("fill", n, n)
        .mix(OpMix::InsertOnly)
        .pattern(AccessPattern::Sequential)
        .value(ValueSize::Fixed(value_bytes))
        .queue_depth(qd);
    run_phase(store, &spec, start)
}

/// Settle time inserted between phases so buffered state drains.
pub(crate) fn settle(t: SimTime) -> SimTime {
    t + kvssd_sim::SimDuration::from_millis(200)
}

/// Histogram percentile in microseconds (0 for an empty histogram).
pub(crate) fn pctl_us(h: &LatencyHistogram, p: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    h.percentile(p).as_nanos() as f64 / 1_000.0
}

/// Downsamples a phase's bandwidth series to ~24 points.
pub(crate) fn downsample(m: &RunMetrics) -> Vec<f64> {
    let pts = m.bandwidth.points();
    if pts.is_empty() {
        return Vec::new();
    }
    let chunk = pts.len().div_ceil(24);
    pts.chunks(chunk)
        .map(|c| c.iter().map(|p| p.mbps).sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_registries_are_consistent() {
        let names = figure_names();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate figure name");
        assert!(names.contains(&"fabric"), "fabric missing from FIGURES");
    }
}
