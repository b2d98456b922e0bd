//! The paper's experiments, one module per table/figure.
//!
//! Every module exposes `run(scale) -> <ResultType>` returning structured
//! measurements (integration tests assert on those) and `report(scale)`
//! printing the paper-shaped rows.

pub mod ablations;
pub mod cells;
pub mod cluster_ops;
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
use kvssd_sim::SimTime;

use crate::Scale;

/// A figure entry point taking only the run scale.
pub type FigureFn = fn(Scale);

/// Every figure's name with its report function, in canonical order
/// (the order `repro_all` runs them).
pub const FIGURES: [(&str, FigureFn); 13] = [
    ("fig2", |s| {
        fig2::report(s);
    }),
    ("fig3", |s| {
        fig3::report(s);
    }),
    ("fig4", |s| {
        fig4::report(s);
    }),
    ("fig5", |s| {
        fig5::report(s);
    }),
    ("fig6", |s| {
        fig6::report(s);
    }),
    ("fig7", |s| {
        fig7::report(s);
    }),
    ("fig8", |s| {
        fig8::report(s);
    }),
    ("headline", |s| {
        headline::report(s);
    }),
    ("ablations", |s| {
        ablations::report(s);
    }),
    ("scaleout", |s| {
        scaleout::report(s);
    }),
    ("replication", |s| {
        replication::report(s);
    }),
    ("fabric", |s| {
        fabric::report(s);
    }),
    ("fabric_faults", |s| {
        fabric_faults::report(s);
    }),
];

/// The figures ported onto the parallel cell scheduler, in canonical
/// order. Each entry runs the figure *silently* (no table printing) —
/// what the self-timing harness executes.
pub const PORTED: [(&str, FigureFn); 9] = [
    ("fig2", |s| {
        fig2::run(s);
    }),
    ("fig4", |s| {
        fig4::run(s);
    }),
    ("fig5", |s| {
        fig5::run(s);
    }),
    ("fig7", |s| {
        fig7::run(s);
    }),
    ("ablations", |s| {
        ablations::run(s);
    }),
    ("scaleout", |s| {
        scaleout::run(s);
    }),
    ("replication", |s| {
        replication::run(s);
    }),
    ("fabric", |s| {
        fabric::run(s);
    }),
    ("fabric_faults", |s| {
        fabric_faults::run(s);
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

/// Public wrapper around the internal fill helper, for diagnostic
/// examples and tests.
pub fn fill_pub(
    store: &mut dyn KvStore,
    n: u64,
    value_bytes: u32,
    qd: usize,
    start: SimTime,
) -> RunMetrics {
    fill(store, n, value_bytes, qd, start)
}

/// Settle time inserted between phases so buffered state drains.
pub(crate) fn settle(t: SimTime) -> SimTime {
    t + kvssd_sim::SimDuration::from_millis(200)
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
        for (n, _) in PORTED {
            assert!(
                names.contains(&n),
                "PORTED figure `{n}` missing from FIGURES"
            );
        }
    }
}
