//! Measurement primitives: latency histograms and bandwidth time series
//! — the simulator's replacements for the paper's KVbench logs, `dstat`,
//! and `iostat`.

mod histogram;
mod series;

pub use histogram::LatencyHistogram;
pub use series::{BandwidthPoint, BandwidthSeries};
