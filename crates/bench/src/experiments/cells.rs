//! The parallel experiment scheduler.
//!
//! Every figure's sweep decomposes into independent [`Cell`]s — each
//! builds its own device(s) from fixed seeds, so cells share no state
//! and can run on any thread. [`run_cells`] executes them on a
//! `std::thread::scope` worker pool sized from
//! `available_parallelism()` (override: `KVSSD_BENCH_THREADS`), and
//! collects results **by cell index**, so the assembled figure is
//! byte-identical to the serial path regardless of completion order.
//!
//! `KVSSD_BENCH_THREADS=1` is an exact pass-through: cells run in index
//! order on the calling thread with no pool, mirroring the cluster's
//! 1-shard-equals-bare-device invariant.
//!
//! The scheduler also self-times: per-cell and per-figure wall-clock
//! land in a process-wide registry that `repro_all --timings` drains
//! into a table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::walltime::Stopwatch;

/// One independent unit of a figure's sweep.
pub type Cell<T> = Box<dyn FnOnce() -> T + Send>;

/// Wall-clock record of one `run_cells` invocation.
#[derive(Debug, Clone)]
pub struct FigureTiming {
    /// Figure label (e.g. `fig5`).
    pub figure: String,
    /// Sub-cell phase within the figure (e.g. `fill`, `measure`);
    /// empty for figures that run as one monolithic round.
    pub phase: String,
    /// Worker threads used.
    pub threads: usize,
    /// Number of cells executed.
    pub cells: usize,
    /// Wall-clock seconds for the whole figure.
    pub wall_seconds: f64,
    /// Wall-clock seconds per cell, by cell index.
    pub cell_seconds: Vec<f64>,
}

static TIMINGS: Mutex<Vec<FigureTiming>> = Mutex::new(Vec::new());

/// Worker threads the next `run_cells` will use: `KVSSD_BENCH_THREADS`,
/// else `available_parallelism()`.
pub fn thread_count() -> usize {
    if let Some(s) = crate::env_config("KVSSD_BENCH_THREADS") {
        if let Some(n) = s.trim().parse::<usize>().ok().filter(|&n| n >= 1) {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Drains the accumulated per-figure timings (used by `repro_all --timings`).
pub fn take_timings() -> Vec<FigureTiming> {
    std::mem::take(&mut *TIMINGS.lock().expect("timing registry"))
}

/// Runs `cells` and returns their results in cell-index order.
pub fn run_cells<T: Send>(figure: &str, cells: Vec<Cell<T>>) -> Vec<T> {
    run_cells_phase(figure, "", cells)
}

/// Runs one phase of a figure split into scheduling sub-cells
/// (e.g. `fill` then `measure`): identical execution semantics to
/// [`run_cells`], but the timing record carries the phase label so
/// `repro_all --timings` can show where a figure's wall-clock goes.
pub fn run_cells_phase<T: Send>(figure: &str, phase: &str, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    let threads = thread_count().min(n.max(1));
    let wall = Stopwatch::start();
    let (out, cell_seconds) = if threads <= 1 {
        run_serial(cells)
    } else {
        run_pool(cells, threads)
    };
    TIMINGS.lock().expect("timing registry").push(FigureTiming {
        figure: figure.to_string(),
        phase: phase.to_string(),
        threads,
        cells: n,
        wall_seconds: wall.elapsed_secs(),
        cell_seconds,
    });
    out
}

/// The exact serial path: index order, calling thread, no pool.
fn run_serial<T: Send>(cells: Vec<Cell<T>>) -> (Vec<T>, Vec<f64>) {
    let mut out = Vec::with_capacity(cells.len());
    let mut secs = Vec::with_capacity(cells.len());
    for cell in cells {
        let t0 = Stopwatch::start();
        out.push(cell());
        secs.push(t0.elapsed_secs());
    }
    (out, secs)
}

fn run_pool<T: Send>(cells: Vec<Cell<T>>, threads: usize) -> (Vec<T>, Vec<f64>) {
    let n = cells.len();
    let work: Vec<Mutex<Option<Cell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<(T, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i]
                    .lock()
                    .expect("work slot")
                    .take()
                    .expect("each cell is claimed exactly once");
                let t0 = Stopwatch::start();
                let result = cell();
                *slots[i].lock().expect("result slot") = Some((result, t0.elapsed_secs()));
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    let mut secs = Vec::with_capacity(n);
    for slot in slots {
        let (result, s) = slot
            .into_inner()
            .expect("result slot")
            .expect("every cell ran to completion");
        out.push(result);
        secs.push(s);
    }
    (out, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let cells: Vec<Cell<usize>> = (0..32)
            .map(|i| {
                let c: Cell<usize> = Box::new(move || i * i);
                c
            })
            .collect();
        let (got, _) = run_pool(cells, 4);
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_runs_on_calling_thread() {
        let me = std::thread::current().id();
        let cells: Vec<Cell<bool>> = vec![Box::new(move || std::thread::current().id() == me)];
        let (got, _) = run_serial(cells);
        assert_eq!(got, vec![true]);
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let got: Vec<u8> = run_cells("test-empty", Vec::new());
        assert!(got.is_empty());
    }
}
