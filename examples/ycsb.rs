//! The paper's stated future work, implemented: YCSB core workloads
//! against all three stacks.
//!
//! ```sh
//! cargo run --release --example ycsb
//! ```

use kvssd_study::bench::setup;
use kvssd_study::kvbench::{run_phase, ycsb, KvStore, Table};
use kvssd_study::sim::SimTime;

fn main() {
    let population = 30_000;
    let ops = 30_000;
    println!(
        "YCSB core workloads: {population}-record population, {ops} ops each, \
         1000 B records, Zipfian 0.99\n"
    );
    let mut table = Table::new(&[
        "workload",
        "system",
        "mean (us)",
        "p99 (us)",
        "Kops/s",
        "CPU (cores)",
    ]);
    for (name, spec_of) in [
        ("A 50r/50u", ycsb::workload_a as fn(u64, u64) -> _),
        ("B 95r/5u", ycsb::workload_b),
        ("C read-only", ycsb::workload_c),
        ("F rmw", ycsb::workload_f),
    ] {
        let mut systems: Vec<Box<dyn KvStore>> = vec![
            Box::new(setup::kv_ssd()),
            Box::new(setup::rocksdb()),
            Box::new(setup::aerospike()),
        ];
        for store in &mut systems {
            let system = store.name();
            let l = run_phase(store.as_mut(), &ycsb::load(population), SimTime::ZERO);
            let m = run_phase(store.as_mut(), &spec_of(ops, population), l.finished);
            table.row(&[
                name,
                system,
                &format!("{:.1}", m.mean_latency_us()),
                &format!(
                    "{:.1}",
                    m.reads
                        .percentile(99.0)
                        .max(m.writes.percentile(99.0))
                        .as_micros_f64()
                ),
                &format!("{:.1}", m.ops_per_sec() / 1e3),
                &format!("{:.2}", m.cpu_cores_used()),
            ]);
        }
    }
    println!("{table}");

    // Workload E (short scans) maps to the KV-SSD's iterator buckets:
    // the device groups keys by their first 4 bytes (Sec. II).
    let mut store = setup::kv_ssd();
    let l = run_phase(&mut store, &ycsb::load(population), SimTime::ZERO);
    let dev = store.device_mut();
    let (t, handle) = dev.iter_open(l.finished, *b"usr.");
    let mut t = t;
    let mut scanned = 0usize;
    let mut batches = 0u32;
    let scan_start = t;
    loop {
        let (t2, keys) = dev.iter_next(t, handle, 100).expect("open handle");
        t = t2;
        if keys.is_empty() {
            break;
        }
        scanned += keys.len();
        batches += 1;
    }
    // Nothing follows the close: the scan's time ends at its last batch.
    let _closed = dev.iter_close(t, handle).expect("close");
    println!(
        "Workload E analog: scanned {scanned} keys in {batches} iterator \
         batches over {} of virtual time ({:.1} us per 100-key batch).",
        t.since(scan_start),
        t.since(scan_start).as_micros_f64() / batches.max(1) as f64,
    );
    println!(
        "\nPer the paper's conclusion, the KV-SSD's fit is read-heavy and\n\
         concurrent workloads (B/C) — update-heavy mixes (A/F) eventually\n\
         meet its foreground GC."
    );
}
