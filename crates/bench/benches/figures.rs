//! One benchmark per row of the experiments registry: each measures
//! regenerating the artifact (CI-sized parameters so `cargo bench` stays
//! tractable; run the `basecache-experiments` binary for full-fidelity
//! numbers).

use std::hint::black_box;

use basecache_bench::harness::bench_n;
use basecache_experiments::TARGETS;

/// Whole-experiment runs are slow; keep the sample count modest.
const SAMPLES: usize = 10;

fn main() {
    for row in TARGETS {
        bench_n(&format!("figures/{}", row.name), SAMPLES, || {
            black_box((row.run)(true))
        });
    }
}
