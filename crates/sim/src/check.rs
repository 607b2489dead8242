//! A miniature property-based testing harness.
//!
//! The workspace builds with no external dependencies, so the property
//! suites that used to run under `proptest` now run on this module: each
//! property is a closure executed over many deterministically seeded
//! cases. It is not a shrinker — on failure it reports the case index so
//! the exact scenario can be replayed with [`case_rng`].

use crate::rng::{RngStreams, StreamRng};

/// Master seed for all property cases; fixed so failures are reproducible
/// across runs and machines.
pub const MASTER_SEED: u64 = 0xBA5E_CA5E_0000_0001;

/// The RNG for case `index` of property `name` — use to replay a single
/// failing case under a debugger.
pub fn case_rng(name: &str, index: u64) -> StreamRng {
    RngStreams::new(MASTER_SEED).stream_indexed(name, index)
}

/// Run `cases` deterministic random cases of a property.
///
/// The property receives the case index and a fresh per-case RNG; it
/// signals failure by panicking (plain `assert!`s). The harness wraps
/// every case so the failing case index is always part of the panic
/// message.
pub fn run_cases<F>(name: &str, cases: u64, mut property: F)
where
    F: FnMut(u64, &mut StreamRng),
{
    for index in 0..cases {
        let mut rng = case_rng(name, index);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(index, &mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{name}' failed on case {index}/{cases}: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        run_cases("det", 5, |i, rng| first.push((i, rng.next_u64())));
        let mut second = Vec::new();
        run_cases("det", 5, |i, rng| second.push((i, rng.next_u64())));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn failures_report_the_case_index() {
        let err = std::panic::catch_unwind(|| {
            run_cases("fails", 10, |i, _| assert!(i < 3, "boom at {i}"));
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("case 3/10"), "{msg}");
        assert!(msg.contains("boom at 3"), "{msg}");
    }
}
