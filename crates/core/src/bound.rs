//! Download-budget selection — the paper's Section 6 future work,
//! implemented.
//!
//! "Our analysis shows that under some circumstances there is not a great
//! benefit to downloading large amounts of data. In these cases the
//! techniques will choose a smaller upper bound." The DP solution-space
//! trace gives the optimal achievable value at *every* budget; these
//! helpers read that value curve — `values[b]` is the optimum at budget
//! `b`, as [`basecache_knapsack::DpTrace::values`] and the station's own
//! [`basecache_knapsack::DpScratch::values`] both return it — and pick a
//! budget at its knee.

/// Smallest budget achieving at least `fraction` of the value available
/// at the maximum traced budget.
///
/// `fraction = 0.95` reads Figures 4–6's "dotted rectangle": the point
/// where the curves exceed ~95% of their ceiling (≈2000 units when small
/// objects are hot, ≈3500 when large objects are hot).
///
/// # Panics
///
/// Panics unless `fraction ∈ [0, 1]`.
pub fn budget_for_fraction(values: &[f64], fraction: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let target = fraction * values[values.len() - 1];
    values
        .iter()
        .position(|&v| v >= target - 1e-12)
        .expect("monotone trace must reach a fraction of its own maximum") as u64
}

/// Knee detection by marginal gain: the smallest budget after which the
/// average per-unit gain over the next `window` units falls below
/// `threshold`. Returns the maximum traced budget if the curve never
/// flattens that much.
///
/// A base station calling this each round spends bandwidth only while it
/// is buying meaningful recency: with `threshold = ε` it stops exactly
/// where Figures 4–6 "level off".
///
/// # Panics
///
/// Panics if `window == 0` or `threshold` is negative/NaN.
pub fn knee_budget(values: &[f64], window: u64, threshold: f64) -> u64 {
    assert!(window > 0, "window must be positive");
    assert!(threshold >= 0.0, "threshold must be non-negative");
    let max_budget = (values.len() - 1) as u64;
    for b in 0..max_budget {
        let end = (b + window).min(max_budget);
        let gain = values[end as usize] - values[b as usize];
        let per_unit = gain / (end - b) as f64;
        if per_unit < threshold {
            return b;
        }
    }
    max_budget
}

/// The marginal value of unit `b + 1` of budget (0 beyond the trace).
pub fn marginal_gain_at(values: &[f64], b: u64) -> f64 {
    if (b as usize) + 1 >= values.len() {
        return 0.0;
    }
    values[b as usize + 1] - values[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_knapsack::{DpByCapacity, DpTrace, Instance, Item};

    /// Many tiny high-profit items plus a few huge low-density ones —
    /// produces a sharply kneed curve.
    fn kneed_trace() -> DpTrace {
        let mut items = Vec::new();
        for _ in 0..10 {
            items.push(Item::new(1, 10.0));
        }
        for _ in 0..5 {
            items.push(Item::new(20, 1.0));
        }
        let inst = Instance::new(items).unwrap();
        DpByCapacity.solve_trace(&inst, 110)
    }

    #[test]
    fn fraction_budget_finds_early_knee() {
        let trace = kneed_trace();
        // 10 units already buy 100 of the 105 total value (95.2%).
        let b = budget_for_fraction(trace.values(), 0.95);
        assert_eq!(b, 10);
        assert_eq!(budget_for_fraction(trace.values(), 0.0), 0);
        assert_eq!(budget_for_fraction(trace.values(), 1.0), 110);
    }

    #[test]
    fn knee_budget_stops_when_gains_flatten() {
        let trace = kneed_trace();
        // Per-unit gain is 10 for the first 10 units, then 0.05.
        let b = knee_budget(trace.values(), 5, 1.0);
        assert_eq!(b, 10);
        // A tolerant threshold never stops early.
        assert_eq!(knee_budget(trace.values(), 5, 0.0), 110);
    }

    #[test]
    fn marginal_gains_match_trace_differences() {
        let trace = kneed_trace();
        assert!((marginal_gain_at(trace.values(), 0) - 10.0).abs() < 1e-9);
        assert!(marginal_gain_at(trace.values(), 50) < 1.0);
        assert_eq!(marginal_gain_at(trace.values(), 10_000), 0.0);
    }

    #[test]
    fn fraction_is_monotone_in_its_argument() {
        let trace = kneed_trace();
        let mut prev = 0;
        for f in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let b = budget_for_fraction(trace.values(), f);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let trace = kneed_trace();
        let _ = budget_for_fraction(trace.values(), 1.5);
    }
}
