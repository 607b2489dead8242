//! [`DpByCapacity`], the paper's exact solver, and [`DpTrace`], its
//! solution-space trace. Both are thin: the sweeps themselves live in
//! `scratch.rs`, on a [`DpScratch`] this file creates fresh per call.

use crate::{DpScratch, Instance, Solution, Solver};

/// Exact 0/1 knapsack by capacity-indexed dynamic programming —
/// the solver the paper uses.
///
/// Runs in `O(n · C)` time and keeps one decision bit per (item,
/// capacity) cell, so complete solutions can be recovered at **every**
/// capacity `0..=C`, not just the final one. That per-capacity trace is
/// exactly what the paper's Section 4 analysis plots (Average Score as a
/// function of the upper bound on data units downloaded).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpByCapacity;

impl DpByCapacity {
    /// Run the DP and return the full solution-space trace.
    ///
    /// The trace is computed up to `min(capacity, instance.total_size())`;
    /// beyond the total size the optimum is flat and queries are clamped.
    /// This is [`DpByCapacity::solve_trace_into`] on tables the returned
    /// trace owns; a caller solving every round keeps a [`DpScratch`]
    /// and calls that directly.
    pub fn solve_trace(&self, instance: &Instance, capacity: u64) -> DpTrace {
        let mut scratch = DpScratch::new();
        self.solve_trace_into(instance.items(), capacity, &mut scratch);
        DpTrace { scratch }
    }
}

impl Solver for DpByCapacity {
    fn solve(&self, instance: &Instance, capacity: u64) -> Solution {
        // Single-capacity fast path: bounded sweeps, identical item set to
        // the full-trace backtrack (see `scratch.rs`).
        let mut scratch = DpScratch::new();
        self.solve_into(instance.items(), capacity, &mut scratch);
        Solution::from_indices(instance, scratch.chosen().to_vec())
    }

    fn name(&self) -> &'static str {
        "dp-capacity"
    }
}

/// The full dynamic-programming table of [`DpByCapacity`], exposing the
/// optimal value and an optimal item set at every capacity `0..=C` — a
/// trace-solved [`DpScratch`] behind the accessors that are valid on it.
#[derive(Debug, Clone)]
pub struct DpTrace {
    scratch: DpScratch,
}

impl DpTrace {
    /// The capacity the trace was requested for.
    pub fn capacity(&self) -> u64 {
        self.scratch.capacity()
    }

    /// Optimal profit at capacity `c` (clamped to the instance's total
    /// size — beyond that, the optimum is flat).
    pub fn value_at(&self, c: u64) -> f64 {
        self.scratch.value_at(c)
    }

    /// The optimal values for capacities `0..=min(C, total_size)`.
    ///
    /// Guaranteed non-decreasing.
    pub fn values(&self) -> &[f64] {
        self.scratch.values()
    }

    /// Recover an optimal item set at capacity `c` by walking the decision
    /// bits backwards through the items.
    pub fn solution_at(&self, instance: &Instance, c: u64) -> Solution {
        self.scratch.solution_at(instance, c)
    }

    /// Marginal gain of each extra unit of capacity:
    /// `gains[c] = value_at(c + 1) - value_at(c)`.
    ///
    /// The paper's "is it worth downloading more?" question (Section 6,
    /// future work) reads this series; see `basecache-core`'s budget-bound
    /// selection.
    pub fn marginal_gains(&self) -> Vec<f64> {
        let mut gains = Vec::new();
        self.scratch.marginal_gains_into(&mut gains);
        gains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Item;

    fn classic() -> Instance {
        // Optimal at capacity 10: items {1, 2} with profit 9, size 9.
        Instance::new(vec![
            Item::new(5, 3.0),
            Item::new(4, 5.0),
            Item::new(5, 4.0),
            Item::new(9, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn finds_textbook_optimum() {
        let sol = DpByCapacity.solve(&classic(), 10);
        assert!((sol.total_profit() - 9.0).abs() < 1e-9);
        assert_eq!(sol.chosen_indices(), &[1, 2]);
        assert!(sol.verify(&classic(), 10).is_ok());
    }

    #[test]
    fn trace_values_are_monotone_and_consistent_with_solutions() {
        let inst = classic();
        let trace = DpByCapacity.solve_trace(&inst, 23);
        let vals = trace.values();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0], "trace must be non-decreasing");
        }
        for c in 0..=23u64 {
            let sol = trace.solution_at(&inst, c);
            sol.verify(&inst, c).unwrap();
            assert!(
                (sol.total_profit() - trace.value_at(c)).abs() < 1e-9,
                "recovered solution must achieve the traced value at c={c}"
            );
        }
    }

    #[test]
    fn capacity_beyond_total_size_is_flat() {
        let inst = classic();
        let trace = DpByCapacity.solve_trace(&inst, 1_000_000);
        assert_eq!(trace.values().len() as u64, inst.total_size() + 1);
        assert!((trace.value_at(1_000_000) - inst.total_profit()).abs() < 1e-9);
    }

    #[test]
    fn zero_size_items_are_free_profit_at_all_capacities() {
        let inst = Instance::new(vec![Item::new(0, 2.0), Item::new(3, 5.0)]).unwrap();
        let trace = DpByCapacity.solve_trace(&inst, 3);
        assert!((trace.value_at(0) - 2.0).abs() < 1e-9);
        assert!((trace.value_at(3) - 7.0).abs() < 1e-9);
        let sol = trace.solution_at(&inst, 0);
        assert_eq!(sol.chosen_indices(), &[0]);
    }

    #[test]
    fn zero_profit_items_are_ignored() {
        let inst = Instance::new(vec![Item::new(1, 0.0), Item::new(1, 1.0)]).unwrap();
        let sol = DpByCapacity.solve(&inst, 2);
        assert_eq!(sol.chosen_indices(), &[1]);
    }

    #[test]
    fn marginal_gains_sum_to_total_value() {
        let inst = classic();
        let trace = DpByCapacity.solve_trace(&inst, 23);
        let sum: f64 = trace.marginal_gains().iter().sum();
        assert!((sum - trace.value_at(23)).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_agreement_on_small_instances() {
        // Brute force all subsets on a handful of fixed instances.
        let instances = vec![
            vec![(3, 4.0), (4, 5.0), (2, 3.0), (5, 6.0)],
            vec![(1, 1.0), (1, 1.0), (1, 1.0)],
            vec![(7, 2.0), (2, 7.0), (3, 3.0), (4, 4.5), (1, 0.1)],
            vec![(10, 1.0)],
        ];
        for spec in instances {
            let inst = Instance::new(spec.iter().map(|&(s, p)| Item::new(s, p)).collect()).unwrap();
            for cap in 0..=inst.total_size() {
                let mut best = 0.0_f64;
                for mask in 0..(1u32 << inst.len()) {
                    let mut size = 0u64;
                    let mut profit = 0.0;
                    for (i, item) in inst.items().iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            size += item.size();
                            profit += item.profit();
                        }
                    }
                    if size <= cap {
                        best = best.max(profit);
                    }
                }
                let got = DpByCapacity.solve(&inst, cap).total_profit();
                assert!(
                    (got - best).abs() < 1e-9,
                    "cap={cap}: dp={got} brute={best} inst={inst:?}"
                );
            }
        }
    }
}
