//! 0/1 knapsack solvers underlying the on-demand download planner.
//!
//! The paper (Bright & Raschid, ICPP 2000) maps the base station's
//! "which objects do I download this round?" decision to the 0/1 knapsack
//! problem: each candidate object is an item whose *size* is the object
//! size in data units and whose *profit* is the aggregate recency benefit
//! to all clients requesting it. The capacity is the upper bound on the
//! amount of data the base station is willing to download in one round.
//!
//! This crate provides:
//!
//! * [`DpByCapacity`] — the exact pseudo-polynomial dynamic program the
//!   paper uses, including a full **solution-space trace** ([`DpTrace`])
//!   that yields the optimal value *at every capacity* `0..=C` from a
//!   single run. The paper's Section 4 analysis ("how does the quality of
//!   the solution change as the upper bound increases") reads this trace
//!   directly. There is one sweep: the bounded one on a reusable
//!   [`DpScratch`], which [`DpTrace`] wraps; the textbook full-table
//!   sweep it is pinned against is test support (`tests/reference`).
//! * [`AdaptiveSolver`] — instance reduction (bound-based variable
//!   fixing) in front of a DP over the surviving core; bit-identical to [`DpByCapacity`] and what every round runs.
//!   Handed only the dense part of an instance with a [`LeftOut`] bound
//!   on the rest (items below a [`density_band`] cut), it certifies the
//!   rest out of every optimum before its DP, or refuses.
//! * [`fractional_upper_bound`] — the LP-relaxation optimum: the fluid
//!   bound of `basecache-analytic` and an oracle in tests.
//!
//! All solvers implement the [`Solver`] trait and produce a verified
//! [`Solution`]. Profits are `f64` (the paper's profits are sums of
//! recency benefits in `[0, 1]`) on a grid of `2^-32` ([`grid_profit`],
//! the grid of `basecache_sim::metrics`),
//! where sums below `2^21` are exact; sizes and capacities are integral
//! data units, as in the paper.
//!
//! # Example
//!
//! ```
//! use basecache_knapsack::{Instance, Item, Solver, DpByCapacity};
//!
//! let inst = Instance::new(vec![
//!     Item::new(3, 4.0),
//!     Item::new(4, 5.0),
//!     Item::new(2, 3.0),
//! ]).unwrap();
//! let sol = DpByCapacity.solve(&inst, 6);
//! assert_eq!(sol.total_size(), 6); // items of size 4 and 2
//! assert!((sol.total_profit() - 8.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod band;
mod dp;
mod error;
mod fractional;
mod instance;
mod scratch;
mod solution;

pub use adaptive::{AdaptiveScratch, AdaptiveSolver, LeftOut, SolveMethod};
pub use band::{band_edge, cut_below, density_band, BANDS};
pub use dp::{DpByCapacity, DpTrace};
pub use error::KnapsackError;
pub use fractional::{fractional_upper_bound, FractionalSolution};
pub use instance::{grid_profit, Instance, Item};
pub use scratch::DpScratch;
pub use solution::Solution;

/// A 0/1 knapsack solver.
///
/// Implementations must return a *feasible* solution: the chosen items'
/// total size never exceeds `capacity`, and each item is chosen at most
/// once. Every implementation in this crate is exact.
pub trait Solver {
    /// Solve `instance` under the given `capacity` (in data units).
    fn solve(&self, instance: &Instance, capacity: u64) -> Solution;

    /// A short human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

// The unit tests compare the bounded sweeps against the same reference
// sweep the integration suites use, which names this crate from outside.
#[cfg(test)]
extern crate self as basecache_knapsack;
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod solver_contract_tests {
    use super::*;

    fn solvers() -> Vec<Box<dyn Solver>> {
        vec![Box::new(DpByCapacity), Box::new(AdaptiveSolver)]
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = Instance::new(vec![]).unwrap();
        for s in solvers() {
            let sol = s.solve(&inst, 10);
            assert_eq!(sol.total_size(), 0, "{}", s.name());
            assert_eq!(sol.total_profit(), 0.0, "{}", s.name());
            assert!(sol.chosen_indices().is_empty(), "{}", s.name());
        }
        // Both empty sums are `+0.0`, not Rust's empty-`f64`-sum `-0.0`.
        assert_eq!(inst.total_profit().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn zero_capacity_only_admits_zero_size_items() {
        let inst = Instance::new(vec![Item::new(0, 2.5), Item::new(1, 9.0)]).unwrap();
        for s in solvers() {
            let sol = s.solve(&inst, 0);
            assert_eq!(sol.total_size(), 0, "{}", s.name());
            assert!(
                (sol.total_profit() - 2.5).abs() < 1e-9,
                "{} should still take the free item",
                s.name()
            );
        }
    }

    #[test]
    fn oversized_items_are_never_chosen() {
        let inst = Instance::new(vec![Item::new(100, 1000.0), Item::new(2, 1.0)]).unwrap();
        for s in solvers() {
            let sol = s.solve(&inst, 10);
            assert!(sol.verify(&inst, 10).is_ok(), "{}", s.name());
            assert_eq!(sol.chosen_indices(), &[1], "{}", s.name());
        }
    }

    #[test]
    fn all_items_fit_when_capacity_is_total_size() {
        let items = vec![Item::new(3, 1.0), Item::new(4, 2.0), Item::new(5, 3.0)];
        let total: u64 = items.iter().map(|i| i.size()).sum();
        let inst = Instance::new(items).unwrap();
        for s in solvers() {
            let sol = s.solve(&inst, total);
            assert!((sol.total_profit() - 6.0).abs() < 1e-9, "{}", s.name());
        }
    }
}
