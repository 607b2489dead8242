//! The shared fixed-network backhaul and its per-round budget arbiter.
//!
//! The paper gives one base station `k` object-units of download per
//! time unit. In a cluster, the cells share the fixed network behind
//! them: the real constraint is a *global* per-round budget `B_total`
//! that must be split across cells before each cell can solve its local
//! knapsack. [`BackhaulArbiter`] performs that split, turning each
//! cell's knapsack bound into a negotiated allocation.
//!
//! Three policies, all deterministic integer arithmetic:
//!
//! * [`ArbiterPolicy::Static`] — equal split regardless of demand; the
//!   baseline that wastes budget on idle cells.
//! * [`ArbiterPolicy::ProportionalToDemand`] — allocations proportional
//!   to each cell's declared demand (largest-remainder rounding), so a
//!   hot cell gets a bigger share but can also be *over*-allocated past
//!   what others could have used.
//! * [`ArbiterPolicy::WaterFilling`] — classic water-filling: raise a
//!   common fill level until the budget is exhausted, capping each cell
//!   at its demand. No cell gets more than it asked for, and whatever a
//!   satisfied cell leaves behind flows to the still-thirsty ones.

/// How the global backhaul budget is split across cells each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Equal split, demand ignored (remainder to the lowest cell ids).
    Static,
    /// Split proportional to declared demand; falls back to
    /// [`ArbiterPolicy::Static`] when nobody demands anything.
    ProportionalToDemand,
    /// Raise a common per-cell fill level, capping each cell at its
    /// demand; leftover budget beyond total demand stays unspent.
    WaterFilling,
}

impl ArbiterPolicy {
    /// Stable, export-facing name (`snake_case`).
    pub const fn name(self) -> &'static str {
        match self {
            ArbiterPolicy::Static => "static",
            ArbiterPolicy::ProportionalToDemand => "proportional",
            ArbiterPolicy::WaterFilling => "water_filling",
        }
    }
}

/// Splits a global per-round download budget across cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackhaulArbiter {
    policy: ArbiterPolicy,
    total_budget: u64,
}

/// Working memory for [`BackhaulArbiter::allocate_with`]: a per-round
/// caller keeps one and the split stays off the heap once it has grown
/// to the cell count.
#[derive(Debug, Default)]
pub struct ArbiterScratch {
    /// `(fractional remainder, cell)` per cell, for largest-remainder
    /// rounding.
    remainders: Vec<(u128, usize)>,
}

impl BackhaulArbiter {
    /// An arbiter distributing `total_budget` data units per round.
    pub fn new(policy: ArbiterPolicy, total_budget: u64) -> Self {
        Self {
            policy,
            total_budget,
        }
    }

    /// The global per-round budget `B_total`.
    pub fn total_budget(&self) -> u64 {
        self.total_budget
    }

    /// Allocate the round's budget given each cell's declared demand
    /// (data units of stale requested bytes), writing per-cell
    /// allocations into `out` (resized to `demands.len()`).
    ///
    /// Invariants, checked by the tests: the sum of allocations never
    /// exceeds the budget; under [`ArbiterPolicy::WaterFilling`] no
    /// cell exceeds its demand; and when total demand is at least the
    /// budget, every policy spends the whole budget except
    /// water-filling's integer fill remainder (strictly less than the
    /// number of unsatisfied cells).
    pub fn allocate_into(&self, demands: &[u64], out: &mut Vec<u64>) {
        self.allocate_with(demands, out, &mut ArbiterScratch::default());
    }

    /// [`Self::allocate_into`] on caller-owned working memory: the same
    /// allocations, and no heap traffic once `out` and `scratch` have
    /// grown to the cell count.
    pub fn allocate_with(&self, demands: &[u64], out: &mut Vec<u64>, scratch: &mut ArbiterScratch) {
        out.clear();
        out.resize(demands.len(), 0);
        if demands.is_empty() || self.total_budget == 0 {
            return;
        }
        match self.policy {
            ArbiterPolicy::Static => self.split_evenly(out),
            ArbiterPolicy::ProportionalToDemand => {
                let total_demand: u128 = demands.iter().map(|&d| u128::from(d)).sum();
                if total_demand == 0 {
                    self.split_evenly(out);
                    return;
                }
                // Largest-remainder method: floor every share, then
                // hand the leftover units to the largest fractional
                // remainders (ties to lower cell ids).
                let budget = u128::from(self.total_budget);
                let mut assigned = 0u64;
                let remainders = &mut scratch.remainders;
                remainders.clear();
                for (i, &d) in demands.iter().enumerate() {
                    let numer = u128::from(d) * budget;
                    let share = (numer / total_demand) as u64;
                    out[i] = share;
                    assigned += share;
                    remainders.push((numer % total_demand, i));
                }
                let mut leftover = self.total_budget - assigned;
                remainders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for &(_, i) in remainders.iter() {
                    if leftover == 0 {
                        break;
                    }
                    out[i] += 1;
                    leftover -= 1;
                }
            }
            ArbiterPolicy::WaterFilling => {
                // Iteratively divide the remaining budget evenly among
                // the still-unsatisfied cells, capping at demand. Each
                // pass either satisfies a cell or (once nobody caps)
                // hands out the whole remainder; terminates in at most
                // `cells + 1` passes.
                let mut remaining = self.total_budget;
                loop {
                    let unsatisfied =
                        out.iter().zip(demands).filter(|(a, d)| *a < *d).count() as u64;
                    if unsatisfied == 0 || remaining < unsatisfied {
                        // Too little left for a unit each: the final
                        // remainder (< unsatisfied cells) stays unspent
                        // to keep the split deterministic and fair.
                        break;
                    }
                    let fill = remaining / unsatisfied;
                    let mut spent_this_pass = 0u64;
                    for (a, &d) in out.iter_mut().zip(demands) {
                        if *a < d {
                            let give = fill.min(d - *a);
                            *a += give;
                            spent_this_pass += give;
                        }
                    }
                    remaining -= spent_this_pass;
                    if spent_this_pass == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// Allocate into a fresh `Vec` (report-time convenience).
    pub fn allocate(&self, demands: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        self.allocate_into(demands, &mut out);
        out
    }

    fn split_evenly(&self, out: &mut [u64]) {
        let n = out.len() as u64;
        let base = self.total_budget / n;
        let extra = self.total_budget % n;
        for (i, a) in out.iter_mut().enumerate() {
            *a = base + u64::from((i as u64) < extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(arbiter: &BackhaulArbiter, demands: &[u64]) -> Vec<u64> {
        let alloc = arbiter.allocate(demands);
        assert_eq!(alloc.len(), demands.len());
        let total: u64 = alloc.iter().sum();
        assert!(
            total <= arbiter.total_budget(),
            "{:?} overspent: {total} > {}",
            arbiter.policy,
            arbiter.total_budget()
        );
        alloc
    }

    #[test]
    fn static_split_is_even_with_remainder_to_low_ids() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::Static, 10);
        assert_eq!(check_invariants(&arb, &[5, 5, 5]), vec![4, 3, 3]);
        let arb = BackhaulArbiter::new(ArbiterPolicy::Static, 12);
        assert_eq!(check_invariants(&arb, &[0, 100, 0, 100]), vec![3, 3, 3, 3]);
    }

    #[test]
    fn proportional_follows_demand() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 100);
        assert_eq!(check_invariants(&arb, &[30, 10, 60]), vec![30, 10, 60]);
        // Skew: cell 0 dominates.
        let alloc = check_invariants(&arb, &[900, 50, 50]);
        assert_eq!(alloc, vec![90, 5, 5]);
    }

    #[test]
    fn proportional_largest_remainder_spends_everything() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 10);
        // Shares 3.33 each: floors to 3, one leftover unit goes to the
        // largest remainder — all equal, so the lowest id.
        let alloc = check_invariants(&arb, &[7, 7, 7]);
        assert_eq!(alloc.iter().sum::<u64>(), 10);
        assert_eq!(alloc, vec![4, 3, 3]);
    }

    #[test]
    fn proportional_with_zero_demand_falls_back_to_static() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 9);
        assert_eq!(check_invariants(&arb, &[0, 0, 0]), vec![3, 3, 3]);
    }

    #[test]
    fn water_filling_never_exceeds_demand() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::WaterFilling, 100);
        let demands = [10, 200, 30, 0];
        let alloc = check_invariants(&arb, &demands);
        for (a, d) in alloc.iter().zip(&demands) {
            assert!(a <= d, "allocation {a} exceeds demand {d}");
        }
        // 10 and 30 are satisfied; the leftover pools into cell 1.
        assert_eq!(alloc, vec![10, 60, 30, 0]);
    }

    #[test]
    fn water_filling_leaves_surplus_unspent_when_demand_is_low() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::WaterFilling, 1000);
        let alloc = check_invariants(&arb, &[5, 5]);
        assert_eq!(alloc, vec![5, 5], "no cell is force-fed budget");
    }

    #[test]
    fn water_filling_spends_almost_everything_under_pressure() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::WaterFilling, 100);
        let demands = [70u64, 70, 70];
        let alloc = check_invariants(&arb, &demands);
        let total: u64 = alloc.iter().sum();
        // Remainder is < number of unsatisfied cells.
        assert!(total > 100 - 3, "spent {total} of 100");
        // Equal demands → equal (± rounding) fills.
        assert!(alloc.iter().all(|&a| a == 33 || a == 34), "{alloc:?}");
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        for policy in [
            ArbiterPolicy::Static,
            ArbiterPolicy::ProportionalToDemand,
            ArbiterPolicy::WaterFilling,
        ] {
            let arb = BackhaulArbiter::new(policy, 0);
            assert_eq!(arb.allocate(&[10, 20]), vec![0, 0], "{policy:?}");
        }
    }

    #[test]
    fn empty_cluster_allocates_nothing() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::Static, 50);
        assert!(arb.allocate(&[]).is_empty());
    }

    #[test]
    fn single_cell_gets_the_whole_budget_it_can_use() {
        let full = BackhaulArbiter::new(ArbiterPolicy::Static, 42);
        assert_eq!(full.allocate(&[999]), vec![42]);
        let prop = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 42);
        assert_eq!(prop.allocate(&[999]), vec![42]);
        let water = BackhaulArbiter::new(ArbiterPolicy::WaterFilling, 42);
        assert_eq!(water.allocate(&[999]), vec![42]);
        assert_eq!(water.allocate(&[7]), vec![7], "capped at demand");
    }

    #[test]
    fn allocate_with_matches_allocate_into_across_reuse() {
        // One scratch carried across calls of different widths must not
        // leak a previous call's remainders into the next split.
        let mut scratch = ArbiterScratch::default();
        let mut reused = Vec::new();
        for policy in [
            ArbiterPolicy::Static,
            ArbiterPolicy::ProportionalToDemand,
            ArbiterPolicy::WaterFilling,
        ] {
            let arb = BackhaulArbiter::new(policy, 101);
            for demands in [&[7u64, 7, 7, 900, 0][..], &[3, 1], &[0, 0, 0], &[5; 9]] {
                arb.allocate_with(demands, &mut reused, &mut scratch);
                assert_eq!(reused, arb.allocate(demands), "{policy:?} {demands:?}");
            }
        }
    }

    #[test]
    fn allocate_into_reuses_the_buffer() {
        let arb = BackhaulArbiter::new(ArbiterPolicy::WaterFilling, 12);
        let mut buf = vec![99u64; 8];
        arb.allocate_into(&[4, 4, 4], &mut buf);
        assert_eq!(buf, vec![4, 4, 4]);
    }
}
