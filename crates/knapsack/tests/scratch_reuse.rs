//! Scratch-reuse exactness: one `DpScratch` recycled across many
//! randomized instances must reproduce the reference sweep bit for bit
//! — traces, recovered solutions, marginal gains, and the single-capacity
//! fast path.

use basecache_knapsack::{DpByCapacity, DpScratch, Instance, Item, Solver};
use basecache_sim::{RngStreams, StreamRng};

mod reference;

fn random_instance(rng: &mut StreamRng) -> Instance {
    let n = rng.random_range(0..=30usize);
    Instance::new(
        (0..n)
            .map(|_| {
                let size = rng.random_range(0u64..=20);
                // Mix in zero-profit items so skipped rows are exercised.
                let profit = if rng.random_range(0..5u32) == 0 {
                    0.0
                } else {
                    rng.random_range(0.0f64..=10.0)
                };
                Item::new(size, profit)
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn reused_scratch_trace_is_bit_identical_to_fresh_solves() {
    let mut rng = RngStreams::new(0xD0_5CAB).stream("scratch/trace");
    let mut scratch = DpScratch::new();
    let mut chosen = Vec::new();
    let mut gains = Vec::new();
    for round in 0..120 {
        let inst = random_instance(&mut rng);
        let cap = rng.random_range(0u64..=220);
        let fresh = reference::solve_trace(&inst, cap);
        DpByCapacity.solve_trace_into(inst.items(), cap, &mut scratch);

        assert_eq!(scratch.capacity(), fresh.capacity(), "round {round}");
        // Values: bit-for-bit (f64 equality, not tolerance).
        assert_eq!(scratch.values(), fresh.values(), "round {round}");
        // Marginal gains: bit-for-bit.
        scratch.marginal_gains_into(&mut gains);
        assert_eq!(gains, fresh.marginal_gains(), "round {round}");
        // Recovered item sets at every capacity: identical indices.
        for c in 0..=cap.min(inst.total_size()) {
            let a = fresh.solution_at(&inst, c);
            scratch.solution_indices_at_into(c, &mut chosen);
            assert_eq!(
                chosen,
                a.chosen_indices(),
                "round {round} capacity {c}: item sets diverged"
            );
            let b = scratch.solution_at(&inst, c);
            assert_eq!(b.total_profit(), a.total_profit(), "round {round} c={c}");
            assert_eq!(b.total_size(), a.total_size(), "round {round} c={c}");
        }
    }
}

#[test]
fn reused_scratch_single_capacity_matches_trace_backtrack() {
    let mut rng = RngStreams::new(0xD0_5CAB).stream("scratch/single");
    let mut scratch = DpScratch::new();
    for round in 0..200 {
        let inst = random_instance(&mut rng);
        let cap = rng.random_range(0u64..=220);
        let fresh = reference::solve_trace(&inst, cap).solution_at(&inst, cap);
        let value = DpByCapacity.solve_into(inst.items(), cap, &mut scratch);
        assert_eq!(
            scratch.chosen(),
            fresh.chosen_indices(),
            "round {round} cap {cap}: item sets diverged"
        );
        assert_eq!(value, fresh.total_profit(), "round {round} cap {cap}");
        // And through the public Solver entry point (which now uses the
        // fast path): still verified-feasible and identical.
        let sol = DpByCapacity.solve(&inst, cap);
        sol.verify(&inst, cap).unwrap();
        assert_eq!(sol.chosen_indices(), fresh.chosen_indices());
        assert_eq!(sol.total_profit(), fresh.total_profit());
    }
}

#[test]
fn scratch_reserve_presizes_for_the_first_solve() {
    let mut scratch = DpScratch::new();
    scratch.reserve(64, 512);
    let mut rng = RngStreams::new(7).stream("scratch/reserve");
    let inst = random_instance(&mut rng);
    let cap = 300;
    DpByCapacity.solve_trace_into(inst.items(), cap, &mut scratch);
    let fresh = reference::solve_trace(&inst, cap);
    assert_eq!(scratch.values(), fresh.values());
}
