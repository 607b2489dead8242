//! The knapsack crate's bench record, `BENCH_knapsack.json`.
//!
//! Exact DP (with and without trace, on fresh and on warm scratch)
//! across instance sizes and capacities.
//!
//! `knapsack/adaptive/*` times [`AdaptiveSolver`] alone, on warm scratch,
//! at the two shapes the traced `benchmark/run.sh` rounds hand it: a
//! station round (~500 items of size 1–20 under an eighth of their total
//! size; untied and tied) and an engine round (35 000 items of size 1–8,
//! capacity 1 000; profits tied by the thousand, as the engine's are, and
//! drawn apart). `knapsack/adaptive/left_out/35000` times the solve an
//! engine round runs instead: [`AdaptiveSolver::solve_leaving_out`] on
//! the tied engine shape's items above a density cut, the rest left out
//! with their certificate, at the cut an engine round's protocol
//! accepts (the first, else the one the refusal asked for).
//! `knapsack/by_capacity/dp_tied_core/1000` times the DP
//! alone at a large tied core: ~1 200 items of size 1–8 under 1 000
//! units.

use std::hint::black_box;

use basecache_bench::harness::{bench, write_record, Measurement};
use basecache_bench::{knapsack_instance, round_shaped_items};
use basecache_knapsack::{
    band_edge, cut_below, density_band, AdaptiveScratch, AdaptiveSolver, DpByCapacity, DpScratch,
    Item, LeftOut, Solver, BANDS,
};

fn bench_adaptive(results: &mut Vec<Measurement>) {
    // A station's budget is an eighth of its catalog; the engine's is fixed.
    for (name, n, max_size, tied, budget) in [
        ("untied/500", 500, 20, false, None),
        ("tied/500", 500, 20, true, None),
        ("tied/35000", 35_000, 8, true, Some(1_000)),
        ("untied/35000", 35_000, 8, false, Some(1_000)),
    ] {
        let items = round_shaped_items(n, max_size, tied, 42);
        let total: u64 = items.iter().map(Item::size).sum();
        let capacity = budget.unwrap_or(total / 8);
        let mut scratch = AdaptiveScratch::new();
        let mut dp = DpScratch::new();
        results.push(bench(&format!("knapsack/adaptive/{name}"), || {
            black_box(AdaptiveSolver.solve_into(&items, capacity, &mut scratch, &mut dp))
        }));
        println!(
            "    {n} items, capacity {capacity}: core {}, {} fixed, {} DP cells ({:?})",
            scratch.core_size(),
            scratch.items_fixed(),
            scratch.cells_touched(),
            scratch.method(),
        );
    }
}

fn bench_left_out(results: &mut Vec<Measurement>) {
    // The engine's first cut: the highest whose kept bands hold more
    // than the budget plus the largest size.
    let items = round_shaped_items(35_000, 8, true, 42);
    let (budget, sizes) = (1_000, [1, 2, 3, 4, 5, 6, 7, 8]);
    let bands: Vec<u16> = items
        .iter()
        .map(|i| density_band(i.profit(), i.size()))
        .collect();
    let mut units = vec![0u64; usize::from(BANDS) + 1];
    for (item, &band) in items.iter().zip(&bands) {
        units[usize::from(band)] += item.size();
    }
    let mut held = 0;
    let first = (1..=BANDS)
        .rev()
        .find(|&band| {
            held += units[usize::from(band)];
            held > budget + 8
        })
        .map_or(0, |band| band - 1);
    let part = |cut: u16| -> (Vec<Item>, LeftOut<'_>) {
        let kept = items.iter().zip(&bands).filter(|&(_, &band)| band > cut);
        let edge = band_edge(cut);
        (
            kept.map(|(&item, _)| item).collect(),
            LeftOut {
                edge,
                sizes: &sizes,
            },
        )
    };
    let mut scratch = AdaptiveScratch::new();
    let mut dp = DpScratch::new();
    let (mut kept, mut left_out) = part(first);
    let mut cut = first;
    if AdaptiveSolver
        .solve_leaving_out(&kept, budget, &left_out, &mut scratch, &mut dp)
        .is_none()
    {
        cut = cut_below(scratch.needed_edge()).min(first - 1);
        (kept, left_out) = part(cut);
    }
    results.push(bench("knapsack/adaptive/left_out/35000", || {
        black_box(AdaptiveSolver.solve_leaving_out(&kept, budget, &left_out, &mut scratch, &mut dp))
    }));
    let accepted = AdaptiveSolver
        .solve_leaving_out(&kept, budget, &left_out, &mut scratch, &mut dp)
        .is_some();
    println!(
        "    {} of {} items kept at cut {cut} (first {first}), accepted {accepted}: \
         core {}, {} fixed, {} DP cells",
        kept.len(),
        items.len(),
        scratch.core_size(),
        scratch.items_fixed(),
        scratch.cells_touched(),
    );
}

fn bench_solvers_by_n(results: &mut Vec<Measurement>) {
    for &n in &[100usize, 500, 2000] {
        let inst = knapsack_instance(n, 42);
        let capacity = inst.total_size() / 3;
        results.push(bench(&format!("knapsack/by_items/dp/{n}"), || {
            black_box(DpByCapacity.solve(&inst, capacity))
        }));
        let mut scratch = DpScratch::new();
        results.push(bench(&format!("knapsack/by_items/dp_scratch/{n}"), || {
            black_box(DpByCapacity.solve_into(inst.items(), capacity, &mut scratch))
        }));
    }
}

fn bench_dp_by_capacity(results: &mut Vec<Measurement>) {
    let inst = knapsack_instance(500, 7);
    let mut scratch = DpScratch::new();
    for &cap in &[500u64, 2000, 5000] {
        results.push(bench(
            &format!("knapsack/by_capacity/dp_solve/{cap}"),
            || black_box(DpByCapacity.solve(&inst, cap)),
        ));
        results.push(bench(
            &format!("knapsack/by_capacity/dp_solve_into/{cap}"),
            || black_box(DpByCapacity.solve_into(inst.items(), cap, &mut scratch)),
        ));
        results.push(bench(
            &format!("knapsack/by_capacity/dp_trace/{cap}"),
            || black_box(DpByCapacity.solve_trace(&inst, cap)),
        ));
        results.push(bench(
            &format!("knapsack/by_capacity/dp_trace_into/{cap}"),
            || {
                DpByCapacity.solve_trace_into(inst.items(), cap, &mut scratch);
                black_box(scratch.value())
            },
        ));
    }
}

fn bench_tied_core(results: &mut Vec<Measurement>) {
    // The core an engine round's tied DP sweeps when bound fixing cannot
    // shrink it: ~1 200 items of size 1–8, profits tied by the hundred,
    // under 1 000 units — the row kernel's shape.
    let core = round_shaped_items(1_200, 8, true, 11);
    let mut scratch = DpScratch::new();
    results.push(bench("knapsack/by_capacity/dp_tied_core/1000", || {
        black_box(DpByCapacity.solve_into(&core, 1_000, &mut scratch))
    }));
    println!("    {} DP cells", scratch.cells_touched());
}

fn bench_trace_reads(results: &mut Vec<Measurement>) {
    // Reading the whole solution space from one trace vs re-solving at
    // every budget — the reason the paper's Section 4 analysis is cheap.
    let inst = knapsack_instance(500, 9);
    let trace = DpByCapacity.solve_trace(&inst, 5000);
    results.push(bench("knapsack/trace/solution_recovery_11_budgets", || {
        let mut total = 0u64;
        for cap in (0..=5000u64).step_by(500) {
            total += black_box(trace.solution_at(&inst, cap)).total_size();
        }
        total
    }));
}

fn main() {
    let mut results = Vec::new();
    bench_adaptive(&mut results);
    bench_left_out(&mut results);
    bench_solvers_by_n(&mut results);
    bench_dp_by_capacity(&mut results);
    bench_tied_core(&mut results);
    bench_trace_reads(&mut results);
    write_record("knapsack", &[], &results);
}
