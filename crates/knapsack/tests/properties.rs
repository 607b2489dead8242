//! Property-based tests pinning the solver hierarchy:
//! the DP is exact (against brute force) and picks the canonical
//! optimum (against its definition); the adaptive reduction is
//! bit-identical to it; the fractional relaxation upper-bounds
//! everything; all outputs feasible.
//!
//! Runs on the in-tree harness (`basecache_sim::check`).

use basecache_knapsack::{
    band_edge, cut_below, density_band, fractional_upper_bound, AdaptiveScratch, AdaptiveSolver,
    DpByCapacity, DpScratch, Instance, Item, LeftOut, SolveMethod, Solver,
};
use basecache_sim::check::run_cases;
use basecache_sim::StreamRng;

mod reference;

fn arb_instance(rng: &mut StreamRng, max_items: usize) -> Instance {
    let n = rng.random_range(0..=max_items);
    Instance::new(
        (0..n)
            .map(|_| Item::new(rng.random_range(0u64..=25), rng.random_range(0.0f64..=20.0)))
            .collect(),
    )
    .expect("generated profits are finite and non-negative")
}

#[test]
fn dp_matches_brute_force() {
    run_cases("dp_vs_brute", 256, |_, rng| {
        let inst = arb_instance(rng, 10);
        let cap = rng.random_range(0u64..=80);
        let mut best = 0.0f64;
        for mask in 0u32..(1 << inst.len()) {
            let mut size = 0u64;
            let mut profit = 0.0;
            for (i, item) in inst.items().iter().enumerate() {
                if mask >> i & 1 == 1 {
                    size += item.size();
                    profit += item.profit();
                }
            }
            if size <= cap && profit > best {
                best = profit;
            }
        }
        // Sums of grid profits below 2^21 are exact: the same bits.
        let dp = DpByCapacity.solve(&inst, cap).total_profit();
        assert_eq!(dp.to_bits(), best.to_bits(), "dp={dp} brute={best}");
    });
}

#[test]
fn fractional_upper_bounds_integral() {
    run_cases("frac_ub", 256, |_, rng| {
        let inst = arb_instance(rng, 16);
        let cap = rng.random_range(0u64..=150);
        let frac = fractional_upper_bound(&inst, cap).profit;
        let opt = DpByCapacity.solve(&inst, cap).total_profit();
        assert!(frac >= opt - 1e-6, "frac={frac} opt={opt}");
    });
}

#[test]
fn trace_is_monotone_and_achieved() {
    run_cases("trace_monotone", 256, |_, rng| {
        let inst = arb_instance(rng, 12);
        let cap = rng.random_range(0u64..=100);
        let trace = DpByCapacity.solve_trace(&inst, cap);
        let vals = trace.values();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Spot check a few capacities: recovered solution achieves value.
        for c in [0, cap / 3, cap / 2, cap] {
            let sol = trace.solution_at(&inst, c);
            sol.verify(&inst, c).unwrap();
            assert_eq!(sol.total_profit().to_bits(), trace.value_at(c).to_bits());
        }
    });
}

/// A degenerate-heavy instance mix for the reduction pipeline:
/// zero-profit items, zero-size (free) items and oversized items appear
/// often, and the capacity draw includes B = 0 and the everything-fits
/// regime alongside ordinary tight budgets.
fn arb_reduction_case(rng: &mut StreamRng) -> (Vec<Item>, u64) {
    let n = rng.random_range(0..=16usize);
    let items: Vec<Item> = (0..n)
        .map(|_| {
            let size = rng.random_range(0u64..=25);
            let profit = if rng.random_range(0u32..5) == 0 {
                0.0
            } else {
                rng.random_range(0.0f64..=20.0)
            };
            Item::new(size, profit)
        })
        .collect();
    let cap = match rng.random_range(0u32..6) {
        0 => 0,
        1 => items.iter().map(|i| i.size()).sum(),
        _ => rng.random_range(0u64..=60),
    };
    (items, cap)
}

/// The reduction front-end (clamp, drop, fixing, adaptive solve) preserves the DP's optimum *bit for bit* — value and
/// canonical chosen set alike — across random instances saturated with
/// the degenerate shapes it special-cases.
#[test]
fn adaptive_reduction_is_bit_identical_to_the_full_dp() {
    let mut dp = DpScratch::new();
    let mut ad = AdaptiveScratch::new();
    let mut core = DpScratch::new();
    run_cases("adaptive_vs_dp", 512, |_, rng| {
        let (items, cap) = arb_reduction_case(rng);
        let v_dp = DpByCapacity.solve_into(&items, cap, &mut dp);
        let v_ad = AdaptiveSolver.solve_into(&items, cap, &mut ad, &mut core);
        assert_eq!(
            v_ad.to_bits(),
            v_dp.to_bits(),
            "profit bits diverge: adaptive={v_ad} dp={v_dp}"
        );
        assert_eq!(ad.chosen(), dp.chosen(), "canonical chosen set diverges");
    });
}

/// Named degenerate shapes from the reduction spec, pinned explicitly
/// (the random mix above covers them statistically; this covers them
/// certainly): zero-profit-only, all-oversized, B = 0, everything-fits,
/// and the single-item instance at every interesting capacity.
#[test]
fn adaptive_reduction_survives_named_degenerates() {
    let mut dp = DpScratch::new();
    let mut ad = AdaptiveScratch::new();
    let mut core = DpScratch::new();
    let mut check = |items: &[Item], cap: u64, label: &str| {
        let v_dp = DpByCapacity.solve_into(items, cap, &mut dp);
        let v_ad = AdaptiveSolver.solve_into(items, cap, &mut ad, &mut core);
        assert_eq!(v_ad.to_bits(), v_dp.to_bits(), "{label}: value diverges");
        assert_eq!(ad.chosen(), dp.chosen(), "{label}: chosen set diverges");
    };
    check(&[], 10, "empty instance");
    check(&[Item::new(4, 0.0), Item::new(2, 0.0)], 10, "zero profits");
    check(
        &[Item::new(50, 3.0), Item::new(99, 8.0)],
        10,
        "all oversized",
    );
    check(
        &[Item::new(3, 2.0), Item::new(5, 1.0), Item::new(0, 7.0)],
        0,
        "zero budget",
    );
    check(
        &[Item::new(3, 2.0), Item::new(5, 1.0), Item::new(1, 0.5)],
        100,
        "everything fits",
    );
    for cap in 0..=6u64 {
        check(&[Item::new(5, 4.5)], cap, "single item");
    }
    // Bit-equal profit classmates: the DP's pick among the tied
    // optima is the canonical one, which bound fixing keeps.
    check(
        &[
            Item::new(4, 2.0),
            Item::new(4, 2.0),
            Item::new(4, 2.0),
            Item::new(4, 5.0),
        ],
        8,
        "equal-size ties",
    );
}

/// Lattice-profit parity, folded in from an early review probe:
/// profits are multiples of 0.1 — many exact sum ties between distinct
/// subsets (e.g. `0.5 + 0.2` vs `0.7`) — with an occasional dominant
/// item forcing bound-based fixing, and *every* capacity from 1 to the
/// instance's total size is checked against the full DP. The probe's
/// generator stream is preserved (LCG, seed 12345, 4000 trials). On
/// the profit grid those sums are exact, so the DP's pick among tied
/// optima is canonical and the reduction returns the same witness with
/// the same value bits on every case.
#[test]
fn lattice_profit_parity_review_probe() {
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }
    let mut ad = AdaptiveScratch::new();
    let mut core = DpScratch::new();
    let mut dp = DpScratch::new();
    let mut state = 12345u64;
    for trial in 0..4000 {
        let n = 3 + (lcg(&mut state) % 12) as usize;
        let items: Vec<Item> = (0..n)
            .map(|_| {
                let size = 1 + lcg(&mut state) % 8;
                let mult = 1 + lcg(&mut state) % 12;
                let profit = if lcg(&mut state).is_multiple_of(7) {
                    (mult * 10) as f64 * 0.7
                } else {
                    mult as f64 * 0.1
                };
                Item::new(size, profit)
            })
            .collect();
        let total: u64 = items.iter().map(|i| i.size()).sum();
        for cap in 1..total {
            let va = AdaptiveSolver.solve_into(&items, cap, &mut ad, &mut core);
            let vd = DpByCapacity.solve_into(&items, cap, &mut dp);
            let what = format!("trial {trial} cap {cap} ({:?}) on {items:?}", ad.method());
            assert_eq!(ad.chosen(), dp.chosen(), "{what}: witnesses diverge");
            assert_eq!(va.to_bits(), vd.to_bits(), "{what}: {va} vs {vd}");
        }
    }
}

/// The adaptive solver's scratch, the DP tables it borrows, and the
/// reference DP's — all three kept across cases, so whatever earlier
/// solves left in them must never change an answer.
#[derive(Default)]
struct Parity {
    ad: AdaptiveScratch,
    core: DpScratch,
    dp: DpScratch,
}

impl Parity {
    /// Assert the adaptive solve of `items` at `cap` matches the full DP
    /// bit for bit — value and canonical chosen set.
    fn check(&mut self, items: &[Item], cap: u64, label: &str) {
        let v_dp = DpByCapacity.solve_into(items, cap, &mut self.dp);
        let v_ad = AdaptiveSolver.solve_into(items, cap, &mut self.ad, &mut self.core);
        assert_eq!(
            v_ad.to_bits(),
            v_dp.to_bits(),
            "{label}: value bits diverge"
        );
        assert_eq!(
            self.ad.chosen(),
            self.dp.chosen(),
            "{label}: chosen set diverges"
        );
    }
}

/// Large untied cores go to the bounded DP over the core, bit-identical
/// to the full DP. Weakly correlated instances (profit = size + fine
/// noise, 200 to 1000 items) keep the untied core large after bound
/// fixing; the stream must reach a core DP over more than 64 items.
#[test]
fn large_untied_cores_are_bit_identical_to_the_full_dp() {
    let mut parity = Parity::default();
    let mut large_cores = 0u32;
    run_cases("large_core_vs_dp", 96, |_, rng| {
        // Continuous noise keeps the core large, and positive sizes
        // avoid the documented free-item fold hazard.
        let n = rng.random_range(200..=1000usize);
        let items: Vec<Item> = (0..n)
            .map(|_| {
                let size = rng.random_range(1u64..=40);
                Item::new(size, size as f64 + rng.random_range(0.0f64..1.0))
            })
            .collect();
        let total: u64 = items.iter().map(|i| i.size()).sum();
        let cap = rng.random_range(total / 8..=total / 2);
        parity.check(&items, cap, "large core");
        if parity.ad.method() == SolveMethod::CoreDp && parity.ad.core_size() > 64 {
            large_cores += 1;
        }
    });
    assert!(
        large_cores > 0,
        "no core DP over more than 64 items reached"
    );
}

/// Large sparse instances, the regime where the reduction orders only a
/// short prefix of the density order and bounds every item past it from
/// that prefix: 1 000–3 000 items under at most 5 % of their total size,
/// sizes `1..=8` (the engine round's shape) or `1..=200`, profits from a
/// tied pool or continuous. Value bits and chosen set equal the full
/// DP's.
#[test]
fn large_sparse_instances_are_bit_identical_to_the_full_dp() {
    let mut parity = Parity::default();
    run_cases("large_sparse_vs_dp", 32, |_, rng| {
        let n = rng.random_range(1000..=3000usize);
        let max_size = if rng.random_range(0u32..2) == 0 {
            8
        } else {
            200
        };
        let pool: [f64; 6] = std::array::from_fn(|_| rng.random_range(0.1f64..=9.0));
        let tied = rng.random_range(0u32..2) == 0;
        let items: Vec<Item> = (0..n)
            .map(|_| {
                let size = rng.random_range(1..=max_size);
                let profit = if tied {
                    pool[rng.random_range(0..pool.len())]
                } else {
                    rng.random_range(0.01f64..=50.0)
                };
                Item::new(size, profit)
            })
            .collect();
        let total: u64 = items.iter().map(|i| i.size()).sum();
        let cap = rng.random_range(1..=total / 20);
        parity.check(&items, cap, "large sparse");
    });
}

/// Duplicate-profit instances, saturated with exact subset-sum ties:
/// fixing items out of every optimum and into every optimum must leave
/// the DP's canonical witness untouched bit for bit. The stream must
/// reach a pruned core sweep.
#[test]
fn tied_instances_keep_certified_pruning_bit_identical() {
    let mut parity = Parity::default();
    let mut pruned = 0u32;
    run_cases("tied_pruning_vs_dp", 128, |_, rng| {
        // Profits drawn from a 5-value pool guarantee duplicate bits.
        let pool: [f64; 5] = std::array::from_fn(|_| rng.random_range(0.1f64..=9.0));
        let n = rng.random_range(12..=80usize);
        let items: Vec<Item> = (0..n)
            .map(|_| {
                Item::new(
                    rng.random_range(1u64..=10),
                    pool[rng.random_range(0..pool.len())],
                )
            })
            .collect();
        let total: u64 = items.iter().map(|i| i.size()).sum();
        let cap = rng.random_range(0..=total + 5);
        parity.check(&items, cap, "tied");
        let ad = &parity.ad;
        if ad.method() == SolveMethod::CoreDp && ad.items_fixed() > 0 {
            pruned += 1;
        }
    });
    assert!(pruned > 0, "no tied instance was pruned");
}

/// One instance tied (half the profits are bit-equal copies) and its
/// twin with item `i` nudged up by `i·10⁻⁷` (`i` times ~430 grid
/// steps), which the bounds tell apart: the one reduction must match
/// the DP on each.
#[test]
fn a_tied_instance_and_its_detied_twin_share_the_reduction() {
    let mut parity = Parity::default();
    run_cases("tied_vs_detied_twin", 96, |_, rng| {
        let n = rng.random_range(20..=120usize);
        let mut tied: Vec<Item> = Vec::with_capacity(n);
        let mut twin: Vec<Item> = Vec::with_capacity(n);
        for i in 0..n {
            let size = rng.random_range(1u64..=12);
            let profit = if i >= 2 && rng.random_range(0u32..2) == 0 {
                tied[rng.random_range(0..i)].profit()
            } else {
                rng.random_range(0.5f64..=20.0)
            };
            tied.push(Item::new(size, profit));
            twin.push(Item::new(size, profit + i as f64 * 1e-7));
        }
        let total: u64 = tied.iter().map(|i| i.size()).sum();
        let cap = rng.random_range(total / 6..=2 * total / 3);
        parity.check(&tied, cap, "tied");
        parity.check(&twin, cap, "twin");
    });
}

/// The canonical optimum, checked against its definition
/// ([`reference::Subsets::canonical`]) rather than against a DP, on
/// small instances thick with ties: up to 11 items of size 1–4 whose
/// profits come from a pool of one to three grid values. The full DP,
/// the adaptive solve and every solve of the part above a random
/// density cut that the left-out certificate accepts return exactly
/// its set, with the bits of the best value. The stream must reach
/// instances with several optima, and solves of instances with repeated
/// profits that fix an item in (a certificate with items chosen at a
/// binding capacity). It ends with two pinned instances, cut at their
/// first item's band: one whose left-out certificate ties its incumbent
/// (an item one grid step under the edge completes an optimum, which
/// `≤` in place of the certificate's `<` would let the part's answer
/// miss), and two densities `2/93` of a grid step apart on one density
/// key, past the range where keys keep densities apart, which the solve
/// finds out of order and hands to the full DP.
#[test]
fn every_solver_returns_the_canonical_optimum() {
    let (mut ad, mut core, mut dp) = (AdaptiveScratch::new(), DpScratch::new(), DpScratch::new());
    let (mut several_optima, mut fixed_in) = (0u32, 0u32);
    let step = 1.0 / (1u64 << 32) as f64;
    let pinned = [
        (
            vec![
                Item::new(1, 1.0 - step),
                Item::new(1, 1.0 + step),
                Item::new(2, 2.0),
            ],
            2,
        ),
        (
            vec![
                Item::new(3, 98304.0 + step),
                Item::new(31, 1015808.0 + 11.0 * step),
                Item::new(2, 5.0),
            ],
            33,
        ),
    ];
    run_cases("canonical_optimum", 4096 + 2, |case, rng| {
        let (items, cap) = match case.checked_sub(4096) {
            Some(i) => pinned[i as usize].clone(),
            None => {
                let pool: Vec<f64> = (0..rng.random_range(1..=3usize))
                    .map(|_| match rng.random_range(0..2u32) {
                        0 => rng.random_range(1..=8u32) as f64 * 0.25,
                        _ => rng.random_range(0.1f64..=3.0),
                    })
                    .collect();
                let items: Vec<Item> = (0..rng.random_range(1..=11usize))
                    .map(|_| {
                        let profit = pool[rng.random_range(0..pool.len())];
                        Item::new(rng.random_range(1u64..=4), profit)
                    })
                    .collect();
                let total: u64 = items.iter().map(Item::size).sum();
                (items, rng.random_range(0..=total))
            }
        };
        let n = items.len();
        let subsets = reference::Subsets::new(&items);
        let want = subsets.canonical(cap);
        let best = subsets.best(n, cap).to_bits();
        let several = subsets.optima(cap) > 1;
        several_optima += u32::from(several);
        let what = format!("cap {cap} on {items:?}");

        let v = DpByCapacity.solve_into(&items, cap, &mut dp);
        assert_eq!(dp.chosen(), want, "{what}: the DP's set");
        assert_eq!(v.to_bits(), best, "{what}: the DP's value");
        let v = AdaptiveSolver.solve_into(&items, cap, &mut ad, &mut core);
        assert_eq!(ad.chosen(), want, "{what}: the adaptive set");
        assert_eq!(v.to_bits(), best, "{what}: the adaptive value");
        if case == 4096 + 1 {
            assert_eq!(
                (ad.core_size(), ad.items_fixed()),
                (n, 0),
                "{what}: not the full DP"
            );
        }
        let tied = (1..n).any(|i| items[..i].iter().any(|j| j.profit() == items[i].profit()));
        let usable: u64 = items.iter().map(Item::size).filter(|&s| s <= cap).sum();
        let certified = ad.method() == SolveMethod::CertifiedGreedy;
        fixed_in += u32::from(tied && certified && cap < usable && !want.is_empty());

        let bands: Vec<u16> = items
            .iter()
            .map(|i| density_band(i.profit(), i.size()))
            .collect();
        let cut = match case {
            4096.. => bands[0],
            _ => bands[rng.random_range(0..n)].saturating_sub(rng.random_range(0..2u32) as u16),
        };
        let index: Vec<usize> = (0..n).filter(|&i| bands[i] > cut).collect();
        let kept: Vec<Item> = index.iter().map(|&i| items[i]).collect();
        let mut sizes: Vec<u64> = items.iter().map(Item::size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let left_out = LeftOut {
            edge: band_edge(cut),
            sizes: &sizes,
        };
        if let Some(v) = AdaptiveSolver.solve_leaving_out(&kept, cap, &left_out, &mut ad, &mut core)
        {
            let chosen: Vec<usize> = ad.chosen().iter().map(|&i| index[i]).collect();
            assert_eq!(chosen, want, "{what}, cut {cut}: the part's set");
            assert_eq!(v.to_bits(), best, "{what}, cut {cut}: the part's value");
        }
    });
    assert!(several_optima > 0, "no instance had several optima");
    assert!(fixed_in > 0, "no tied solve fixed an item in");
}

#[test]
fn more_capacity_never_hurts() {
    run_cases("capacity_monotone", 256, |_, rng| {
        let inst = arb_instance(rng, 14);
        let cap = rng.random_range(0u64..=100);
        let a = DpByCapacity.solve(&inst, cap).total_profit();
        let b = DpByCapacity.solve(&inst, cap + 7).total_profit();
        assert!(b >= a);
    });
}

/// An instance for the left-out certificate, of one of four shapes:
/// profits drawn from a five-value pool (bit-equal by the dozen) or
/// drawn apart; densities at and a few ulps under band edges, where a
/// left-out item ties a kept one to within rounding; and the same with
/// a few oversized, very profitable items under a budget below the
/// largest size. The near-edge items come in identical pairs, so every
/// part a cut keeps of them is tied, where the DP's pick is the
/// canonical optimum (module docs of the adaptive solver) and only the
/// certificate can make the part's answer differ from the whole's.
fn arb_left_out_case(case: u64, rng: &mut StreamRng) -> (Vec<Item>, u64) {
    let n = rng.random_range(6..=90usize);
    let max_size = rng.random_range(1u64..=9);
    let pool: [f64; 5] = std::array::from_fn(|_| rng.random_range(0.2f64..=12.0));
    // Densities at (and a few ulps under) the edges of three bands.
    let edges: [f64; 3] =
        std::array::from_fn(|_| band_edge(rng.random_range(1000u32..=1080) as u16));
    let mut items: Vec<Item> = Vec::with_capacity(n + 1);
    while items.len() < n {
        let size = rng.random_range(1..=max_size);
        let item = match case % 4 {
            0 => Item::new(size, pool[rng.random_range(0..pool.len())]),
            1 => Item::new(size, rng.random_range(0.05f64..=15.0)),
            _ => {
                let edge = edges[rng.random_range(0..edges.len())];
                let below = 1.0 - rng.random_range(0..4u32) as f64 * f64::EPSILON;
                let item = Item::new(size, edge * below * size as f64);
                items.push(item);
                item
            }
        };
        items.push(item);
    }
    let total: u64 = items.iter().map(Item::size).sum();
    let mut cap = rng.random_range(0..=total);
    if case % 4 == 3 {
        // Budgets below the largest size, with that size's items the
        // most profitable of the instance.
        cap = rng.random_range(0..=max_size.saturating_sub(1)).min(cap);
        for _ in 0..rng.random_range(1..=3u32) {
            let at = rng.random_range(0..items.len());
            items[at] = Item::new(cap + rng.random_range(1u64..=4), 1e3);
        }
    }
    (items, cap)
}

/// An instance a cut leaves mostly out: two to eight items at an edge
/// or up to 10⁴ ulps over it, and 20 to 120 items of one or two units
/// one to 10⁴ ulps under it, in random order, each in an identical pair
/// (as in [`arb_left_out_case`]). A cut at the edge leaves out many more
/// items, and more profit, than it keeps, and the left-out items come
/// within a few grid steps of the kept ones they could replace.
fn arb_mostly_left_out(rng: &mut StreamRng) -> (Vec<Item>, u64) {
    let edge = band_edge(rng.random_range(1000u32..=1080) as u16);
    // Ulps off the edge, log-uniform from 1 to 10⁴.
    let ulps = |rng: &mut StreamRng| 10f64.powf(rng.random_range(0.0f64..=4.0)).floor();
    let at =
        |size: u64, ulps: f64| Item::new(size, edge * (1.0 + ulps * f64::EPSILON) * size as f64);
    let mut items = Vec::new();
    for _ in 0..rng.random_range(1..=4u32) {
        let size = rng.random_range(1u64..=9);
        let item = at(size, ulps(rng) - 1.0);
        items.extend([item, item]);
    }
    for _ in 0..rng.random_range(10..=60u32) {
        let size = rng.random_range(1u64..=2);
        let item = at(size, -ulps(rng));
        items.extend([item, item]);
    }
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
    let total: u64 = items.iter().map(Item::size).sum();
    (items, rng.random_range(0..=total))
}

/// The left-out certificate against the full-table DP on the whole
/// instance. Each case splits an instance at a random density cut —
/// the items in bands above it handed to the solver, the rest bounded
/// by [`LeftOut`] — and follows the planner's protocol: a refusal must
/// have run no DP and lowers the cut once to the band below the edge it
/// asked for, a second refusal falls back to cut 0. Whatever split is
/// accepted must return the whole instance's chosen set (as indices
/// into it) and value bits, tied profits or not. The stream must reach
/// every outcome: accepted at the first cut with items left out,
/// accepted at the lowered cut, accepted leaving out more items than it
/// kept, and the fall-back.
#[test]
fn a_left_out_bound_the_solver_accepts_leaves_the_full_dp_unchanged() {
    let (mut ad, mut dp, mut full) = (AdaptiveScratch::new(), DpScratch::new(), DpScratch::new());
    let mut reached = [0u32; 3];
    let mut first_left_something_out = 0u32;
    let mut accepted_leaving_most_out = 0u32;
    // 1 024 cases of the four mixed shapes, then 256 a cut leaves
    // mostly out.
    run_cases("left_out_vs_dp", 1280, |case, rng| {
        let (items, cap) = if case < 1024 {
            arb_left_out_case(case, rng)
        } else {
            arb_mostly_left_out(rng)
        };
        let want = DpByCapacity.solve_into(&items, cap, &mut full);
        let mut sizes: Vec<u64> = items.iter().map(Item::size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let bands: Vec<u16> = items
            .iter()
            .map(|i| density_band(i.profit(), i.size()))
            .collect();
        // A cut at or just under a random item's band, or none.
        let mut cut = match rng.random_range(0..8u32) {
            0 => 0,
            k => bands[rng.random_range(0..bands.len())].saturating_sub(u16::from(k % 2 == 0)),
        };
        let mut stage = 0;
        loop {
            let index: Vec<usize> = (0..items.len()).filter(|&i| bands[i] > cut).collect();
            let kept: Vec<Item> = index.iter().map(|&i| items[i]).collect();
            let left_out = LeftOut {
                edge: band_edge(cut),
                sizes: &sizes,
            };
            let what = format!("cap {cap}, cut {cut}, stage {stage}, {} kept", kept.len());
            match AdaptiveSolver.solve_leaving_out(&kept, cap, &left_out, &mut ad, &mut dp) {
                Some(value) => {
                    // The full DP on the part the certificate accepted
                    // is the full DP on the whole instance, and the
                    // solver's answer is both.
                    let part = DpByCapacity.solve_into(&kept, cap, &mut dp);
                    let part_chosen: Vec<usize> = dp.chosen().iter().map(|&i| index[i]).collect();
                    assert_eq!(part_chosen, full.chosen(), "{what}: the DP's sets diverge");
                    assert_eq!(part.to_bits(), want.to_bits(), "{what}: {part} vs {want}");
                    let chosen: Vec<usize> = ad.chosen().iter().map(|&i| index[i]).collect();
                    assert_eq!(chosen, full.chosen(), "{what}: chosen sets diverge");
                    assert_eq!(value.to_bits(), want.to_bits(), "{what}: {value} vs {want}");
                    reached[stage] += 1;
                    if stage == 0 && kept.len() < items.len() {
                        first_left_something_out += 1;
                    }
                    if 2 * kept.len() < items.len() {
                        accepted_leaving_most_out += 1;
                    }
                    break;
                }
                None => {
                    assert!(cut > 0, "{what}: refused with nothing left out");
                    assert_eq!(ad.cells_touched(), 0, "{what}: a refusal ran a DP");
                    cut = match stage {
                        0 => cut_below(ad.needed_edge()).min(cut - 1),
                        _ => 0,
                    };
                    stage = if cut == 0 { 2 } else { 1 };
                }
            }
        }
    });
    assert!(
        first_left_something_out > 0,
        "no first cut left anything out: {reached:?}"
    );
    assert!(reached[1] > 0, "no lowered cut was accepted: {reached:?}");
    assert!(
        accepted_leaving_most_out > 0,
        "no accepted cut left out more items than it kept: {reached:?}"
    );
    assert!(
        reached[2] > 0,
        "no split fell back to the whole instance: {reached:?}"
    );
}
