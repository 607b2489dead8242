//! Extension experiment — sharding one service area into N cells under
//! a fixed global backhaul budget.
//!
//! The paper studies one base station with its own downlink budget.
//! A deployment shards the coverage area: the *same* client population
//! roams over N cells (`basecache_workload::ClusterWorkload`), each
//! cell runs its own on-demand planner, and one backhaul arbiter
//! splits a *fixed* global budget `B_total` across the cells every
//! round. The sweep asks what sharding costs and what arbitration buys
//! back:
//!
//! * More cells fragment the budget and the caches — a client's handoff
//!   abandons the recency its requests earned in the origin cell — so
//!   the delivered score degrades as N grows.
//! * A demand-aware split (proportional, water-filling) tracks the
//!   hot cells and recovers part of that loss relative to a static
//!   even split, most visibly when placement is skewed.
//!
//! One series per arbiter policy (mean delivered score vs N) plus a
//! handoffs-per-round series documenting the mobility pressure.

use basecache_cluster::{run_rounds, ClusterSim, ClusterStepOutcome, DriveConfig, L2Config};
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog};
use basecache_obs::{Event, InvariantMonitor};
use basecache_sim::RngStreams;
use basecache_workload::{
    ClusterWorkload, MobilityModel, Popularity, RoamingScenario, TargetRecency,
};

use crate::report::Figure;
use crate::runner::sweep_series;

/// Parameters of the cell-sharding sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Objects in every cell's catalog.
    pub objects: usize,
    /// Roaming clients (fixed — they spread over the cells).
    pub clients: u32,
    /// Requests per client per round.
    pub requests_per_client: usize,
    /// Global backhaul budget per round, in data units (fixed — the
    /// arbiter splits it across cells).
    pub total_budget: u64,
    /// Per-round probability that a client hops to a ring neighbour.
    pub move_prob: f64,
    /// Cluster-wide update wave period in rounds.
    pub update_period: u64,
    /// Rounds simulated per point.
    pub rounds: u64,
    /// Cell counts to sweep.
    pub cell_counts: Vec<u32>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 300,
            clients: 400,
            requests_per_client: 2,
            total_budget: 240,
            move_prob: 0.2,
            update_period: 5,
            rounds: 150,
            cell_counts: vec![1, 2, 4, 8, 16],
            seed: 16_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 80,
            clients: 120,
            total_budget: 90,
            rounds: 40,
            cell_counts: vec![1, 4, 8],
            ..Self::paper()
        }
    }
}

/// The arbitration policies each point compares.
pub const POLICIES: [ArbiterPolicy; 3] = [
    ArbiterPolicy::Static,
    ArbiterPolicy::ProportionalToDemand,
    ArbiterPolicy::WaterFilling,
];

/// Build one station per cell over the shared size-heterogeneous
/// catalog, behind an arbiter splitting the global budget by `policy`
/// (and under the regional tier, if `l2`), and drive it for the
/// configured rounds and cluster-wide waves.
fn simulate(
    params: &Params,
    workload: ClusterWorkload,
    policy: ArbiterPolicy,
    l2: Option<L2Config>,
) -> (ClusterSim, Vec<ClusterStepOutcome>) {
    let sizes: Vec<u64> = (0..params.objects as u64).map(|i| 1 + i % 5).collect();
    let stations = (0..workload.cells())
        .map(|_| {
            StationBuilder::new(Catalog::from_sizes(&sizes))
                .on_demand(OnDemandPlanner::paper_default(), 0)
                .build()
                .expect("valid configuration")
        })
        .collect();
    let arbiter = BackhaulArbiter::new(policy, params.total_budget);
    let mut cluster = ClusterSim::new(stations, workload, arbiter).expect("one station per cell");
    if let Some(config) = l2 {
        // Every L2 experiment run is watched by the online monitor with
        // the region single-flight check armed.
        cluster = cluster
            .with_l2(config)
            .with_recorder(Box::new(InvariantMonitor::new().region_single_flight()));
    }
    let config = DriveConfig {
        rounds: params.rounds,
        wave_every: Some(params.update_period),
    };
    let outcomes = run_rounds(&mut cluster, config);
    (cluster, outcomes)
}

/// Mean delivered score over every request the rounds served (1.0 when
/// none were).
fn served_weighted_score(outcomes: &[ClusterStepOutcome]) -> f64 {
    let served: u64 = outcomes.iter().map(|out| out.served as u64).sum();
    if served == 0 {
        return 1.0;
    }
    let score_sum: f64 = outcomes
        .iter()
        .map(|out| out.average_score * out.served as f64)
        .sum();
    score_sum / served as f64
}

/// One sweep point: (mean delivered score, mean handoffs per round)
/// for `cells` cells under `policy`.
pub fn run_point(params: &Params, cells: u32, policy: ArbiterPolicy) -> (f64, f64) {
    // Zipf placement: clients start concentrated in low-id cells, the
    // regime where demand-aware arbitration has something to exploit.
    let workload = ClusterWorkload::new(
        cells,
        params.clients,
        Popularity::ZIPF1,
        Popularity::ZIPF1.build(params.objects),
        TargetRecency::AlwaysFresh,
        params.requests_per_client,
        MobilityModel::MarkovRing {
            move_prob: params.move_prob,
        },
        &RngStreams::new(params.seed),
    );
    let (_, outcomes) = simulate(params, workload, policy, None);
    let handoffs: u64 = outcomes.iter().map(|out| out.handoffs).sum();
    (
        served_weighted_score(&outcomes),
        handoffs as f64 / outcomes.len().max(1) as f64,
    )
}

/// Run the sweep: mean delivered score vs cell count, one series per
/// arbiter policy, plus the handoff rate the mobility model produced
/// (read off the static-split run; mobility does not depend on the
/// arbiter).
pub fn run(params: &Params) -> Figure {
    let names = POLICIES.map(|policy| format!("mean score ({})", policy.name()));
    let labels = [&names[0], &names[1], &names[2], "handoffs per round"];
    let series = sweep_series(&params.cell_counts, labels, |&cells| {
        let [fixed, proportional, water] = POLICIES.map(|policy| run_point(params, cells, policy));
        let ys = [fixed.0, proportional.0, water.0, fixed.1];
        (f64::from(cells), ys)
    });
    Figure::new(
        "Extension: cell sharding under a fixed global backhaul budget",
        "number of cells",
        "mixed units (see series)",
        series,
    )
}

/// Parameters of the two-tier (regional L2) sweep.
#[derive(Debug, Clone)]
pub struct L2Params {
    /// The region: catalog, roaming clients, origin budget, mobility,
    /// waves, rounds, cell counts and seed, as in the sharding sweep.
    pub base: Params,
    /// Inter-cell backbone budget per round, in data units.
    pub intercell_budget: u64,
}

impl L2Params {
    /// Full-fidelity setup: the sharding sweep's region on its own seed.
    pub fn paper() -> Self {
        Self {
            base: Params {
                seed: 16_500,
                ..Params::paper()
            },
            intercell_budget: 480,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            base: Params {
                seed: 16_500,
                ..Params::quick()
            },
            intercell_budget: 90,
        }
    }
}

/// One sweep point: (mean delivered score, total origin units) for
/// `cells` cells, with or without the regional L2 tier.
///
/// # Panics
///
/// Panics if the armed invariant monitor observes any violation on an
/// L2-enabled run — the region-wide single-flight invariant is part of
/// the experiment's contract, not merely plotted.
pub fn run_l2_point(params: &L2Params, cells: u32, l2: Option<L2Config>) -> (f64, u64) {
    let base = &params.base;
    let workload = RoamingScenario {
        cells,
        clients: base.clients,
        objects: base.objects,
        requests_per_client: base.requests_per_client,
        move_prob: base.move_prob,
    }
    .build(&RngStreams::new(base.seed));
    let (cluster, outcomes) = simulate(base, workload, ArbiterPolicy::ProportionalToDemand, l2);
    if l2.is_some() {
        let monitor = cluster
            .recorder()
            .as_any()
            .downcast_ref::<InvariantMonitor>()
            .expect("monitor installed on L2 runs");
        assert_eq!(
            monitor.count(Event::RegionSingleFlightViolations),
            0,
            "region single-flight violated; offenders: {:?}",
            monitor.offenders()
        );
        assert!(monitor.is_clean(), "invariant monitor flagged the run");
    }
    let origin_units = outcomes.iter().map(|out| out.units_downloaded).sum();
    (served_weighted_score(&outcomes), origin_units)
}

/// Run the two-tier sweep: per cell count, mean delivered score with
/// the tier off and on, plus the fraction of origin bandwidth the tier
/// saved (`1 - on/off`).
pub fn run_l2(params: &L2Params) -> Figure {
    let config = L2Config {
        intercell_units_per_round: params.intercell_budget,
    };
    let labels = [
        "mean score (L1 only)",
        "mean score (L1+L2)",
        "origin bandwidth saved (fraction)",
    ];
    let series = sweep_series(&params.base.cell_counts, labels, |&cells| {
        let (off_score, off_units) = run_l2_point(params, cells, None);
        let (on_score, on_units) = run_l2_point(params, cells, Some(config));
        let saved = if off_units > 0 {
            1.0 - on_units as f64 / off_units as f64
        } else {
            0.0
        };
        (f64::from(cells), [off_score, on_score, saved])
    });
    Figure::new(
        "Extension: regional L2 tier under Markov-ring roaming",
        "number of cells",
        "mixed units (see series)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_degrades_score_and_arbitration_recovers_some() {
        let fig = run(&Params::quick());
        let static_series = &fig.series[0];
        let proportional = &fig.series[1];
        let water_filling = &fig.series[2];
        let handoffs = &fig.series[3];

        // One cell with the whole budget is the best any policy gets;
        // fragmenting budget and caches costs score.
        let best = static_series.points.first().unwrap().1;
        let worst = static_series.last_y().unwrap();
        assert!(
            worst < best - 1e-6,
            "sharding should cost score: {best} -> {worst}"
        );

        // All policies agree exactly at N=1 (there is nothing to split).
        let p1 = proportional.points.first().unwrap().1;
        let w1 = water_filling.points.first().unwrap().1;
        assert_eq!(best, p1);
        assert_eq!(best, w1);

        // Under skewed placement, following demand beats the static
        // split at the largest cell count. Water-filling is max-min
        // fair, not score-optimal — it may trade a sliver of aggregate
        // score for cold-cell fairness, so it only has to stay close.
        let n = static_series.points.len() - 1;
        let static_last = static_series.points[n].1;
        assert!(
            proportional.points[n].1 > static_last,
            "proportional should beat static at max N: {} vs {static_last}",
            proportional.points[n].1
        );
        assert!(
            water_filling.points[n].1 > static_last - 0.01,
            "water-filling should stay within 1% of static at max N: {} vs {static_last}",
            water_filling.points[n].1
        );

        // Mobility is actually happening once there is >1 cell.
        assert_eq!(handoffs.points.first().unwrap().1, 0.0, "N=1 cannot hop");
        assert!(handoffs.last_y().unwrap() > 0.0);
    }

    #[test]
    fn l2_tier_saves_origin_bandwidth_without_costing_score() {
        let fig = run_l2(&L2Params::quick());
        let off = &fig.series[0];
        let on = &fig.series[1];
        let saved = &fig.series[2];

        // A one-cell region has no neighbors: the tier saves nothing.
        assert_eq!(saved.points.first().unwrap().1, 0.0);

        // The acceptance bar: ≥ 20% origin bandwidth saved at 8 cells.
        let last = saved.last_y().unwrap();
        assert!(
            last >= 0.20,
            "L2 must save ≥ 20% origin bandwidth at 8 cells, got {last:.3}"
        );

        // Cheap bandwidth, not cheap quality: the tier's score stays at
        // least close to the single-tier baseline everywhere.
        for (o, n) in off.points.iter().zip(&on.points) {
            assert!(
                n.1 >= o.1 - 0.02,
                "L2 degraded score at {} cells: {} vs {}",
                o.0,
                n.1,
                o.1
            );
        }
    }

    #[test]
    fn l2_sweep_is_deterministic() {
        let mut p = L2Params::quick();
        p.base.cell_counts = vec![4];
        p.base.rounds = 15;
        let config = L2Config {
            intercell_units_per_round: p.intercell_budget,
        };
        let a = run_l2_point(&p, 4, Some(config));
        let b = run_l2_point(&p, 4, Some(config));
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_is_deterministic() {
        let p = Params {
            cell_counts: vec![4],
            rounds: 15,
            ..Params::quick()
        };
        let a = run_point(&p, 4, ArbiterPolicy::WaterFilling);
        let b = run_point(&p, 4, ArbiterPolicy::WaterFilling);
        assert_eq!(a, b);
    }
}
