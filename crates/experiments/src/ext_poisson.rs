//! Extension experiment — heterogeneous Poisson update processes.
//!
//! The paper's analyses update every object in lockstep waves. Real
//! servers update objects independently and at different rates; this
//! experiment gives each object its own Poisson update process (rates
//! spread over two orders of magnitude, hot-updating objects *not*
//! aligned with popular objects) and compares on-demand against the
//! asynchronous baseline at equal budgets. On-demand's advantage should
//! *grow* here: round-robin wastes most of its budget re-fetching
//! objects that never changed, while the planner chases the objects
//! whose recency actually fell.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::{Policy, StationBuilder};
use basecache_net::{Catalog, ObjectId, UpdateProcess};
use basecache_sim::{RngStreams, Scheduler, SimTime};
use basecache_workload::{Popularity, RequestTrace};

use crate::report::Figure;
use crate::runner::{drive, record_requests, sweep_series};

/// Parameters of the Poisson-update comparison.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of unit-size objects.
    pub objects: usize,
    /// Requests per time unit.
    pub requests_per_tick: usize,
    /// Fastest per-object mean update interval (ticks).
    pub fastest_interval: f64,
    /// Slowest per-object mean update interval (ticks).
    pub slowest_interval: f64,
    /// Warm-up ticks.
    pub warmup_ticks: u64,
    /// Measured ticks.
    pub measure_ticks: u64,
    /// Per-tick budgets (objects) to sweep.
    pub budgets: Vec<u64>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 500,
            requests_per_tick: 100,
            fastest_interval: 2.0,
            slowest_interval: 200.0,
            warmup_ticks: 50,
            measure_ticks: 200,
            budgets: vec![5, 10, 20, 40, 80],
            seed: 14_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 100,
            requests_per_tick: 25,
            warmup_ticks: 15,
            measure_ticks: 80,
            budgets: vec![2, 5, 10, 20],
            ..Self::paper()
        }
    }

    /// Mean update interval of object `i`: geometric spread from fastest
    /// to slowest, assigned by a fixed shuffle so update heat does not
    /// align with popularity rank.
    fn mean_interval(&self, i: usize) -> f64 {
        // Deterministic decorrelating permutation: multiply by a unit
        // coprime to n.
        let n = self.objects;
        let j = (i * 7 + 3) % n;
        let f = j as f64 / (n.max(2) - 1) as f64;
        self.fastest_interval * (self.slowest_interval / self.fastest_interval).powf(f)
    }
}

fn run_policy_under_poisson(params: &Params, policy: Policy, trace: &RequestTrace) -> f64 {
    let catalog = Catalog::uniform_unit(params.objects);
    let mut station = StationBuilder::new(catalog)
        .policy(policy)
        .build()
        .expect("poisson experiment policies are valid");
    let streams = RngStreams::new(params.seed);

    // Schedule each object's Poisson update stream.
    let mut updates: Scheduler<ObjectId> = Scheduler::new();
    let mut rngs: Vec<_> = (0..params.objects)
        .map(|i| streams.stream_indexed("poisson/updates", i as u64))
        .collect();
    for (i, rng) in rngs.iter_mut().enumerate() {
        let process = UpdateProcess::Poisson {
            mean_interval: params.mean_interval(i),
        };
        let first = process.next_update_after(ObjectId(i as u32), SimTime::ZERO, rng);
        updates.schedule_at(first, ObjectId(i as u32));
    }

    drive(&mut station, trace, 0, params.warmup_ticks, |station, t| {
        let now = SimTime::from_ticks(t);
        while let Some((at, object)) = updates.pop_until(now) {
            station.server_mut().apply_update(object, at);
            let process = UpdateProcess::Poisson {
                mean_interval: params.mean_interval(object.index()),
            };
            let next = process.next_update_after(object, at, &mut rngs[object.index()]);
            updates.schedule_at(next, object);
        }
    });
    station.stats().score.mean().expect("requests served")
}

/// Run the comparison: delivered score vs budget, on-demand vs async,
/// under heterogeneous Poisson updates.
pub fn run(params: &Params) -> Figure {
    let trace = record_requests(
        Popularity::ZIPF1,
        params.objects,
        params.requests_per_tick,
        params.warmup_ticks + params.measure_ticks,
        &mut RngStreams::new(params.seed).stream("poisson/requests"),
    );
    let planner = OnDemandPlanner::paper_default();
    let labels = ["on-demand", "asynchronous"];
    let series = sweep_series(&params.budgets, labels, |&budget| {
        let od = Policy::OnDemand {
            planner,
            budget_units: budget,
        };
        let asy = Policy::AsyncRoundRobin {
            k_objects: budget as usize,
        };
        let scores = [od, asy].map(|policy| run_policy_under_poisson(params, policy, &trace));
        (budget as f64, scores)
    });
    Figure::new(
        "Extension: heterogeneous Poisson updates",
        "download budget per time unit (objects)",
        "average delivered score",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_dominates_under_heterogeneous_updates() {
        let fig = run(&Params::quick());
        let od = &fig.series[0];
        let asy = &fig.series[1];
        for (&(b, o), &(_, a)) in od.points.iter().zip(&asy.points) {
            assert!(o > a, "budget {b}: on-demand {o} must beat async {a}");
        }
        // On-demand improves with budget.
        for w in od.points.windows(2) {
            assert!(w[1].1 >= w[0].1 - 0.02);
        }
        // The advantage is substantial at mid budgets (round-robin wastes
        // budget on never-updated objects).
        let mid = od.points.len() / 2;
        assert!(
            od.points[mid].1 - asy.points[mid].1 > 0.05,
            "gap at mid budget: od {} asy {}",
            od.points[mid].1,
            asy.points[mid].1
        );
    }

    #[test]
    fn interval_spread_is_geometric_and_decorrelated() {
        let p = Params::quick();
        let intervals: Vec<f64> = (0..p.objects).map(|i| p.mean_interval(i)).collect();
        let min = intervals.iter().cloned().fold(f64::MAX, f64::min);
        let max = intervals.iter().cloned().fold(f64::MIN, f64::max);
        assert!((min - p.fastest_interval).abs() < 1e-9);
        assert!((max - p.slowest_interval).abs() < 1e-9);
        // Neighbouring ranks get very different rates (decorrelation).
        assert!((intervals[0] / intervals[1]).ln().abs() > 0.1);
    }
}
