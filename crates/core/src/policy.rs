//! The download policy a base station runs each time unit — the one
//! seam the round kernel ([`crate::station::BaseStationSim`]) consults.
//!
//! A policy answers two questions: how much may be downloaded this
//! round ([`Policy::budget`]) and which objects to download
//! ([`Policy::plan`]). [`Policy::OnDemand`] is the exception on the
//! second: its knapsack instance is assembled, adjusted (transfers in
//! flight, regional exclusions) and solved by the kernel itself, on the
//! station's reusable scratch. A new policy is a variant here plus its
//! arms in the matches below — the kernel does not change.

use basecache_net::{Catalog, ObjectId};
use basecache_workload::GeneratedRequest;

use crate::asynch::AsyncRefresher;
use crate::planner::{LowestRecencyFirst, OnDemandPlanner};
use crate::request::RequestBatch;

/// The download policy the base station runs each time unit.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// The paper's on-demand knapsack planner under a per-tick unit
    /// budget.
    OnDemand {
        /// The planner (scoring function + solver).
        planner: OnDemandPlanner,
        /// Download budget per time unit, in data units.
        budget_units: u64,
    },
    /// Section 3.2's unit-size on-demand policy: the `k` requested
    /// objects with the lowest cached recency.
    OnDemandLowestRecency {
        /// Objects downloaded per time unit.
        k_objects: usize,
    },
    /// The asynchronous baseline: round-robin refresh of `k` objects per
    /// time unit, independent of requests.
    AsyncRoundRobin {
        /// Objects refreshed per time unit.
        k_objects: usize,
    },
    /// Push–pull hybrid (extension; cf. Acharya et al.'s "balancing push
    /// and pull"): run the on-demand planner first, then spend whatever
    /// budget it left over on background refresh of the stalest cached
    /// objects, requested or not.
    Hybrid {
        /// The on-demand planner for the pull half.
        planner: OnDemandPlanner,
        /// Total download budget per time unit, in data units.
        budget_units: u64,
    },
    /// Adaptive budget (the paper's Section 6 future work, closed-loop):
    /// each round, read the DP solution-space trace and spend only up to
    /// the knee — the budget where the marginal recency gain per unit
    /// drops below `threshold` over the next `window` units.
    OnDemandAdaptive {
        /// The on-demand planner (knee selection forces the exact DP).
        planner: OnDemandPlanner,
        /// Hard ceiling on the per-tick budget, in data units.
        max_budget: u64,
        /// Averaging window for the marginal gain, in data units.
        window: u64,
        /// Minimum acceptable marginal gain per data unit.
        threshold: f64,
    },
}

impl Policy {
    /// The per-tick download allowance: data units for the budgeted
    /// policies, objects for the `k`-object ones (identical on
    /// unit-size catalogs).
    pub(crate) fn budget(&self) -> u64 {
        match *self {
            Policy::OnDemand { budget_units, .. } | Policy::Hybrid { budget_units, .. } => {
                budget_units
            }
            Policy::OnDemandAdaptive { max_budget, .. } => max_budget,
            Policy::OnDemandLowestRecency { k_objects } | Policy::AsyncRoundRobin { k_objects } => {
                k_objects as u64
            }
        }
    }

    /// Replace the allowance, interpreted per [`Self::budget`].
    pub(crate) fn set_budget(&mut self, budget: u64) {
        match self {
            Policy::OnDemand { budget_units, .. } | Policy::Hybrid { budget_units, .. } => {
                *budget_units = budget;
            }
            Policy::OnDemandAdaptive { max_budget, .. } => *max_budget = budget,
            Policy::OnDemandLowestRecency { k_objects } | Policy::AsyncRoundRobin { k_objects } => {
                *k_objects = budget as usize;
            }
        }
    }

    /// [`Self::budget`] when it is denominated in data units — what the
    /// planner scratch is sized for and downlink utilization is measured
    /// against — and `None` for the `k`-object policies.
    pub(crate) fn unit_budget(&self) -> Option<u64> {
        match self {
            Policy::OnDemandLowestRecency { .. } | Policy::AsyncRoundRobin { .. } => None,
            _ => Some(self.budget()),
        }
    }

    /// Append this round's downloads to `downloaded`, given the batch
    /// and the recency the planner sees.
    ///
    /// # Panics
    ///
    /// Panics on [`Policy::OnDemand`], whose instance the round kernel
    /// plans itself (see the module docs).
    pub(crate) fn plan(
        &self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        refresher: &mut AsyncRefresher,
        downloaded: &mut Vec<ObjectId>,
    ) {
        match *self {
            Policy::OnDemand { .. } => unreachable!("the round kernel plans Policy::OnDemand"),
            Policy::OnDemandLowestRecency { k_objects } => {
                let batch = RequestBatch::from_generated(requests);
                downloaded.extend(LowestRecencyFirst.select(&batch, recency, k_objects));
            }
            Policy::AsyncRoundRobin { k_objects } => {
                downloaded.extend(refresher.next_batch(k_objects));
            }
            Policy::OnDemandAdaptive {
                planner,
                max_budget,
                window,
                threshold,
            } => {
                let batch = RequestBatch::from_generated(requests);
                let (_, mapped, trace) =
                    planner.plan_with_trace(&batch, catalog, recency, max_budget);
                let budget = crate::bound::knee_budget(&trace, window, threshold);
                let solution = trace.solution_at(mapped.instance(), budget);
                let mut chosen = mapped.selected_objects(&solution);
                chosen.sort_unstable();
                downloaded.extend(chosen);
            }
            Policy::Hybrid {
                planner,
                budget_units,
            } => {
                let batch = RequestBatch::from_generated(requests);
                let plan = planner.plan(&batch, catalog, recency, budget_units);
                let mut chosen = plan.downloads().to_vec();
                let mut leftover = budget_units.saturating_sub(plan.download_size());
                // Spend the leftover pushing fresh copies of the stalest
                // cached objects (requested or not).
                let mut background: Vec<ObjectId> = catalog
                    .ids()
                    .filter(|&id| recency[id.index()] < 1.0 && !chosen.contains(&id))
                    .collect();
                background.sort_by(|a, b| {
                    recency[a.index()]
                        .partial_cmp(&recency[b.index()])
                        .expect("recency values are never NaN")
                        .then_with(|| a.cmp(b))
                });
                for id in background {
                    let size = catalog.size_of(id);
                    if size <= leftover {
                        leftover -= size;
                        chosen.push(id);
                    }
                    if leftover == 0 {
                        break;
                    }
                }
                chosen.sort_unstable();
                downloaded.extend(chosen);
            }
        }
    }
}
