//! The download policy a base station runs each time unit — the one
//! seam the round kernel ([`crate::station::BaseStationSim`]) consults.
//!
//! A policy answers two questions: how much may be downloaded this
//! round ([`Policy::budget`]) and which objects to download
//! ([`Policy::plan`]). The kernel does first what is the same for every
//! policy: it observes the recency of the cached copies and, when the
//! policy carries a planner ([`Policy::planner`]), assembles the round's
//! knapsack instance onto the station's scratch and adjusts it to what
//! the round may fetch (transfers in flight, regional exclusions,
//! bandwidth already committed). A policy is then given that
//! [`PlanView`] and appends its picks, ascending, to the round's
//! download buffer — on the kernel's buffers, so no policy allocates.
//! A new policy is a variant here plus its arms in the matches below —
//! the kernel does not change.

use basecache_net::{Catalog, ObjectId};
use basecache_obs::Recorder;

use crate::asynch::AsyncRefresher;
use crate::engine::RoundEngine;
use crate::planner::OnDemandPlanner;
use crate::scratch::PlannerScratch;

/// The download policy the base station runs each time unit.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// The paper's on-demand knapsack planner under a per-tick unit
    /// budget.
    OnDemand {
        /// The planner (its scoring function).
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
        /// The on-demand planner (its scoring function; the knee is read
        /// off the exact DP's trace).
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

    /// [`Self::budget`] when it is denominated in data units, i.e. the
    /// capacity of a planner's knapsack — what the planner scratch is
    /// sized for and downlink utilization is measured against — and
    /// `None` for the `k`-object policies.
    pub(crate) fn unit_budget(&self) -> Option<u64> {
        self.planner().map(|_| self.budget())
    }

    /// The planner of the policies whose round is a knapsack — the ones
    /// the kernel assembles and adjusts an instance for.
    pub(crate) fn planner(&self) -> Option<OnDemandPlanner> {
        match *self {
            Policy::OnDemand { planner, .. }
            | Policy::Hybrid { planner, .. }
            | Policy::OnDemandAdaptive { planner, .. } => Some(planner),
            Policy::OnDemandLowestRecency { .. } | Policy::AsyncRoundRobin { .. } => None,
        }
    }

    /// Append this round's downloads to `downloaded`, ascending.
    pub(crate) fn plan<R: Recorder + ?Sized>(
        &self,
        view: PlanView<'_>,
        recorder: &R,
        downloaded: &mut Vec<ObjectId>,
    ) {
        let PlanView {
            engine,
            catalog,
            recency,
            budget,
            exclusions,
            scratch,
            refresher,
        } = view;
        // Object ids are distinct, so this order is total and an
        // unstable (allocation-free) sort has one possible result.
        let stalest_first = |a: &ObjectId, b: &ObjectId| {
            recency[a.index()]
                .partial_cmp(&recency[b.index()])
                .expect("recency values are never NaN")
                .then_with(|| a.cmp(b))
        };
        match *self {
            Policy::OnDemand { planner, .. } => {
                match engine {
                    Some(engine) => {
                        planner.solve_candidates(budget, engine, exclusions, scratch, recorder)
                    }
                    None => planner.solve_assembled(budget, scratch, recorder),
                }
                downloaded.extend_from_slice(scratch.downloads());
            }
            Policy::OnDemandLowestRecency { .. } => {
                // The requested objects whose copy is not fresh
                // (downloading a fresh one cannot improve anything).
                let requested = scratch.requested();
                downloaded.extend(requested.filter(|o| recency[o.index()] < 1.0));
                downloaded.sort_unstable_by(stalest_first);
                downloaded.truncate(budget as usize);
                downloaded.sort_unstable();
            }
            Policy::AsyncRoundRobin { .. } => {
                // The cursor may wrap inside a round: [8, 9, 0, 1].
                refresher.next_batch(budget as usize, downloaded);
                downloaded.sort_unstable();
            }
            Policy::OnDemandAdaptive {
                planner,
                window,
                threshold,
                ..
            } => {
                planner.solve_assembled_at_knee(budget, window, threshold, scratch, recorder);
                downloaded.extend_from_slice(scratch.downloads());
            }
            Policy::Hybrid { planner, .. } => {
                planner.solve_assembled(budget, scratch, recorder);
                downloaded.extend_from_slice(scratch.downloads());
                // Spend the leftover pushing fresh copies of the stalest
                // cached objects (requested or not) the round may fetch:
                // gather the candidates behind the pulled objects, order
                // them, and keep in place the ones that fit.
                let mut leftover = budget.saturating_sub(scratch.download_size());
                let pulled = downloaded.len();
                downloaded.extend(catalog.ids().filter(|o| {
                    recency[o.index()] < 1.0
                        && scratch.downloads().binary_search(o).is_err()
                        && exclusions.binary_search(o).is_err()
                }));
                downloaded[pulled..].sort_unstable_by(stalest_first);
                let mut kept = pulled;
                for i in pulled..downloaded.len() {
                    let o = downloaded[i];
                    let size = catalog.size_of(o);
                    if size <= leftover {
                        leftover -= size;
                        downloaded[kept] = o;
                        kept += 1;
                    }
                    if leftover == 0 {
                        break;
                    }
                }
                downloaded.truncate(kept);
                downloaded.sort_unstable();
            }
        }
    }
}

/// What the round kernel hands [`Policy::plan`]: the round as observed,
/// and the station's reusable buffers to plan on.
pub(crate) struct PlanView<'a> {
    /// The engine of an engine round that plans its candidates above a
    /// density cut ([`OnDemandPlanner::solve_candidates`]); `None` when
    /// the assembled instance is the whole one.
    pub engine: Option<&'a RoundEngine>,
    /// The catalog the station serves.
    pub catalog: &'a Catalog,
    /// The recency the planner sees, per object.
    pub recency: &'a [f64],
    /// What the round may fetch, denominated as [`Policy::budget`]: the
    /// policy's allowance less what the link already promised.
    pub budget: u64,
    /// Objects the round must not origin-fetch, ascending — already out
    /// of the assembled instance.
    pub exclusions: &'a [ObjectId],
    /// A batch round's aggregated requests
    /// ([`PlannerScratch::aggregate`]: the requested objects, ascending
    /// — none on an engine round, whose requests stand in the engine's
    /// tables and reach the policy as the assembled instance); under a
    /// planner-carrying policy, the assembled and adjusted knapsack
    /// instance; the solve's tables and picks either way.
    pub scratch: &'a mut PlannerScratch,
    /// The round-robin cursor of [`Policy::AsyncRoundRobin`].
    pub refresher: &'a mut AsyncRefresher,
}
