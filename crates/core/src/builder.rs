//! Typed construction of a [`BaseStationSim`].
//!
//! [`StationBuilder`] is the one construction path: a fluent API that
//! names each policy explicitly, validates the
//! configuration once at build time (returning [`crate::error::Error`]
//! instead of panicking mid-simulation), and wires in the observability
//! [`Recorder`] — [`NullRecorder`] by default, which keeps the
//! steady-state hot path allocation-free and within noise of an
//! uninstrumented build.
//!
//! ```
//! use basecache_core::builder::StationBuilder;
//! use basecache_core::planner::OnDemandPlanner;
//! use basecache_net::Catalog;
//!
//! let station = StationBuilder::new(Catalog::uniform_unit(100))
//!     .on_demand(OnDemandPlanner::paper_default(), 10)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(station.tick(), 0);
//! ```

use basecache_net::{Catalog, InFlightConfig};
use basecache_obs::{NullRecorder, Recorder};

use crate::error::{ConfigError, Error};
use crate::estimator::RecencyEstimator;
use crate::planner::OnDemandPlanner;
use crate::scratch::check_plan_table;
use crate::station::{BaseStationSim, Estimation, Policy};

/// A fluent, validating builder for [`BaseStationSim`].
///
/// Exactly one policy method (or the [`StationBuilder::policy`] escape
/// hatch) must be called before [`StationBuilder::build`]; calling
/// another replaces the previous choice. Everything else defaults to
/// the paper's model: oracle recency estimation and a no-op recorder.
/// The station measures delivered quality with its planner's scoring
/// function (inverse-ratio for the policies without one) and the
/// paper's decay model.
#[derive(Debug)]
pub struct StationBuilder {
    catalog: Catalog,
    policy: Option<Policy>,
    estimation: Estimation,
    recorder: Box<dyn Recorder>,
    flight: Option<InFlightConfig>,
}

impl StationBuilder {
    /// Start configuring a station over `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            policy: None,
            estimation: Estimation::Oracle,
            recorder: Box::new(NullRecorder),
            flight: None,
        }
    }

    /// Use the paper's on-demand knapsack planner under a per-tick
    /// download budget in data units.
    pub fn on_demand(mut self, planner: OnDemandPlanner, budget_units: u64) -> Self {
        self.policy = Some(Policy::OnDemand {
            planner,
            budget_units,
        });
        self
    }

    /// Use Section 3.2's unit-size policy: download the `k_objects`
    /// requested objects with the lowest cached recency.
    pub fn on_demand_lowest_recency(mut self, k_objects: usize) -> Self {
        self.policy = Some(Policy::OnDemandLowestRecency { k_objects });
        self
    }

    /// Use the asynchronous baseline: round-robin refresh of `k_objects`
    /// per tick, independent of requests.
    pub fn async_round_robin(mut self, k_objects: usize) -> Self {
        self.policy = Some(Policy::AsyncRoundRobin { k_objects });
        self
    }

    /// Use the push–pull hybrid: the on-demand planner first, leftover
    /// budget on background refresh of the stalest cached objects.
    pub fn hybrid(mut self, planner: OnDemandPlanner, budget_units: u64) -> Self {
        self.policy = Some(Policy::Hybrid {
            planner,
            budget_units,
        });
        self
    }

    /// Use the adaptive-budget policy: spend only up to the knee of the
    /// DP solution-space trace each round. `window` (data units) must be
    /// non-zero and `threshold` finite and non-negative — violations are
    /// reported by [`StationBuilder::build`].
    pub fn on_demand_adaptive(
        mut self,
        planner: OnDemandPlanner,
        max_budget: u64,
        window: u64,
        threshold: f64,
    ) -> Self {
        self.policy = Some(Policy::OnDemandAdaptive {
            planner,
            max_budget,
            window,
            threshold,
        });
        self
    }

    /// Escape hatch: install an already-constructed [`Policy`] value
    /// (e.g. when the policy arrives as data from an experiment config).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Plan with `estimator`'s recency beliefs instead of the oracle.
    /// Delivered-quality measurements still use the true staleness.
    pub fn estimator(mut self, estimator: Box<dyn RecencyEstimator + Send>) -> Self {
        self.estimation = Estimation::Estimator(estimator);
        self
    }

    /// Plan with exact version-lag knowledge (the default).
    pub fn oracle(mut self) -> Self {
        self.estimation = Estimation::Oracle;
        self
    }

    /// Install an observability recorder. The default [`NullRecorder`]
    /// compiles recording to no-ops; pass a
    /// [`basecache_obs::StatsRecorder`] to collect per-stage timings and
    /// counters (read back via [`BaseStationSim::obs_snapshot`]).
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Model fixed-network transfer time: downloads occupy the link for
    /// `size / bandwidth` rounds before landing, requests for an object
    /// already on the wire join the in-flight fetch (single-flight,
    /// unless [`InFlightConfig::naive`]), and the planner subtracts
    /// committed bandwidth from each round's budget. Requires the
    /// on-demand policy; `bandwidth_per_round == 0` means instantaneous
    /// transfers, bit-identical to a station built without this call.
    pub fn in_flight(mut self, config: InFlightConfig) -> Self {
        self.flight = Some(config);
        self
    }

    /// Validate the configuration and construct the station. The cache
    /// starts empty and the server with every object at version 0.
    pub fn build(self) -> Result<BaseStationSim, Error> {
        let policy = self.policy.ok_or(ConfigError::MissingPolicy)?;
        if let Policy::OnDemandAdaptive {
            window, threshold, ..
        } = policy
        {
            if window == 0 {
                return Err(ConfigError::ZeroAdaptiveWindow.into());
            }
            if !threshold.is_finite() || threshold < 0.0 {
                return Err(ConfigError::InvalidAdaptiveThreshold { threshold }.into());
            }
        }
        if self.flight.is_some() && !matches!(policy, Policy::OnDemand { .. }) {
            return Err(ConfigError::InFlightRequiresOnDemand.into());
        }
        if let Some(budget) = policy.unit_budget() {
            check_plan_table(&self.catalog, budget)?;
        }
        let mut station =
            BaseStationSim::assemble(self.catalog, policy, self.estimation, self.recorder);
        if let Some(config) = self.flight {
            station.install_flight(config);
        }
        Ok(station)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;

    #[test]
    fn build_requires_a_policy() {
        let err = StationBuilder::new(Catalog::uniform_unit(4))
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Config(ConfigError::MissingPolicy));
    }

    #[test]
    fn adaptive_configuration_is_validated() {
        let planner = OnDemandPlanner::paper_default();
        let err = StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand_adaptive(planner, 10, 0, 0.1)
            .build()
            .unwrap_err();
        assert_eq!(err, Error::Config(ConfigError::ZeroAdaptiveWindow));

        let err = StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand_adaptive(planner, 10, 2, f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config(ConfigError::InvalidAdaptiveThreshold { .. })
        ));

        assert!(StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand_adaptive(planner, 10, 2, 0.05)
            .build()
            .is_ok());
    }

    /// 32 objects of ~10⁹ units under a budget of 1.2·10¹⁰: a 96 GB
    /// values table. The build must refuse it, not abort reserving it.
    #[test]
    fn an_unaddressable_plan_table_is_a_config_error() {
        let sizes: Vec<u64> = (0..32).map(|i| 1_000_000_000 + 97 * i).collect();
        let planner = OnDemandPlanner::paper_default();
        let err = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(planner, 12_000_000_000)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::Config(ConfigError::PlanTableTooLarge {
                items: 32,
                capacity: 12_000_000_000,
            })
        );
        // The same catalog under a budget nothing fits into builds and
        // steps: every request is served from the (empty) cache.
        let mut station = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(planner, 1_000)
            .build()
            .expect("a 1 000-unit table is small");
        let request = basecache_workload::GeneratedRequest {
            object: basecache_net::ObjectId(3),
            target_recency: 1.0,
        };
        let outcome = station.step(&[request]);
        assert_eq!(outcome.served, 1);
        assert!(station.last_downloaded().is_empty());
    }

    /// The same 96 GB table, reached by re-budgeting a built station:
    /// refused like the build refuses it, with the old budget kept, so a
    /// round requesting every object plans under 1 000 units instead of
    /// aborting while it grows the tables.
    #[test]
    fn re_budgeting_past_the_plan_table_bound_is_refused() {
        let sizes: Vec<u64> = (0..32).map(|i| 1_000_000_000 + 97 * i).collect();
        let mut station = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(OnDemandPlanner::paper_default(), 1_000)
            .build()
            .expect("a 1 000-unit table is small");
        assert_eq!(
            station.set_download_budget(12_000_000_000),
            Err(Error::Config(ConfigError::PlanTableTooLarge {
                items: 32,
                capacity: 12_000_000_000,
            }))
        );
        let requests: Vec<_> = (0..32)
            .map(|i| basecache_workload::GeneratedRequest {
                object: basecache_net::ObjectId(i),
                target_recency: 1.0,
            })
            .collect();
        let outcome = station.step(&requests);
        assert_eq!(outcome.served, 32);
        assert_eq!(outcome.units_downloaded, 0);
        // A budget past a small catalog's total size plans at that size.
        let mut small = StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand(OnDemandPlanner::paper_default(), 1)
            .build()
            .unwrap();
        assert_eq!(small.set_download_budget(u64::MAX), Ok(()));
    }

    #[test]
    fn later_policy_calls_replace_earlier_ones() {
        let station = StationBuilder::new(Catalog::uniform_unit(6))
            .on_demand(OnDemandPlanner::paper_default(), 5)
            .async_round_robin(2)
            .build()
            .unwrap();
        let mut station = station;
        station.step(&[]);
        assert_eq!(
            station.last_downloaded().len(),
            2,
            "round robin won: refreshes 2 per tick regardless of requests"
        );
    }
}
