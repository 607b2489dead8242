//! The paper's contribution: recency-aware on-demand remote data access
//! for a base station serving mobile clients.
//!
//! Given a batch of client requests (each with a target recency), the
//! recency of the cached copies, and an upper bound on how much data may
//! be downloaded this round, [`OnDemandPlanner`] decides which objects to
//! fetch from the remote servers and which to answer from the (possibly
//! stale) base-station cache, maximizing the average client recency
//! score. The decision maps to 0/1 knapsack (`basecache-knapsack`)
//! exactly as in the paper's Section 2.
//!
//! Module map:
//!
//! * [`recency`] — scoring functions `f_C(x)` and the per-update decay
//!   `x' = x/(1+x)` (the paper's constant `C = 1`).
//! * [`request`] — client request batches aggregated per object.
//! * [`profit`] — the knapsack mapping: `profit(u) = Σ_clients 1 − score`.
//! * [`planner`] — [`OnDemandPlanner`] (the exact knapsack solve) and
//!   [`LowestRecencyFirst`] (the Section 3.2 unit-size policy).
//! * [`scratch`] — reusable planning buffers: [`PlannerScratch`] makes
//!   the steady-state round allocation-free, whichever policy plans it.
//! * [`engine`] — [`RoundEngine`]: struct-of-arrays object/request
//!   tables with incremental (dirty-set) instance build and sharded
//!   rescoring, for million-request rounds.
//! * [`asynch`] — the asynchronous round-robin refresh baseline.
//! * `policy` — [`Policy`]: the download policies behind one seam — a
//!   budget and a total `plan` over the kernel's assembled instance —
//!   that the station's round kernel consults.
//! * [`bound`] — download-budget selection from the DP solution-space
//!   trace (the paper's Section 6 future work).
//! * [`station`] — [`BaseStationSim`]: the time-stepped base-station
//!   simulation gluing cache, server, policy and downlink together —
//!   one round kernel behind `step` (batch) and `step_engine` (engine).
//! * [`outcome`] — [`RoundOutcome`]: the per-round outcome both of the
//!   station's round-step surfaces (batch and engine) return.
//! * [`builder`] — [`StationBuilder`]: typed, validating construction of
//!   a station, including its observability [`basecache_obs::Recorder`].
//! * [`error`] — [`Error`]: the unified error umbrella over the knapsack,
//!   topology and configuration layers.
//!
//! # Quickstart
//!
//! ```
//! use basecache_core::planner::OnDemandPlanner;
//! use basecache_core::recency::ScoringFunction;
//! use basecache_core::request::RequestBatch;
//! use basecache_net::{Catalog, ObjectId};
//!
//! // Three objects; the cache holds copies with varying recency.
//! let catalog = Catalog::from_sizes(&[4, 2, 6]);
//! let recency = [0.9, 0.2, 0.5];
//!
//! // Five clients ask for objects; each wants fully fresh data.
//! let mut batch = RequestBatch::new();
//! for id in [0u32, 0, 1, 1, 2] {
//!     batch.push(ObjectId(id), 1.0);
//! }
//!
//! // With budget for 6 units the planner downloads the objects whose
//! // staleness hurts clients most per unit downloaded.
//! let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
//! let plan = planner.plan(&batch, &catalog, &recency, 6)?;
//! assert!(plan.download_size() <= 6);
//! assert!(plan.average_score(&batch, &recency) > 0.5);
//! # Ok::<(), basecache_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynch;
pub mod bound;
pub mod builder;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod outcome;
pub mod planner;
mod policy;
pub mod profit;
pub mod recency;
pub mod request;
pub mod scratch;
pub mod station;

pub use asynch::AsyncRefresher;
pub use builder::StationBuilder;
pub use engine::{ActiveObject, RoundEngine};
pub use error::{ConfigError, Error};
pub use estimator::{RateEstimator, RecencyEstimator, ReportEstimator, TtlEstimator};
pub use outcome::RoundOutcome;
pub use planner::{DownloadPlan, LowestRecencyFirst, OnDemandPlanner};
pub use recency::ScoringFunction;
pub use request::RequestBatch;
pub use scratch::PlannerScratch;
pub use station::{BaseStationSim, Estimation, Policy, StationStats};
