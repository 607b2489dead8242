//! Multi-cell cluster layer above the single base station.
//!
//! The paper models one base station serving one wireless cell; the
//! production regime is many cells whose stations compete for a shared
//! fixed-network backhaul while clients roam between them. This crate
//! shards the simulation across N cells — each owning its own
//! [`basecache_core::BaseStationSim`] (with its own cache, estimator
//! and `PlannerScratch`) — and adds the two mechanisms that make a
//! cluster more than N independent runs:
//!
//! 1. **Client mobility** — a
//!    [`basecache_workload::ClusterWorkload`] moves clients between
//!    cells (Markov ring / random waypoint) and routes each client's
//!    forked request stream to its current cell, so cached recency
//!    earned in one cell is lost on handoff and re-fetched in another.
//! 2. **Shared backhaul arbitration** — a
//!    [`basecache_net::BackhaulArbiter`] splits the global per-round
//!    budget `B_total` across cells (static / proportional-to-demand /
//!    water-filling), turning each cell's knapsack bound into a
//!    negotiated allocation applied via
//!    `BaseStationSim::set_download_budget` before every round.
//!
//! Cells step one after another on the calling thread, in cell id
//! order; parallelism lives in the experiment sweeps, which run whole
//! independent configurations side by side.
//!
//! The whole cluster round is observable through the existing
//! [`basecache_obs::Recorder`] seam: cluster-aggregate counters and
//! samples (cache-hit ratio, backhaul utilization, handoffs) plus
//! per-cell [`basecache_obs::Attr`] attribution
//! (`downlink_units_by_cell`, `serve_staleness_by_cell`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//!
//! PR 9 adds an optional **regional L2 tier** ([`RegionalL2`], enabled
//! via [`ClusterSim::with_l2`]): a shared version directory plus a
//! costed inter-cell backbone that lets a cell pull a neighbor's fresh
//! copy instead of re-paying origin, with region-wide single-flight
//! enforced structurally (and verified by the online invariant
//! monitor). With L2 disabled the cluster is bit-identical to before.

mod cluster;
mod drive;
mod l2;

pub use cluster::{ClusterError, ClusterSim, ClusterStepOutcome};
pub use drive::{run_rounds, DriveConfig};
pub use l2::{L2Config, RegionalL2, TIER_L1, TIER_L2, TIER_ORIGIN};
