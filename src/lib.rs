//! `basecache` — efficient remote data access for mobile computing
//! environments.
//!
//! A production-quality Rust implementation of Bright & Raschid,
//! *Efficient Remote Data Access in a Mobile Computing Environment*
//! (ICPP 2000 Workshop on Pervasive Computing): a base station caches
//! remote objects for mobile clients and, each scheduling round, decides
//! **on demand** which requested objects to download fresh and which to
//! serve from the (possibly stale) cache, maximizing the clients'
//! average recency score under a download budget — a 0/1 knapsack
//! problem solved exactly by dynamic programming.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`basecache-core`) — recency model, knapsack mapping,
//!   on-demand planner, async baseline, base-station simulation.
//! * [`knapsack`] (`basecache-knapsack`) — exact 0/1 knapsack solvers
//!   with a full solution-space trace.
//! * [`sim`] (`basecache-sim`) — deterministic discrete-event engine.
//! * [`obs`] (`basecache-obs`) — zero-overhead observability: recorders,
//!   span timers, snapshot exporters.
//! * [`net`] (`basecache-net`) — servers, links, downlink, cells.
//! * [`cache`] (`basecache-cache`) — the base-station cache substrate.
//! * [`workload`] (`basecache-workload`) — synthetic workloads and
//!   populations.
//! * [`cluster`] (`basecache-cluster`) — multi-cell sharding: roaming
//!   clients, backhaul arbitration, per-cell planning in cell order.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use basecache::core::planner::OnDemandPlanner;
//! use basecache::core::recency::ScoringFunction;
//! use basecache::core::request::RequestBatch;
//! use basecache::net::{Catalog, ObjectId};
//!
//! let catalog = Catalog::from_sizes(&[4, 2, 6]);
//! let recency = [0.9, 0.2, 0.5];
//! let mut batch = RequestBatch::new();
//! for id in [0u32, 0, 1, 1, 2] {
//!     batch.push(ObjectId(id), 1.0);
//! }
//! let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
//! let plan = planner.plan(&batch, &catalog, &recency, 6)?;
//! assert!(plan.download_size() <= 6);
//! # Ok::<(), basecache::core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use basecache_analytic as analytic;
pub use basecache_cache as cache;
pub use basecache_cluster as cluster;
pub use basecache_core as core;
pub use basecache_knapsack as knapsack;
pub use basecache_net as net;
pub use basecache_obs as obs;
pub use basecache_sim as sim;
pub use basecache_workload as workload;
