//! Synthetic workload generation for the paper's analyses.
//!
//! * [`popularity`] — rank-popularity models: uniform access, the paper's
//!   mild "skewed (uniform)" linear decay, and Zipf (`p(rank i) ∝ 1/i`).
//! * [`sizes`] — object-size distributions (unit sizes for Section 3,
//!   `U[1, 20]` for Section 4's Table 1).
//! * [`correlation`] — inducing positive/negative/zero rank correlation
//!   between per-object attributes (size × popularity × cached recency),
//!   the knob Figures 4–6 turn.
//! * [`requests`] — per-time-unit request streams with client target
//!   recencies.
//! * [`scenario`] — the Table 1 population builder (500 objects, 5000
//!   clients, 5000 total size) and the Section 3 setups.
//! * [`trace`] — record/replay of request traces, so paired policy
//!   comparisons consume identical randomness (as the paper does in
//!   Section 3.2).
//! * [`standing`] — persistent massive-scale populations in columnar
//!   form with per-round churn ops, feeding the core round engine.
//! * [`estimate`] — online popularity estimation with exponential decay.
//! * [`mobility`] — roaming client populations over a multi-cell
//!   cluster (Markov ring / random waypoint handoff), one forked
//!   request stream per client.
//!
//! # Example
//!
//! ```
//! use basecache_sim::RngStreams;
//! use basecache_workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};
//!
//! let generator = RequestGenerator::new(
//!     Popularity::ZIPF1.build(100),
//!     50,
//!     TargetRecency::Uniform { lo: 0.5, hi: 1.0 },
//! );
//! let mut rng = RngStreams::new(42).stream("requests");
//! let trace = RequestTrace::record(&generator, 10, &mut rng);
//! assert_eq!(trace.total_requests(), 500);
//! // Archived traces replay losslessly.
//! assert_eq!(RequestTrace::from_text(&trace.to_text()).unwrap(), trace);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod estimate;
pub mod mobility;
pub mod popularity;
pub mod requests;
pub mod scenario;
pub mod sizes;
pub mod standing;
pub mod trace;

pub use correlation::Correlation;
pub use estimate::PopularityEstimator;
pub use mobility::{ClusterWorkload, MobilityModel, RoamingScenario};
pub use popularity::{Popularity, PopularityDist};
pub use requests::{FlashCrowdGenerator, GeneratedRequest, RequestGenerator, TargetRecency};
pub use scenario::{NumRequestsMode, Table1Population, Table1Spec};
pub use sizes::SizeDist;
pub use standing::{ChurnOp, StandingWorkload};
pub use trace::RequestTrace;
