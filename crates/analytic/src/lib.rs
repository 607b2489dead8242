//! Analytical models of the paper's simulations.
//!
//! The paper presents its Section 3 results as "simple analysis" backed
//! by simulation. This crate derives the same quantities in closed or
//! numeric form, which serves two purposes:
//!
//! 1. **Validation** — the integration tests in `tests/analytic_validation.rs`
//!    check the discrete-event simulator against these models; agreement
//!    from two independent derivations is strong evidence both are right.
//! 2. **Planning** — a base station can evaluate "what if" questions
//!    (how much would on-demand save under this skew?) without running a
//!    simulation.
//!
//! * [`downloads`] — expected on-demand download volume (Figure 2).
//! * [`recency`] — expected delivered recency under round-robin refresh
//!   and update waves (Figure 3's asynchronous curve).
//! * [`fluid`] — the fluid (LP-relaxation) limit of the knapsack
//!   solution space (Figures 4–6's curves, up to an `O(max size/total)`
//!   integrality gap).
//!
//! # Example
//!
//! ```
//! use basecache_analytic::downloads::{async_ceiling, expected_downloads};
//! use basecache_workload::Popularity;
//!
//! // Figure 2's arithmetic: 500 objects, updates every 5 time units,
//! // 100 measured waves.
//! let pop = Popularity::ZIPF1.build(500);
//! let on_demand = expected_downloads(&pop, 300, 5, 100);
//! let ceiling = async_ceiling(500, 100);
//! assert!(on_demand < 0.7 * ceiling, "zipf demand leaves a long unrequested tail");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod downloads;
pub mod fluid;
pub mod recency;
