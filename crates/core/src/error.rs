//! The unified error type of the basecache stack.
//!
//! The lower layers each raise their own error ([`KnapsackError`] from
//! solution verification, [`TopologyError`] from cell/client lookups) and
//! the [`crate::builder::StationBuilder`] raises [`ConfigError`] when a
//! station configuration is rejected at build time. [`Error`] unifies all
//! three so callers can `?` across layers with a single error type;
//! `std::error::Error::source` exposes the wrapped lower-layer error.

use std::fmt;

use basecache_knapsack::KnapsackError;
use basecache_net::TopologyError;

/// A rejected station configuration (see
/// [`crate::builder::StationBuilder::build`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// No download policy was specified before `build()`.
    MissingPolicy,
    /// [`crate::station::Policy::OnDemandAdaptive`] with a zero averaging
    /// window — the marginal-gain knee is undefined over an empty window.
    ZeroAdaptiveWindow,
    /// [`crate::station::Policy::OnDemandAdaptive`] with a threshold that
    /// is negative, NaN or infinite.
    InvalidAdaptiveThreshold {
        /// The rejected threshold.
        threshold: f64,
    },
    /// In-flight transfer modelling
    /// ([`crate::builder::StationBuilder::in_flight`]) under a policy
    /// other than [`crate::station::Policy::OnDemand`] — commitment-aware
    /// planning is defined for the knapsack planner only.
    InFlightRequiresOnDemand,
    /// The exact-DP tables for `items` objects at `capacity` data units
    /// (the budget, clamped to the catalog's total size) would exceed
    /// [`crate::scratch::MAX_PLAN_TABLE_BYTES`]: the pseudo-polynomial
    /// DP cannot plan at this scale, whatever the solver choice.
    PlanTableTooLarge {
        /// Objects in the catalog.
        items: usize,
        /// The effective per-round capacity, in data units.
        capacity: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingPolicy => {
                write!(f, "station configuration is missing a download policy")
            }
            Self::ZeroAdaptiveWindow => {
                write!(f, "adaptive policy requires a non-zero averaging window")
            }
            Self::InvalidAdaptiveThreshold { threshold } => {
                write!(
                    f,
                    "adaptive threshold must be finite and non-negative, got {threshold}"
                )
            }
            Self::InFlightRequiresOnDemand => {
                write!(f, "in-flight transfers require the on-demand policy")
            }
            Self::PlanTableTooLarge { items, capacity } => {
                write!(
                    f,
                    "the plan table for {items} objects at {capacity} data units \
                     exceeds {} bytes",
                    crate::scratch::MAX_PLAN_TABLE_BYTES
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any error the basecache stack can raise, by originating layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Knapsack construction or solution verification failed.
    Knapsack(KnapsackError),
    /// A cell-topology operation referenced an unknown client or cell.
    Topology(TopologyError),
    /// A station configuration was rejected at build time.
    Config(ConfigError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Knapsack(e) => write!(f, "knapsack: {e}"),
            Self::Topology(e) => write!(f, "topology: {e}"),
            Self::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Knapsack(e) => Some(e),
            Self::Topology(e) => Some(e),
            Self::Config(e) => Some(e),
        }
    }
}

impl From<KnapsackError> for Error {
    fn from(e: KnapsackError) -> Self {
        Self::Knapsack(e)
    }
}

impl From<TopologyError> for Error {
    fn from(e: TopologyError) -> Self {
        Self::Topology(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_net::ClientId;
    use std::error::Error as _;

    #[test]
    fn wraps_lower_layer_errors_with_source() {
        let e: Error = KnapsackError::CapacityExceeded {
            total_size: 11,
            capacity: 10,
        }
        .into();
        assert!(e.to_string().starts_with("knapsack:"));
        assert!(e.source().unwrap().to_string().contains("11"));

        let e: Error = TopologyError::UnknownClient(ClientId(3)).into();
        assert!(e.to_string().starts_with("topology:"));
        assert!(e.source().is_some());
    }

    #[test]
    fn config_errors_render_the_rejected_value() {
        let e: Error = ConfigError::InvalidAdaptiveThreshold { threshold: -0.5 }.into();
        assert!(e.to_string().contains("-0.5"));
        assert_eq!(
            Error::from(ConfigError::MissingPolicy),
            Error::Config(ConfigError::MissingPolicy)
        );
    }
}
