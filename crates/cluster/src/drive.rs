//! Fixed-length cluster runs: one round per tick, with cluster-wide
//! update waves landing *before* the round of the same tick — the
//! paper's "updates at t = 0, 5, 10, …" convention.

use crate::cluster::{ClusterSim, ClusterStepOutcome};

/// A run's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveConfig {
    /// Rounds to simulate.
    pub rounds: u64,
    /// Apply a cluster-wide update wave every this many ticks
    /// (starting at this tick, not at 0); `None` disables waves.
    pub wave_every: Option<u64>,
}

/// Drive `cluster` for `config.rounds` rounds, returning every round's
/// outcome in tick order.
///
/// # Panics
///
/// Panics if `config.wave_every` is `Some(0)`.
pub fn run_rounds(cluster: &mut ClusterSim, config: DriveConfig) -> Vec<ClusterStepOutcome> {
    if let Some(every) = config.wave_every {
        assert!(every > 0, "wave interval must be positive");
    }
    let mut outcomes = Vec::with_capacity(config.rounds as usize);
    for tick in 0..config.rounds {
        if config
            .wave_every
            .is_some_and(|every| tick > 0 && tick.is_multiple_of(every))
        {
            cluster.apply_update_wave();
        }
        outcomes.push(cluster.step());
    }
    outcomes
}
