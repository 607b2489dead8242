//! The unified per-round outcome: one [`RoundOutcome`] type and one
//! `step` contract shared by `BaseStationSim::step` and `step_engine`.
//!
//! Both round-step surfaces return this superset: the instantaneous
//! path simply leaves the in-flight fields at their identities
//! (`launched == objects_downloaded`, zero joins, everything served
//! immediately, nothing still waiting), so the union costs the fast
//! path nothing.

/// What one scheduling round did, returned by both round-step surfaces
/// ([`crate::BaseStationSim::step`] and
/// [`crate::BaseStationSim::step_engine`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundOutcome {
    /// The tick (round number) this outcome describes.
    pub tick: u64,
    /// Fresh copies that entered the cache this round: direct downloads
    /// and, in in-flight mode, transfers that *arrived* this round.
    pub objects_downloaded: usize,
    /// Data units of those arrivals.
    pub units_downloaded: u64,
    /// Average true recency over this round's served requests (`1.0`
    /// when no request was served).
    pub average_recency: f64,
    /// Average recency score over this round's served requests (`1.0`
    /// when no request was served).
    pub average_score: f64,
    /// Requests answered this round (immediately or on arrival of the
    /// transfer they waited for).
    pub served: usize,
    /// Served requests answered without a download of their object this
    /// round (the cache absorbed them).
    pub cache_hits: usize,
    /// Transfers launched onto the fixed network this round.
    /// Instantaneous path: equals `objects_downloaded`.
    pub launched: usize,
    /// Requests that joined an already in-flight transfer instead of
    /// launching their own (single-flight coalescing). Zero on the
    /// instantaneous path.
    pub joined: usize,
    /// Served requests answered in the round they arrived.
    /// Instantaneous path: equals `served`.
    pub served_immediately: usize,
    /// Served requests answered on arrival of a transfer they had been
    /// parked on. Zero on the instantaneous path.
    pub served_after_wait: usize,
    /// Requests parked on in-flight transfers and not yet answered at
    /// the end of the round. Zero on the instantaneous path.
    pub still_waiting: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let o = RoundOutcome::default();
        assert_eq!(o.served, 0);
        assert_eq!(o.average_recency, 0.0);
        assert_eq!(o.still_waiting, 0);
    }
}
