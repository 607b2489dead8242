//! The inter-cell link: the cheap regional backbone L2 transfers ride.
//!
//! Cells in one region are wired together (metro fiber, microwave mesh)
//! at a cost well below the origin backhaul: Avrachenkov et al.'s
//! geographic cooperative-caching model prices a neighbor retrieval at a
//! fraction of an origin fetch. This module models that backbone the
//! same way the paper models the backhaul — a per-round budget of data
//! units — so the planner-facing question stays "units this round", not
//! "packets on a wire".
//!
//! The link is a pure budget meter: [`InterCellLink::try_reserve`]
//! either commits units for one transfer or refuses, and
//! [`InterCellLink::begin_round`] re-arms the budget. Cumulative
//! counters feed the observability layer (the L2 transfer total and
//! the denial count that sizes how undersized the backbone is).

/// Per-round budget meter for the regional inter-cell backbone.
///
/// All state is a handful of integers; reserving is branch + add, so
/// the cluster's per-cell exchange loop stays allocation-free.
#[derive(Debug, Clone)]
pub struct InterCellLink {
    units_per_round: u64,
    used: u64,
    transfers: u64,
    denied: u64,
}

impl InterCellLink {
    /// A link carrying at most `units_per_round` data units of L2
    /// transfers per round.
    pub fn new(units_per_round: u64) -> Self {
        Self {
            units_per_round,
            used: 0,
            transfers: 0,
            denied: 0,
        }
    }

    /// Re-arm the per-round budget (call at the top of every round).
    pub fn begin_round(&mut self) {
        self.used = 0;
    }

    /// Try to commit `units` for one transfer this round. Returns
    /// whether the reservation fit; a refusal only bumps the denial
    /// counter (the caller falls back to serving stale or waiting).
    pub fn try_reserve(&mut self, units: u64) -> bool {
        if self.used.saturating_add(units) <= self.units_per_round {
            self.used += units;
            self.transfers += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Units committed so far this round.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Cumulative transfers carried.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Cumulative reservations refused for lack of budget.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_fit_until_the_budget_then_deny() {
        let mut link = InterCellLink::new(10);
        assert!(link.try_reserve(4));
        assert!(link.try_reserve(6));
        assert_eq!(link.used(), 10);
        assert!(!link.try_reserve(1));
        assert_eq!(link.denied(), 1);
        assert_eq!(link.transfers(), 2);
    }

    #[test]
    fn begin_round_rearms_the_budget_but_keeps_totals() {
        let mut link = InterCellLink::new(5);
        assert!(link.try_reserve(5));
        link.begin_round();
        assert_eq!(link.used(), 0);
        assert!(link.try_reserve(3));
        assert_eq!(link.used(), 3);
        assert_eq!(link.transfers(), 2);
    }

    #[test]
    fn zero_budget_denies_everything_but_zero_sized() {
        let mut link = InterCellLink::new(0);
        assert!(!link.try_reserve(1));
        assert!(link.try_reserve(0));
    }
}
