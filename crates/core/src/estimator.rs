//! Recency estimation — what the base station does when it cannot ask
//! the remote server "how stale is my copy?" on every request.
//!
//! The paper assumes the base station knows the recency of every cached
//! copy. In deployments that knowledge must be *estimated*, and the
//! planner's decisions are only as good as the estimates. This module
//! provides the estimators the extended experiments compare:
//!
//! * the **oracle** (paper's assumption — exact version lag; built into
//!   [`crate::BaseStationSim`] as `Estimation::Oracle`),
//! * [`TtlEstimator`] — assume a fixed update period and age copies by
//!   wall-clock, the classic TTL heuristic of web caches,
//! * [`ReportEstimator`] — count server invalidation reports
//!   ([`basecache_net::InvalidationReport`]), exact under a complete
//!   report stream and graceful under loss.

use std::fmt;

use basecache_cache::CacheEntry;
use basecache_net::{InvalidationReport, ObjectId};
use basecache_sim::SimTime;

use crate::recency::recency_for_lag;

/// An estimator of cached-copy recency.
pub trait RecencyEstimator: fmt::Debug {
    /// Estimated recency in `[0, 1]` of the cached copy described by
    /// `entry` at time `now`.
    fn estimate(&self, object: ObjectId, entry: &CacheEntry, now: SimTime) -> f64;

    /// The base station downloaded a fresh copy of `object` at `now`.
    fn on_refresh(&mut self, _object: ObjectId, _now: SimTime) {}

    /// An invalidation report arrived (default: ignored).
    fn ingest_report(&mut self, _report: &InvalidationReport) {}

    /// Estimator name for reports.
    fn name(&self) -> &'static str;
}

/// TTL aging: assume every object updates once per `assumed_period`
/// ticks, so a copy fetched `e` ticks ago has missed about
/// `e / assumed_period` updates. Exact when the assumption matches the
/// real update process; systematically optimistic or pessimistic when it
/// does not — which is precisely what the estimator experiment measures.
#[derive(Debug, Clone, Copy)]
pub struct TtlEstimator {
    assumed_period: u64,
}

impl TtlEstimator {
    /// Create a TTL estimator assuming one update per `assumed_period`
    /// ticks.
    ///
    /// # Panics
    ///
    /// Panics if `assumed_period == 0`.
    pub fn new(assumed_period: u64) -> Self {
        assert!(assumed_period > 0, "assumed update period must be positive");
        Self { assumed_period }
    }
}

impl RecencyEstimator for TtlEstimator {
    fn estimate(&self, _object: ObjectId, entry: &CacheEntry, now: SimTime) -> f64 {
        let elapsed = now.since(entry.fetched_at).ticks();
        recency_for_lag(elapsed / self.assumed_period)
    }

    fn name(&self) -> &'static str {
        "ttl"
    }
}

/// Invalidation-report counting: maintain, per object, the number of
/// updates reported since our copy was fetched. With a complete report
/// stream the count equals the true version lag at report granularity;
/// lost reports make the estimate optimistic (staleness goes unseen),
/// never pessimistic.
///
/// A report that arrives *after* a refresh but covers updates from
/// *before* it is counted anyway — the estimator cannot tell, and the
/// resulting slight pessimism right after a refresh is the realistic
/// artifact of report granularity.
#[derive(Debug, Clone)]
pub struct ReportEstimator {
    observed_lag: Vec<u64>,
    last_sequence: Option<u64>,
    gaps_detected: u64,
}

impl ReportEstimator {
    /// An estimator over `objects` objects.
    pub fn new(objects: usize) -> Self {
        Self {
            observed_lag: vec![0; objects],
            last_sequence: None,
            gaps_detected: 0,
        }
    }

    /// Sequence gaps (lost reports) detected so far.
    pub fn gaps_detected(&self) -> u64 {
        self.gaps_detected
    }
}

impl RecencyEstimator for ReportEstimator {
    fn estimate(&self, object: ObjectId, _entry: &CacheEntry, _now: SimTime) -> f64 {
        recency_for_lag(self.observed_lag[object.index()])
    }

    fn on_refresh(&mut self, object: ObjectId, _now: SimTime) {
        self.observed_lag[object.index()] = 0;
    }

    fn ingest_report(&mut self, report: &InvalidationReport) {
        if let Some(last) = self.last_sequence {
            if report.sequence > last + 1 {
                self.gaps_detected += report.sequence - last - 1;
            }
        }
        self.last_sequence = Some(report.sequence);
        for (object, &count) in report.updated.iter().zip(&report.update_counts) {
            if let Some(lag) = self.observed_lag.get_mut(object.index()) {
                *lag += count;
            }
        }
    }

    fn name(&self) -> &'static str {
        "invalidation-reports"
    }
}

/// Rate-learning estimator: learns each object's update *rate* from the
/// invalidation-report stream and projects it forward between reports.
///
/// Where [`ReportEstimator`] only knows about updates it was told about
/// (and therefore looks fresh right up until the next report), this
/// estimator combines the observed count with the learned rate: its
/// belief ages continuously, which matters when reports are infrequent
/// relative to updates (or lossy) and for Poisson processes whose rates
/// differ per object.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    /// Exponentially averaged updates-per-tick per object.
    rates: Vec<f64>,
    /// Updates reported since the copy was fetched.
    observed_lag: Vec<u64>,
    /// Tick of the last report (rates are learned over report windows).
    last_report_at: Option<SimTime>,
    /// Tick each object's counter was last reset (refresh time).
    refreshed_at: Vec<SimTime>,
    smoothing: f64,
}

impl RateEstimator {
    /// An estimator over `objects` objects with the given exponential
    /// smoothing factor `alpha ∈ (0, 1]` (weight of the newest window).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha ∈ (0, 1]`.
    pub fn new(objects: usize, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "smoothing factor must be in (0, 1]"
        );
        Self {
            rates: vec![0.0; objects],
            observed_lag: vec![0; objects],
            last_report_at: None,
            refreshed_at: vec![SimTime::ZERO; objects],
            smoothing: alpha,
        }
    }

    /// The learned update rate (updates/tick) of `object`.
    pub fn rate_of(&self, object: ObjectId) -> f64 {
        self.rates[object.index()]
    }
}

impl RecencyEstimator for RateEstimator {
    fn estimate(&self, object: ObjectId, entry: &CacheEntry, now: SimTime) -> f64 {
        let i = object.index();
        // Updates confirmed by reports, plus the rate-projected updates
        // since the last report (or since fetch, whichever is later).
        let projection_start = match self.last_report_at {
            Some(t) => t.max(entry.fetched_at),
            None => entry.fetched_at,
        };
        let projected = if now > projection_start {
            self.rates[i] * now.since(projection_start).ticks() as f64
        } else {
            0.0
        };
        let lag = self.observed_lag[i] as f64 + projected;
        recency_for_lag(lag.round() as u64)
    }

    fn on_refresh(&mut self, object: ObjectId, now: SimTime) {
        self.observed_lag[object.index()] = 0;
        self.refreshed_at[object.index()] = now;
    }

    fn ingest_report(&mut self, report: &InvalidationReport) {
        // Learn per-object rates from the report window.
        if let Some(prev) = self.last_report_at {
            let window = report.at.since(prev).ticks().max(1) as f64;
            let mut reported = vec![0u64; self.rates.len()];
            for (object, &count) in report.updated.iter().zip(&report.update_counts) {
                if let Some(slot) = reported.get_mut(object.index()) {
                    *slot = count;
                }
            }
            for (rate, &count) in self.rates.iter_mut().zip(&reported) {
                let window_rate = count as f64 / window;
                *rate = self.smoothing * window_rate + (1.0 - self.smoothing) * *rate;
            }
        }
        self.last_report_at = Some(report.at);
        for (object, &count) in report.updated.iter().zip(&report.update_counts) {
            if let Some(lag) = self.observed_lag.get_mut(object.index()) {
                *lag += count;
            }
        }
    }

    fn name(&self) -> &'static str {
        "rate-learning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_net::Version;

    fn entry(fetched: u64) -> CacheEntry {
        CacheEntry::new(ObjectId(0), 1, Version(0), SimTime::from_ticks(fetched))
    }

    #[test]
    fn ttl_ages_with_elapsed_time() {
        let est = TtlEstimator::new(5);
        let e = entry(10);
        assert_eq!(est.estimate(ObjectId(0), &e, SimTime::from_ticks(10)), 1.0);
        assert_eq!(est.estimate(ObjectId(0), &e, SimTime::from_ticks(14)), 1.0);
        // 10 ticks ≈ 2 assumed updates → 1/3.
        let x = est.estimate(ObjectId(0), &e, SimTime::from_ticks(20));
        assert!((x - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ttl_misspecification_biases_the_estimate() {
        // Real period 5; estimator assumes 10 → sees half the staleness.
        let optimistic = TtlEstimator::new(10);
        let correct = TtlEstimator::new(5);
        let e = entry(0);
        let now = SimTime::from_ticks(20);
        assert!(optimistic.estimate(ObjectId(0), &e, now) > correct.estimate(ObjectId(0), &e, now));
    }

    #[test]
    fn reports_track_exact_lag_when_complete() {
        let mut est = ReportEstimator::new(3);
        let e = entry(0);
        est.ingest_report(&InvalidationReport {
            at: SimTime::from_ticks(5),
            sequence: 1,
            updated: vec![ObjectId(0), ObjectId(2)],
            update_counts: vec![1, 2],
        });
        assert_eq!(est.observed_lag[0], 1);
        assert_eq!(est.observed_lag[1], 0);
        assert_eq!(est.observed_lag[2], 2);
        assert!((est.estimate(ObjectId(0), &e, SimTime::from_ticks(6)) - 0.5).abs() < 1e-12);
        assert_eq!(est.estimate(ObjectId(1), &e, SimTime::from_ticks(6)), 1.0);
    }

    #[test]
    fn refresh_resets_report_lag() {
        let mut est = ReportEstimator::new(1);
        est.ingest_report(&InvalidationReport {
            at: SimTime::from_ticks(5),
            sequence: 1,
            updated: vec![ObjectId(0)],
            update_counts: vec![3],
        });
        assert_eq!(est.observed_lag[0], 3);
        est.on_refresh(ObjectId(0), SimTime::from_ticks(6));
        assert_eq!(est.observed_lag[0], 0);
    }

    #[test]
    fn lost_reports_are_detected_and_underestimate_staleness() {
        let mut est = ReportEstimator::new(1);
        est.ingest_report(&InvalidationReport {
            at: SimTime::from_ticks(5),
            sequence: 1,
            updated: vec![ObjectId(0)],
            update_counts: vec![1],
        });
        // Reports 2 and 3 are lost; report 4 arrives.
        est.ingest_report(&InvalidationReport {
            at: SimTime::from_ticks(20),
            sequence: 4,
            updated: vec![ObjectId(0)],
            update_counts: vec![1],
        });
        assert_eq!(est.gaps_detected(), 2);
        // Only 2 of the (at least) 4 updates were observed: estimate is
        // optimistic (higher recency than the truth).
        assert_eq!(est.observed_lag[0], 2);
    }

    #[test]
    #[should_panic(expected = "assumed update period")]
    fn ttl_rejects_zero_period() {
        let _ = TtlEstimator::new(0);
    }

    fn report(at: u64, seq: u64, counts: &[(u32, u64)]) -> InvalidationReport {
        InvalidationReport {
            at: SimTime::from_ticks(at),
            sequence: seq,
            updated: counts.iter().map(|&(o, _)| ObjectId(o)).collect(),
            update_counts: counts.iter().map(|&(_, c)| c).collect(),
        }
    }

    #[test]
    fn rate_estimator_learns_per_object_rates() {
        let mut est = RateEstimator::new(2, 0.5);
        // Object 0 updates twice per 10-tick window, object 1 never.
        est.ingest_report(&report(10, 1, &[(0, 2)]));
        est.ingest_report(&report(20, 2, &[(0, 2)]));
        est.ingest_report(&report(30, 3, &[(0, 2)]));
        assert!(
            est.rate_of(ObjectId(0)) > 0.15,
            "rate {}",
            est.rate_of(ObjectId(0))
        );
        assert_eq!(est.rate_of(ObjectId(1)), 0.0);
    }

    #[test]
    fn rate_estimator_ages_between_reports() {
        let mut est = RateEstimator::new(1, 1.0);
        est.ingest_report(&report(10, 1, &[(0, 5)]));
        est.ingest_report(&report(20, 2, &[(0, 5)]));
        // Copy refreshed right after the report at t=20.
        est.on_refresh(ObjectId(0), SimTime::from_ticks(20));
        let e = entry(20);
        let fresh = est.estimate(ObjectId(0), &e, SimTime::from_ticks(20));
        let later = est.estimate(ObjectId(0), &e, SimTime::from_ticks(28));
        assert_eq!(fresh, 1.0, "nothing reported or projected yet");
        assert!(
            later < 0.5,
            "at 0.5 updates/tick, 8 ticks project ~4 missed updates: {later}"
        );
    }

    #[test]
    fn rate_estimator_resets_on_refresh_but_keeps_the_rate() {
        let mut est = RateEstimator::new(1, 1.0);
        est.ingest_report(&report(10, 1, &[(0, 3)]));
        est.ingest_report(&report(20, 2, &[(0, 3)]));
        let rate = est.rate_of(ObjectId(0));
        est.on_refresh(ObjectId(0), SimTime::from_ticks(21));
        assert_eq!(
            est.rate_of(ObjectId(0)),
            rate,
            "refresh clears lag, not knowledge"
        );
    }
}
