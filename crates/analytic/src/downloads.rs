//! Expected download volume of the on-demand policy (Figure 2).
//!
//! Under the Section 3.1 setup — all objects updated simultaneously
//! every `T` time units, `r` independent requests per time unit drawn
//! from a popularity distribution, unbounded on-demand downloads — an
//! object is downloaded in a given update interval **iff it is requested
//! at least once** in the `T` time units following the wave (it is stale
//! from the wave until its first request, fresh afterwards). With
//! `p_i` the probability a single request hits object `i`:
//!
//! ```text
//! P(i downloaded per interval) = 1 − (1 − p_i)^(r·T)
//! E[downloads per interval]    = Σ_i 1 − (1 − p_i)^(r·T)
//! E[downloads over W waves]    = W · Σ_i 1 − (1 − p_i)^(r·T)
//! ```
//!
//! The asynchronous ceiling is exactly `N · W`.

use basecache_workload::PopularityDist;

/// Expected number of objects the on-demand policy downloads per update
/// interval, given `requests_per_interval = r·T` independent requests.
pub fn expected_downloads_per_interval(
    popularity: &PopularityDist,
    requests_per_interval: u64,
) -> f64 {
    popularity
        .probabilities()
        .iter()
        .map(|&p| 1.0 - (1.0 - p).powf(requests_per_interval as f64))
        .sum()
}

/// Expected on-demand download volume over `waves` update intervals
/// (unit-size objects, as in Figure 2).
pub fn expected_downloads(
    popularity: &PopularityDist,
    requests_per_tick: u64,
    update_period: u64,
    waves: u64,
) -> f64 {
    waves as f64 * expected_downloads_per_interval(popularity, requests_per_tick * update_period)
}

/// The asynchronous ceiling: every object at every wave.
pub fn async_ceiling(objects: usize, waves: u64) -> f64 {
    objects as f64 * waves as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_workload::Popularity;

    #[test]
    fn zero_requests_download_nothing() {
        let pop = Popularity::Uniform.build(100);
        assert_eq!(expected_downloads(&pop, 0, 5, 100), 0.0);
    }

    #[test]
    fn infinite_demand_approaches_the_ceiling() {
        let pop = Popularity::Uniform.build(100);
        let e = expected_downloads(&pop, 10_000, 5, 10);
        let ceiling = async_ceiling(100, 10);
        assert!(e <= ceiling);
        assert!(e > 0.999 * ceiling, "{e} should approach {ceiling}");
    }

    #[test]
    fn skew_reduces_expected_downloads() {
        let n = 500;
        let rate = 100;
        let uniform = expected_downloads(&Popularity::Uniform.build(n), rate, 5, 100);
        let linear = expected_downloads(&Popularity::LinearSkew.build(n), rate, 5, 100);
        let zipf = expected_downloads(&Popularity::ZIPF1.build(n), rate, 5, 100);
        assert!(zipf < linear, "zipf {zipf} < linear {linear}");
        assert!(linear < uniform, "linear {linear} < uniform {uniform}");
    }

    #[test]
    fn more_demand_never_downloads_less() {
        let pop = Popularity::ZIPF1.build(200);
        let mut prev = -1.0;
        for rate in [0u64, 1, 5, 20, 100, 400] {
            let e = expected_downloads(&pop, rate, 5, 50);
            assert!(e >= prev);
            prev = e;
        }
    }

    #[test]
    fn saving_fraction_bounds() {
        // The on-demand saving against the asynchronous ceiling,
        // `1 − E[downloads per interval] / N`, lies in [0, 1].
        let pop = Popularity::ZIPF1.build(500);
        let s = 1.0 - expected_downloads_per_interval(&pop, 100 * 5) / 500.0;
        assert!((0.0..=1.0).contains(&s));
        // Zipf with 500 requests per interval over 500 objects still
        // leaves a long unrequested tail — substantial savings.
        assert!(s > 0.2, "zipf saving {s}");
    }

    #[test]
    fn uniform_closed_form_matches_direct_sum() {
        // For uniform popularity the sum collapses to
        // N·(1 − (1−1/N)^(rT)).
        let n = 123usize;
        let pop = Popularity::Uniform.build(n);
        let rt = 400u64;
        let direct = expected_downloads_per_interval(&pop, rt);
        let closed = n as f64 * (1.0 - (1.0 - 1.0 / n as f64).powf(rt as f64));
        assert!((direct - closed).abs() < 1e-9);
    }
}
