//! Expected delivered recency under the asynchronous round-robin policy
//! (Figure 3's lower curve).
//!
//! Round-robin with budget `k` objects/tick over `N` objects refreshes
//! each object once every `C = N/k` ticks. Updates arrive in waves every
//! `T` ticks. At a uniformly random point in an object's refresh cycle,
//! `τ` ticks have passed since its last refresh; with a uniformly random
//! phase `φ ∈ [0, T)` between the refresh instant and the next wave, the
//! copy has missed `lag = ⌊(τ + (T − 1 − φ)) / T⌋ + [immediate wave]`-ish
//! updates. Rather than juggle off-by-one cases we evaluate the exact
//! double average numerically over the discrete grid, which is what the
//! simulator realizes:
//!
//! ```text
//! E[recency] = (1/C)·(1/T) · Σ_{τ=0}^{C−1} Σ_{φ=0}^{T−1} 1 / (lag(τ, φ) + 1)
//! lag(τ, φ)  = number of wave instants in (t−τ, t]   for refresh at t−τ
//!            = ⌊(τ + φ) / T⌋
//! ```
//!
//! with the harmonic decay `x(lag) = 1/(lag+1)` of
//! `basecache_core::recency::recency_for_lag` (the paper's `C = 1`).

/// Expected recency of a cache entry refreshed every `cycle` ticks under
/// update waves every `period` ticks, with the harmonic decay
/// `x = 1/(lag+1)` and the convention that a wave and a refresh at the
/// same tick leave the copy fresh (the simulator refreshes *after* the
/// wave within a tick).
///
/// # Panics
///
/// Panics if `cycle == 0` or `period == 0`.
pub fn expected_round_robin_recency(cycle: u64, period: u64) -> f64 {
    assert!(cycle > 0, "refresh cycle must be positive");
    assert!(period > 0, "update period must be positive");
    let mut sum = 0.0;
    for tau in 0..cycle {
        for phi in 0..period {
            let lag = (tau + phi) / period;
            sum += 1.0 / (lag as f64 + 1.0);
        }
    }
    sum / (cycle * period) as f64
}

/// Expected recency when the whole catalog (`objects`, unit sizes) is
/// refreshed round-robin at `k_per_tick`, under waves every `period`.
/// Requests are uniform, so the delivered recency equals the cache-wide
/// expectation.
pub fn expected_async_recency(objects: u64, k_per_tick: u64, period: u64) -> f64 {
    assert!(k_per_tick > 0, "budget must be positive");
    // Each object's refresh cycle: ceil spacing when k does not divide N
    // averages out to N/k; use the exact rational by averaging the two
    // adjacent integer cycles weighted by their frequency.
    let n = objects;
    let base = n / k_per_tick;
    let rem = n % k_per_tick;
    if base == 0 {
        // More budget than objects: everything refreshed every tick.
        return expected_round_robin_recency(1, period);
    }
    if rem == 0 {
        return expected_round_robin_recency(base, period);
    }
    // A fraction `rem·(base+1)/n` of positions sit in (base+1)-cycles.
    let w_long = rem as f64 * (base + 1) as f64 / n as f64;
    let w_short = 1.0 - w_long;
    w_short * expected_round_robin_recency(base, period)
        + w_long * expected_round_robin_recency(base + 1, period)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_faster_than_updates_is_nearly_fresh() {
        // Cycle 1, period 10: only 1 in 10 phases sees a missed update.
        let e = expected_round_robin_recency(1, 10);
        // 9 phases fresh (1.0), 1 phase lag 0? lag = (0+phi)/10: phi=0..9
        // → lag 0 always → fully fresh.
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_frequency_updates_punish_slow_refresh() {
        // Period 1: lag = tau; E = (1/C)·Σ 1/(tau+1) = H_C / C.
        let c = 4;
        let e = expected_round_robin_recency(c, 1);
        let h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((e - h4 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn recency_decreases_with_cycle_length() {
        let mut prev = 2.0;
        for cycle in [1u64, 2, 5, 10, 50, 200] {
            let e = expected_round_robin_recency(cycle, 5);
            assert!(e < prev + 1e-12, "cycle {cycle}: {e} !< {prev}");
            prev = e;
        }
    }

    #[test]
    fn recency_increases_with_update_period() {
        let mut prev = 0.0;
        for period in [1u64, 2, 5, 10, 100] {
            let e = expected_round_robin_recency(20, period);
            assert!(e > prev - 1e-12, "period {period}");
            prev = e;
        }
    }

    #[test]
    fn async_recency_handles_uneven_budgets() {
        // k dividing N and the rational-cycle branch must bracket each
        // other sensibly.
        let exact = expected_async_recency(100, 10, 5);
        let uneven = expected_async_recency(100, 7, 5);
        let generous = expected_async_recency(100, 200, 5);
        assert!(uneven < exact, "slower refresh → lower recency");
        assert!((generous - 1.0).abs() < 1e-12);
    }
}
