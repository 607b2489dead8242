//! The recency model: how stale a cached copy is, and how much a client
//! with target recency `C` values it.
//!
//! Recency `x ∈ (0, 1]` is a per-copy freshness measure: `1.0` for an
//! up-to-date copy, decaying every time the remote object updates while
//! the copy stays cached. A client request carries a target `C ∈ (0, 1]`;
//! the copy's *score* for that client is `1.0` when `x ≥ C` and decays
//! towards 0 as `x` falls away from `C`, via one of the paper's scoring
//! functions. A remotely downloaded copy always scores `1.0`. A score
//! enters every tally, and through its complement every knapsack
//! profit, as a whole number of `2^-32` grid steps
//! ([`ScoringFunction::score_steps`]).

use basecache_sim::metrics::{to_steps, STEPS};

/// The client-facing scoring functions of Section 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoringFunction {
    /// `f_C(x) = 1 / (1 + |x/C − 1|)` — the paper's first example.
    InverseRatio,
    /// `f_C(x) = exp(−|x/C − 1|)` — the paper's second example.
    Exponential,
    /// All-or-nothing: `1` if `x ≥ C`, else `0`. Not in the paper, but a
    /// useful limiting case (clients that strictly refuse staler data).
    Step,
}

impl ScoringFunction {
    /// Score a cached copy of recency `x` against target recency `target`.
    ///
    /// Always returns `1.0` when `x >= target` ("if the recency score of
    /// the cached copy meets or exceeds C, the object gets a score of
    /// 1.0"); otherwise applies the function. The result is in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `x ∈ [0, 1]` and `target ∈ (0, 1]`.
    #[inline]
    pub fn score(self, x: f64, target: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&x),
            "recency x must be in [0, 1], got {x}"
        );
        assert!(
            target > 0.0 && target <= 1.0,
            "target recency must be in (0, 1], got {target}"
        );
        if x >= target {
            return 1.0;
        }
        let deviation = (x / target - 1.0).abs();
        match self {
            ScoringFunction::InverseRatio => inverse_ratio(deviation),
            ScoringFunction::Exponential => exponential(deviation),
            ScoringFunction::Step => 0.0,
        }
    }

    /// [`Self::score`] in whole grid steps of `2^-32` ([`to_steps`]):
    /// the one conversion through which a served score enters a tally,
    /// and through its complement `STEPS − q` a knapsack profit.
    ///
    /// # Panics
    ///
    /// As [`Self::score`].
    #[inline]
    pub fn score_steps(self, x: f64, target: f64) -> u64 {
        to_steps(self.score(x, target))
    }

    /// Σ [`Self::score_steps`]`(x, t)` over every `t` in `targets`, at a
    /// fraction of the cost of calling it per target:
    ///
    /// * A fresh copy (`x == 1.0`) meets every target `t ≤ 1`, so every
    ///   score is exactly `1.0`: the sum is `n · STEPS`, written without
    ///   visiting a target.
    /// * Otherwise targets are scored `FOLD_CHUNK` at a time into a
    ///   stack buffer — every one by the below-target formula, then
    ///   `1.0` selected where `x ≥ t` — with no branch a predictor must
    ///   learn. IEEE division is correctly rounded whether the compiler
    ///   packs it or not, so each buffered score has [`Self::score`]'s
    ///   bits, and the integer sum is the same in any order.
    ///
    /// Targets are the caller's contract (`(0, 1]`, asserted where they
    /// enter the engine); `x` is checked once.
    ///
    /// # Panics
    ///
    /// Panics unless `x ∈ [0, 1]` when `targets` is non-empty.
    pub(crate) fn fold(self, x: f64, targets: &[f64]) -> u64 {
        if targets.is_empty() {
            return 0;
        }
        assert!(
            (0.0..=1.0).contains(&x),
            "recency x must be in [0, 1], got {x}"
        );
        if x == 1.0 {
            return targets.len() as u64 * STEPS;
        }
        let mut sum = 0;
        let mut buf = [0.0; FOLD_CHUNK];
        for chunk in targets.chunks(FOLD_CHUNK) {
            let scores = &mut buf[..chunk.len()];
            match self {
                ScoringFunction::InverseRatio => score_chunk(x, chunk, scores, inverse_ratio),
                ScoringFunction::Exponential => score_chunk(x, chunk, scores, exponential),
                ScoringFunction::Step => score_chunk(x, chunk, scores, |_| 0.0),
            }
            sum += scores.iter().map(|&s| to_steps(s)).sum::<u64>();
        }
        sum
    }
}

/// Targets [`ScoringFunction::fold`] scores per stack buffer.
const FOLD_CHUNK: usize = 64;

/// [`ScoringFunction::InverseRatio`] below its target, from the
/// deviation `|x/C − 1|`.
#[inline]
fn inverse_ratio(deviation: f64) -> f64 {
    1.0 / (1.0 + deviation)
}

/// [`ScoringFunction::Exponential`] below its target.
#[inline]
fn exponential(deviation: f64) -> f64 {
    (-deviation).exp()
}

/// Score `x` against each target into `scores`: `below` of the
/// deviation for every target, then `1.0` selected where `x ≥ t`.
#[inline]
fn score_chunk(x: f64, targets: &[f64], scores: &mut [f64], below: impl Fn(f64) -> f64) {
    for (s, &t) in scores.iter_mut().zip(targets) {
        let below = below((x / t - 1.0).abs());
        *s = if x >= t { 1.0 } else { below };
    }
}

/// Recency of a copy that was fresh (`x = 1`) and has since missed
/// `lag` server updates. Section 3.2 decays a cached copy's recency on
/// every missed update as `x' = C·x/(1 + x)` (the paper writes the
/// algebraically identical `x' = C/(1/x + 1)`); with the paper's
/// constant `C = 1` a fresh copy decays through the harmonic sequence
/// `1, 1/2, 1/3, …`, so the recency after `lag` updates is
/// `1 / (lag + 1)`.
#[inline]
pub fn recency_for_lag(lag: u64) -> f64 {
    1.0 / (lag as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meeting_target_scores_one() {
        for f in [
            ScoringFunction::InverseRatio,
            ScoringFunction::Exponential,
            ScoringFunction::Step,
        ] {
            assert_eq!(f.score(0.8, 0.8), 1.0);
            assert_eq!(f.score(0.9, 0.8), 1.0);
            assert_eq!(f.score(1.0, 1.0), 1.0);
        }
    }

    /// The batched fold against one [`ScoringFunction::score_steps`]
    /// call per target.
    #[test]
    fn fold_matches_the_scalar_fold_bit_for_bit() {
        basecache_sim::check::run_cases("score_fold_vs_scalar", 160, |i, rng| {
            // Lengths 0–200 straddle the 64-target chunks; a quarter of
            // the targets are exactly 1.0.
            let targets: Vec<f64> = (0..rng.random_range(0..=200usize))
                .map(|_| match rng.random_range(0..4u32) {
                    0 => 1.0,
                    _ => rng.random_range(0.01f64..=1.0),
                })
                .collect();
            let x = match i % 4 {
                0 => 0.0,
                1 => 1.0,
                2 if !targets.is_empty() => targets[rng.random_range(0..targets.len())],
                _ => rng.random_range(0.0f64..=1.0),
            };
            for f in [
                ScoringFunction::InverseRatio,
                ScoringFunction::Exponential,
                ScoringFunction::Step,
            ] {
                assert_eq!(
                    f.fold(x, &targets),
                    targets.iter().map(|&t| f.score_steps(x, t)).sum::<u64>(),
                    "{f:?}, x = {x}, {} targets",
                    targets.len()
                );
            }
        });
    }

    #[test]
    fn inverse_ratio_matches_formula() {
        // x = 0.5, C = 1.0: deviation 0.5, score 1/1.5.
        let s = ScoringFunction::InverseRatio.score(0.5, 1.0);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
        // x = 0.25, C = 0.5: deviation 0.5 as well.
        let s2 = ScoringFunction::InverseRatio.score(0.25, 0.5);
        assert!((s - s2).abs() < 1e-12, "score depends on x/C only");
    }

    #[test]
    fn exponential_matches_formula() {
        let s = ScoringFunction::Exponential.score(0.5, 1.0);
        assert!((s - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn step_is_all_or_nothing() {
        assert_eq!(ScoringFunction::Step.score(0.799, 0.8), 0.0);
        assert_eq!(ScoringFunction::Step.score(0.8, 0.8), 1.0);
    }

    #[test]
    fn scores_decrease_as_copies_get_staler() {
        for f in [ScoringFunction::InverseRatio, ScoringFunction::Exponential] {
            let mut prev = f.score(0.9, 1.0);
            for x in [0.7, 0.5, 0.3, 0.1, 0.0] {
                let s = f.score(x, 1.0);
                assert!(s < prev, "{f:?} not monotone at x={x}");
                assert!((0.0..1.0).contains(&s));
                prev = s;
            }
        }
    }

    #[test]
    fn benefit_grows_with_demand_and_staleness() {
        // A client's benefit, in grid steps: what a download adds.
        let benefit = |x, t| STEPS - ScoringFunction::InverseRatio.score_steps(x, t);
        // Staler cached copy → larger benefit.
        assert!(benefit(0.2, 1.0) > benefit(0.6, 1.0));
        // More demanding client (larger C) → larger benefit at same x.
        assert!(benefit(0.5, 1.0) > benefit(0.5, 0.6));
        assert_eq!(benefit(1.0, 1.0), 0, "fresh copies leave nothing to gain");
    }

    #[test]
    fn harmonic_decay_closed_form() {
        assert_eq!(recency_for_lag(0), 1.0);
        assert!((recency_for_lag(1) - 0.5).abs() < 1e-12);
        assert!((recency_for_lag(4) - 0.2).abs() < 1e-12);
        // Closed form agrees with iterating the per-update decay
        // `x' = x/(1 + x)`.
        let mut x = 1.0;
        for _ in 0..7 {
            x /= 1.0 + x;
        }
        assert!((recency_for_lag(7) - x).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target recency")]
    fn rejects_zero_target() {
        let _ = ScoringFunction::InverseRatio.score(0.5, 0.0);
    }
}
