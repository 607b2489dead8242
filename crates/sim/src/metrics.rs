//! The Welford mean/variance accumulator shared by every experiment,
//! the grid of `2^-32` steps tallies and knapsack profits are counted
//! in, and the exact sums a round's tallies add into.

/// Streaming mean/variance via Welford's algorithm — numerically stable
/// for the long accumulations the recency experiments perform.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance, or `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

/// Grid steps in one unit: a tally counts its values, and a knapsack
/// its profits, in whole multiples of `2^-32`, so every sum of them is an
/// integer, exact and the same whatever order it is taken in.
pub const STEPS: u64 = 1 << 32;

/// `x ∈ [0, 2^20]` in whole grid steps, rounded to nearest, ties to even.
/// In `[2^20, 2^21]` one ulp of an `f64` is one step, so adding `2^20`
/// rounds `x` to the grid, and the sum's bits less those of `2^20` count
/// its steps: one add, no libm call.
#[inline]
pub fn to_steps(x: f64) -> u64 {
    const OFFSET: f64 = (1u64 << 20) as f64;
    (x + OFFSET).to_bits() - OFFSET.to_bits()
}

/// `steps` grid steps in units: exact below `2^53` steps.
#[inline]
pub fn from_steps(steps: u64) -> f64 {
    steps as f64 / STEPS as f64
}

/// A tally in grid steps: the count of what was pushed and its sum, each
/// value rounded to the grid once ([`to_steps`]). The sum is an integer,
/// so a tally does not depend on the order its values came in, and a
/// `u128` does not wrap: a million requests a round at score 1.0 add
/// `2^52` steps a round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sums {
    /// Number of observations.
    pub count: u64,
    /// Their sum, in grid steps.
    pub sum: u128,
}

impl Sums {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` observations of `steps` grid steps each.
    pub fn push_n(&mut self, steps: u64, n: u64) {
        self.count += n;
        self.sum += u128::from(steps) * u128::from(n);
    }

    /// Add another tally's observations.
    pub fn add(&mut self, other: &Sums) {
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum in units.
    pub fn total(&self) -> f64 {
        self.sum as f64 / STEPS as f64
    }

    /// Sample mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total() / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert!(w.mean().is_none());
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert!(w.variance().is_none());
    }

    #[test]
    fn sums_exact_cases() {
        assert!(Sums::new().mean().is_none());
        let (mut pushed, mut batched) = (Sums::new(), Sums::new());
        for _ in 0..1_000 {
            pushed.push_n(STEPS, 1);
        }
        batched.push_n(STEPS, 600);
        batched.push_n(STEPS, 0);
        batched.add(&Sums {
            count: 400,
            sum: 400 * u128::from(STEPS),
        });
        assert_eq!(pushed, batched);
        assert_eq!(
            pushed.mean(),
            Some(1.0),
            "n copies of 1.0 average exactly 1.0"
        );
        assert_eq!((pushed.count(), pushed.total()), (1_000, 1_000.0));
    }

    #[test]
    fn values_round_to_the_grid() {
        let step = 1.0 / STEPS as f64;
        assert_eq!(to_steps(0.0), 0);
        assert_eq!(to_steps(1.0), STEPS);
        assert_eq!(to_steps(1.0 / 3.0), 1_431_655_765);
        assert_eq!(to_steps(0.4 * step), 0);
        assert_eq!((to_steps(1.5 * step), to_steps(2.5 * step)), (2, 2));
        let top = (1u64 << 20) as f64;
        assert_eq!(to_steps(top), 1 << 52);
        assert_eq!(from_steps(to_steps(0.75)), 0.75);
        assert_eq!(to_steps(from_steps(1_431_655_765)), 1_431_655_765);
    }
}
