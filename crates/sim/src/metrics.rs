//! The Welford mean/variance accumulator shared by every experiment,
//! and the plain sums a round's tallies add into.

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

    /// Fold in `n` identical observations of `x` at once (Chan et al.'s
    /// parallel update with a zero-variance batch): the same moments as
    /// `n` pushes of `x`, up to rounding, in O(1); the serve uses this
    /// to charge a whole object's request population in one call.
    pub fn push_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        let total = self.count + n;
        let delta = x - self.mean;
        self.mean += delta * n as f64 / total as f64;
        self.m2 += delta * delta * self.count as f64 * n as f64 / total as f64;
        self.count = total;
    }
}

/// A tally as plain sums: the count and `Σx` of what was pushed.
///
/// Each update is two independent adds and no division, so a loop
/// pushing one value per request is not held up by a chain of dependent
/// divisions the way a [`Welford`] fold is. The mean is `Σx / count`,
/// read once. Summing in a fixed order makes the result deterministic,
/// and for values in `[0, 1]` (recency, score) its rounding error is at
/// most `count · ε` relative.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sums {
    /// Number of observations.
    pub count: u64,
    /// Their sum.
    pub sum: f64,
}

impl Sums {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
    }

    /// Add `n` identical observations of `x` at once.
    pub fn push_n(&mut self, x: f64, n: u64) {
        self.count += n;
        self.sum += x * n as f64;
    }

    /// Add another tally's observations.
    pub fn add(&mut self, other: &Sums) {
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Sample mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
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
    fn welford_push_n_equals_repeated_push() {
        let mut batched = Welford::new();
        let mut sequential = Welford::new();
        batched.push(2.5);
        sequential.push(2.5);
        batched.push_n(7.0, 4);
        for _ in 0..4 {
            sequential.push(7.0);
        }
        batched.push_n(0.25, 3);
        for _ in 0..3 {
            sequential.push(0.25);
        }
        assert_eq!(batched.count(), sequential.count());
        assert!((batched.mean().unwrap() - sequential.mean().unwrap()).abs() < 1e-12);
        assert!((batched.variance().unwrap() - sequential.variance().unwrap()).abs() < 1e-12);
        batched.push_n(9.0, 0);
        assert_eq!(batched.count(), sequential.count(), "n = 0 is a no-op");
    }

    /// Random push / push_n / add streams of values in `[0, 1]`, up to
    /// 10⁵ observations: the plain sums report the mean a per-push
    /// [`Welford`] fed the same observations does, to within rounding.
    #[test]
    fn sums_agree_with_a_per_push_welford() {
        crate::check::run_cases("sums_vs_welford", 48, |_, rng| {
            let len = 10f64.powf(rng.random_range(0.0f64..=5.0)) as u64;
            let (mut sums, mut reference) = (Sums::new(), Welford::new());
            while sums.count < len {
                let room = len - sums.count;
                let x = rng.random_range(0.0f64..=1.0);
                match rng.random_range(0..3u32) {
                    0 => {
                        sums.push(x);
                        reference.push(x);
                    }
                    1 => {
                        let n = rng.random_range(0..=room.min(64));
                        sums.push_n(x, n);
                        (0..n).for_each(|_| reference.push(x));
                    }
                    _ => {
                        let mut other = Sums::new();
                        for _ in 0..rng.random_range(0..=room.min(512)) {
                            let y = rng.random_range(0.0f64..=1.0);
                            other.push(y);
                            reference.push(y);
                        }
                        sums.add(&other);
                    }
                }
            }
            assert_eq!(sums.count, reference.count());
            let (mean, expected) = (sums.mean().unwrap(), reference.mean().unwrap());
            assert!(
                (mean - expected).abs() <= 1e-12 * expected.abs().max(f64::MIN_POSITIVE),
                "mean {mean} vs {expected} over {len}"
            );
        });
    }

    #[test]
    fn sums_exact_cases() {
        assert!(Sums::new().mean().is_none());
        let (mut pushed, mut batched) = (Sums::new(), Sums::new());
        for _ in 0..1_000 {
            pushed.push(1.0);
        }
        batched.push_n(1.0, 600);
        batched.push_n(1.0, 0);
        batched.add(&Sums {
            count: 400,
            sum: 400.0,
        });
        assert_eq!(pushed, batched);
        assert_eq!(
            pushed.mean(),
            Some(1.0),
            "n copies of 1.0 average exactly 1.0"
        );
    }
}
