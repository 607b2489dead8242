//! The Welford mean/variance accumulator shared by every experiment.

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
    /// batch merge with a zero-variance batch). Exactly equivalent to —
    /// but O(1) instead of O(n) — merging a fresh accumulator that was
    /// fed `x` `n` times; the columnar serve path uses this to charge a
    /// whole object's request population in one call.
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

    /// An accumulator equivalent to `count` observations with the given
    /// raw sums `Σx` and `Σx²`. The second moment is clamped at zero so
    /// cancellation noise can never produce a negative variance. This is
    /// the bridge from columnar sufficient statistics (per-object score
    /// sums) back into the streaming-accumulator world.
    pub fn from_sums(count: u64, sum: f64, sum_sq: f64) -> Welford {
        if count == 0 {
            return Welford::new();
        }
        let mean = sum / count as f64;
        let m2 = (sum_sq - sum * mean).max(0.0);
        Welford { count, mean, m2 }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
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

    #[test]
    fn welford_from_sums_recovers_moments() {
        let xs = [0.5, 0.75, 1.0, 0.25, 0.9];
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        let w = Welford::from_sums(xs.len() as u64, sum, sum_sq);
        let mut direct = Welford::new();
        xs.iter().for_each(|&x| direct.push(x));
        assert_eq!(w.count(), 5);
        assert!((w.mean().unwrap() - direct.mean().unwrap()).abs() < 1e-12);
        assert!((w.variance().unwrap() - direct.variance().unwrap()).abs() < 1e-9);
        assert!(Welford::from_sums(0, 0.0, 0.0).mean().is_none());
        // A constant batch has exactly zero variance, never a tiny
        // negative one.
        let constant = Welford::from_sums(3, 2.1 * 3.0, 2.1 * 2.1 * 3.0);
        assert!(constant.variance().unwrap() >= 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let (a_half, b_half) = xs.split_at(37);
        let mut a = Welford::new();
        let mut b = Welford::new();
        a_half.iter().for_each(|&x| a.push(x));
        b_half.iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-9);
    }
}
