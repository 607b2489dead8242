//! P² streaming quantile estimation (Jain & Chlamtac, 1985).
//!
//! Response-time distributions are long-tailed; a mean hides the tail
//! the mobile user actually feels. [`P2Quantile`] tracks an arbitrary
//! quantile in O(1) space — five markers adjusted with piecewise-
//! parabolic interpolation — so the latency experiments can report p95
//! waits without storing every sample.

/// A streaming estimator of the `p`-quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile curve).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// First observations, until five have arrived.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `p ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        Self {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "observations must be finite");
        self.count += 1;
        if self.count <= 5 {
            self.initial.push(x);
            if self.count == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                for (h, &v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = v;
                }
            }
            return;
        }

        // Locate the cell containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x.max(self.heights[4]);
            3
        } else {
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is within the extremes")
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm1, q, qp1) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm1, n, np1) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        q + d / (np1 - nm1)
            * ((n - nm1 + d) * (qp1 - q) / (np1 - n) + (np1 - n - d) * (q - qm1) / (n - nm1))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate; `None` before any observation.
    ///
    /// # Small-sample behavior
    ///
    /// With fewer than five observations, the exact small-sample
    /// quantile of what has arrived is returned (rank `⌈p·n⌉` of the
    /// sorted observations — for an extreme quantile like p95 on 1–4
    /// observations this is simply the maximum).
    ///
    /// From the fifth observation the P² markers take over, and the
    /// estimate is the *middle marker*, which is initialized to the
    /// median of the first five observations regardless of `p`. An
    /// extreme quantile (p95, p99) therefore starts at the initial
    /// median and only converges toward the true tail as further
    /// observations push the marker outward — expect tens of
    /// observations before a p95 readout is meaningful. This is
    /// inherent to the P² algorithm (Jain & Chlamtac initialize all
    /// five markers from the first five samples), not a bug; consumers
    /// that report tail quantiles of short streams should check
    /// [`Self::count`] first.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let idx = ((self.p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            return Some(v[idx]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngStreams;

    fn exact_quantile(xs: &mut [f64], p: f64) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[((p * xs.len() as f64) as usize).min(xs.len() - 1)]
    }

    #[test]
    fn tracks_the_median_of_uniform_data() {
        let mut q = P2Quantile::new(0.5);
        let mut rng = RngStreams::new(3).stream("p2");
        let mut xs = Vec::new();
        for _ in 0..20_000 {
            let x: f64 = rng.random();
            q.push(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.5);
        let est = q.estimate().unwrap();
        assert!((est - exact).abs() < 0.02, "p2 {est} vs exact {exact}");
    }

    #[test]
    fn tracks_the_p95_of_a_long_tail() {
        let mut q = P2Quantile::new(0.95);
        let mut rng = RngStreams::new(4).stream("p2");
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            // Exponential-ish tail.
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let x = -u.ln() * 10.0;
            q.push(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.95);
        let est = q.estimate().unwrap();
        assert!(
            (est - exact).abs() / exact < 0.1,
            "p2 {est} vs exact {exact} (rel err too large)"
        );
    }

    #[test]
    fn small_samples_fall_back_to_exact() {
        let mut q = P2Quantile::new(0.5);
        assert!(q.estimate().is_none());
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.estimate(), Some(2.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn constant_stream_estimates_the_constant() {
        let mut q = P2Quantile::new(0.9);
        for _ in 0..100 {
            q.push(7.0);
        }
        assert!((q.estimate().unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_stream_lands_in_range() {
        let mut q = P2Quantile::new(0.25);
        for i in 0..10_000 {
            q.push(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 2500.0).abs() < 250.0, "{est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn p95_of_fewer_than_five_observations_is_the_maximum() {
        // Rank ⌈0.95·n⌉ is n for n ≤ 4, so the exact small-sample
        // fallback returns the largest observation seen so far.
        let mut q = P2Quantile::new(0.95);
        q.push(2.0);
        assert_eq!(q.estimate(), Some(2.0));
        q.push(9.0);
        assert_eq!(q.estimate(), Some(9.0));
        q.push(4.0);
        q.push(1.0);
        assert_eq!(q.estimate(), Some(9.0));
        assert_eq!(q.count(), 4);
    }

    #[test]
    fn p95_at_exactly_five_observations_is_the_initial_median() {
        // Documented small-sample quirk: once the markers initialize
        // (five observations), the estimate is the middle marker — the
        // median of the first five — even for an extreme quantile.
        let mut q = P2Quantile::new(0.95);
        for x in [10.0, 30.0, 20.0, 50.0, 40.0] {
            q.push(x);
        }
        assert_eq!(q.estimate(), Some(30.0), "median of the first five");
        // With more data the marker migrates toward the tail.
        for _ in 0..200 {
            q.push(30.0);
        }
        q.push(100.0);
        let est = q.estimate().unwrap();
        assert!(
            est >= 30.0,
            "p95 may not fall below the initial median here"
        );
    }

    #[test]
    fn constant_input_stays_exact_through_both_regimes() {
        let mut q = P2Quantile::new(0.95);
        for n in 1..=50 {
            q.push(7.0);
            assert_eq!(q.estimate(), Some(7.0), "after {n} constant observations");
        }
        assert_eq!(q.count(), 50);
    }

    #[test]
    fn constant_then_outlier_keeps_interior_markers_sane() {
        // A single outlier in a constant stream must not drag the
        // median marker toward it. The parabolic update does smear the
        // marker by a fraction of a unit (it interpolates between cell
        // heights), so "sane" means near 5, not bit-exact 5.
        let mut q = P2Quantile::new(0.5);
        for _ in 0..100 {
            q.push(5.0);
        }
        q.push(1_000.0);
        for _ in 0..100 {
            q.push(5.0);
        }
        let est = q.estimate().unwrap();
        assert!(
            (est - 5.0).abs() < 0.5,
            "median stays near the constant, far from the outlier: {est}"
        );
    }
}
