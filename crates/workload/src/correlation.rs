//! Inducing rank correlation between per-object attributes.
//!
//! The paper's Section 4 sweeps the correlation between Object Size,
//! Num_Requests and Cache_Recency_Score: "larger objects had higher
//! Cache Recency Score values in the cache, i.e. there is a positive
//! correlation". We realize this by *aligning* one attribute against
//! another: draw both marginals independently, then reorder the second
//! so that its sorted values line up with the first's sort order
//! (positively, negatively, or shuffled for no correlation). Marginal
//! distributions are preserved exactly; only the pairing changes.

use basecache_sim::StreamRng;

/// The direction of association between two attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// Largest values of the dependent attribute go to the largest keys.
    Positive,
    /// Largest values of the dependent attribute go to the smallest keys.
    Negative,
    /// Values are randomly paired with keys.
    None,
}

/// Reorder `values` so they correlate with `keys` as requested.
///
/// Returns a permutation of `values` with the same length as `keys`.
/// `Correlation::None` consumes randomness from `rng` (a Fisher–Yates
/// shuffle); the other directions are deterministic given the inputs.
/// Ties in `keys` are broken by index, keeping the alignment stable.
///
/// # Panics
///
/// Panics if the lengths differ or any value/key is NaN.
pub fn align(
    keys: &[f64],
    values: &[f64],
    correlation: Correlation,
    rng: &mut StreamRng,
) -> Vec<f64> {
    assert_eq!(
        keys.len(),
        values.len(),
        "attribute vectors must have equal length"
    );
    let n = keys.len();

    let mut sorted_values: Vec<f64> = values.to_vec();
    sorted_values.sort_by(|a, b| a.partial_cmp(b).expect("attribute values must not be NaN"));

    match correlation {
        Correlation::None => {
            // Fisher–Yates over the (already marginal-preserving) values.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                sorted_values.swap(i, j);
            }
            sorted_values
        }
        Correlation::Positive | Correlation::Negative => {
            // Ranks of the keys: key_order[r] = index of the r-th smallest key.
            let mut key_order: Vec<usize> = (0..n).collect();
            key_order.sort_by(|&a, &b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .expect("attribute keys must not be NaN")
                    .then_with(|| a.cmp(&b))
            });
            let mut out = vec![0.0; n];
            for (r, &idx) in key_order.iter().enumerate() {
                let v = match correlation {
                    Correlation::Positive => sorted_values[r],
                    Correlation::Negative => sorted_values[n - 1 - r],
                    Correlation::None => unreachable!(),
                };
                out[idx] = v;
            }
            out
        }
    }
}

/// Align a `u64` attribute (e.g. request counts) against `f64` keys.
pub fn align_counts(
    keys: &[f64],
    values: &[u64],
    correlation: Correlation,
    rng: &mut StreamRng,
) -> Vec<u64> {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    align(keys, &as_f64, correlation, rng)
        .into_iter()
        .map(|v| v as u64)
        .collect()
}

/// Sample Spearman-style rank correlation between two attribute vectors:
/// the tests' reference for the direction [`align`] induces.
#[cfg(test)]
pub(crate) fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

/// Average ranks (ties get their index order — adequate for our
/// continuous-valued attributes).
#[cfg(test)]
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .expect("NaN in rank computation")
            .then_with(|| a.cmp(&b))
    });
    let mut r = vec![0.0; xs.len()];
    for (rank, &idx) in order.iter().enumerate() {
        r[idx] = rank as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::RngStreams;

    fn rng() -> StreamRng {
        RngStreams::new(21).stream("corr")
    }

    #[test]
    fn positive_alignment_sorts_with_keys() {
        let keys = [3.0, 1.0, 2.0];
        let values = [10.0, 30.0, 20.0];
        let out = align(&keys, &values, Correlation::Positive, &mut rng());
        // Smallest key (1.0 at idx 1) gets smallest value, etc.
        assert_eq!(out, vec![30.0, 10.0, 20.0]);
        assert!(rank_correlation(&keys, &out) > 0.99);
    }

    #[test]
    fn negative_alignment_reverses() {
        let keys = [3.0, 1.0, 2.0];
        let values = [10.0, 30.0, 20.0];
        let out = align(&keys, &values, Correlation::Negative, &mut rng());
        assert_eq!(out, vec![10.0, 30.0, 20.0]);
        assert!(rank_correlation(&keys, &out) < -0.99);
    }

    #[test]
    fn shuffle_preserves_marginal_and_kills_correlation() {
        let keys: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..1000).map(|i| (i * 7 % 1000) as f64).collect();
        let out = align(&keys, &values, Correlation::None, &mut rng());
        let mut a = out.clone();
        let mut b = values.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b, "marginal distribution must be preserved");
        assert!(rank_correlation(&keys, &out).abs() < 0.1);
    }

    #[test]
    fn alignment_preserves_multiset() {
        let keys = [5.0, 2.0, 9.0, 1.0];
        let values = [4.0, 4.0, 1.0, 7.0];
        for c in [
            Correlation::Positive,
            Correlation::Negative,
            Correlation::None,
        ] {
            let mut out = align(&keys, &values, c, &mut rng());
            out.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(out, vec![1.0, 4.0, 4.0, 7.0], "{c:?}");
        }
    }

    #[test]
    fn count_alignment_roundtrips_u64() {
        let keys = [2.0, 1.0];
        let counts = [7u64, 3];
        let out = align_counts(&keys, &counts, Correlation::Positive, &mut rng());
        assert_eq!(out, vec![7, 3]);
        let out = align_counts(&keys, &counts, Correlation::Negative, &mut rng());
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn rank_correlation_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((rank_correlation(&a, &b) - 1.0).abs() < 1e-12);
        assert!((rank_correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(rank_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        let _ = align(&[1.0], &[1.0, 2.0], Correlation::Positive, &mut rng());
    }
}
