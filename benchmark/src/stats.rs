//! Small numeric helpers: nearest-rank percentiles, the per-round
//! minimum merge that filters host noise, and the FNV-1a outcome digest.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and 95th percentile (nearest rank) of unsorted samples;
/// zeros when there are none (a pass that lost all its rounds).
pub fn p50_p95(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (percentile(&sorted, 50.0), percentile(&sorted, 95.0))
}

/// Fold one pass's per-round times into the running per-round minima.
/// Host interference only ever adds time to a deterministic round, so
/// the minimum over identical passes keeps the round-to-round spread of
/// the program and drops the host's.
///
/// # Panics
///
/// Panics if the passes timed different numbers of rounds.
pub fn merge_min(acc: &mut Vec<u64>, pass: &[u64]) {
    if acc.is_empty() {
        acc.extend_from_slice(pass);
        return;
    }
    assert_eq!(acc.len(), pass.len(), "passes must time the same rounds");
    for (a, &p) in acc.iter_mut().zip(pass) {
        *a = (*a).min(p);
    }
}

/// A round's time where its gate (the slower of the two reference-kernel
/// runs around it) stayed within `limit`, `u64::MAX` where it did not:
/// a sample taken while the host was slow never wins a minimum.
pub fn gated(round_ns: &[u64], gate_ns: &[u64], limit: u64) -> Vec<u64> {
    round_ns
        .iter()
        .zip(gate_ns)
        .map(|(&t, &g)| if g <= limit { t } else { u64::MAX })
        .collect()
}

/// FNV-1a over 64-bit words (floats by bit pattern), byte by byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50.0), 100);
        assert_eq!(percentile(&v, 95.0), 190);
        assert_eq!(percentile(&v, 100.0), 200);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.1), 1);
    }

    #[test]
    fn p50_p95_sorts_first() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        v.swap(3, 70);
        assert_eq!(p50_p95(&v), (50, 95));
        assert_eq!(p50_p95(&[]), (0, 0));
    }

    #[test]
    fn merge_min_keeps_the_fastest_sighting_of_each_round() {
        let mut acc = Vec::new();
        merge_min(&mut acc, &[10, 50, 30]);
        merge_min(&mut acc, &[12, 20, 31]);
        merge_min(&mut acc, &[11, 90, 29]);
        assert_eq!(acc, [10, 20, 29]);
    }

    #[test]
    fn gated_samples_lose_every_minimum() {
        let mut acc = Vec::new();
        merge_min(&mut acc, &gated(&[10, 20, 30], &[5, 9, 5], 6));
        merge_min(&mut acc, &gated(&[11, 25, 28], &[5, 5, 9], 6));
        assert_eq!(acc, [10, 25, 30]);
        merge_min(&mut acc, &gated(&[9, 9, 9], &[7, 7, 7], 6));
        assert_eq!(acc, [10, 25, 30], "a pass on a slow host changes nothing");
        assert_eq!(gated(&[1], &[7], 6), [u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "same rounds")]
    fn merge_min_rejects_ragged_passes() {
        let mut acc = vec![1, 2];
        merge_min(&mut acc, &[1]);
    }

    #[test]
    fn digest_matches_reference_fnv1a_and_sees_order_and_sign() {
        // FNV-1a of eight zero bytes, computed independently.
        let mut d = Digest::default();
        d.u64(0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(d.value(), h);

        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);

        let mut pos = Digest::default();
        pos.f64(0.0);
        let mut neg = Digest::default();
        neg.f64(-0.0);
        assert_ne!(pos, neg, "floats hash by bit pattern");
    }
}
