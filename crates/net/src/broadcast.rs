//! Broadcast disks (Acharya, Alonso, Franklin & Zdonik — the paper's
//! references [4–6]): the push-based dissemination architecture the
//! paper positions itself against.
//!
//! Instead of answering pull requests, the base station cyclically
//! broadcasts objects on the downlink; clients tune in and wait for the
//! object they need. A *multi-disk* program broadcasts hot objects more
//! often: disks with relative integer frequencies are chunked and
//! interleaved so that a disk of frequency `f` appears `f` times per
//! major cycle, evenly spaced. The comparison experiment pits expected
//! broadcast access delay against the base station's pull-based
//! on-demand caching for the same demand skew.

use crate::object::ObjectId;

/// A multi-disk broadcast program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastSchedule {
    /// The slot sequence of one major cycle; `slots[t % len]` is on air
    /// at slot `t`.
    slots: Vec<ObjectId>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

impl BroadcastSchedule {
    /// A flat disk: every object broadcast once per cycle, in id order.
    pub fn flat(objects: impl IntoIterator<Item = ObjectId>) -> Self {
        let slots: Vec<ObjectId> = objects.into_iter().collect();
        assert!(
            !slots.is_empty(),
            "broadcast program needs at least one object"
        );
        Self { slots }
    }

    /// Acharya et al.'s multi-disk program generation.
    ///
    /// `disks[i]` is `(relative_frequency, objects)`; a disk of
    /// frequency `f` is split into `L/f` chunks (`L` = lcm of all
    /// frequencies) and chunk `j mod (L/f)` of every disk airs in minor
    /// cycle `j`, giving each disk `f` evenly spaced appearances per
    /// major cycle.
    ///
    /// # Panics
    ///
    /// Panics on empty input, zero frequencies, empty disks, or disks
    /// whose size is not divisible by their number of chunks (pad with
    /// repeats as Acharya et al. do).
    pub fn multi_disk(disks: &[(u64, Vec<ObjectId>)]) -> Self {
        assert!(!disks.is_empty(), "need at least one disk");
        let l = disks.iter().fold(1u64, |acc, &(f, _)| {
            assert!(f > 0, "disk frequencies must be positive");
            lcm(acc, f)
        });
        // Chunk every disk.
        let mut chunks: Vec<Vec<&[ObjectId]>> = Vec::with_capacity(disks.len());
        for (f, objects) in disks {
            assert!(!objects.is_empty(), "disks must be non-empty");
            let num_chunks = (l / f) as usize;
            assert!(
                objects.len() % num_chunks == 0,
                "disk of {} objects cannot split into {num_chunks} equal chunks \
                 (pad the disk so its size divides L/f)",
                objects.len()
            );
            let chunk_size = objects.len() / num_chunks;
            chunks.push(objects.chunks(chunk_size).collect());
        }
        // Interleave: minor cycle j carries chunk (j mod NC_i) of disk i.
        let mut slots = Vec::new();
        for j in 0..l as usize {
            for disk_chunks in &chunks {
                for &id in disk_chunks[j % disk_chunks.len()] {
                    slots.push(id);
                }
            }
        }
        Self { slots }
    }

    /// Slots a client tuning in *after* slot `t` has aired waits until
    /// `object` next airs (1 = it airs in the very next slot).
    ///
    /// # Panics
    ///
    /// Panics if `object` never airs.
    pub fn wait_from(&self, t: u64, object: ObjectId) -> u64 {
        let n = self.slots.len() as u64;
        let start = t % n;
        for d in 1..=n {
            if self.slots[((start + d) % n) as usize] == object {
                return d;
            }
        }
        panic!("{object} is not in the broadcast program");
    }

    /// Expected wait (in slots) for `object` for a client tuning in at a
    /// uniformly random slot boundary — the mean of `wait_from` over one
    /// cycle.
    pub fn expected_wait(&self, object: ObjectId) -> f64 {
        let n = self.slots.len() as u64;
        let total: u64 = (0..n).map(|t| self.wait_from(t, object)).sum();
        total as f64 / n as f64
    }

    /// Expected wait averaged over a demand distribution:
    /// `Σ_i p_i · E[wait_i]`, with `probabilities[i]` the demand for
    /// object id `i`.
    pub fn expected_wait_under(&self, probabilities: &[f64]) -> f64 {
        probabilities
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(i, &p)| p * self.expected_wait(ObjectId(i as u32)))
            .sum()
    }
}

/// Test-only views: the slot on air and a Monte-Carlo check of
/// [`BroadcastSchedule::expected_wait_under`].
#[cfg(test)]
impl BroadcastSchedule {
    /// The object on air at slot `t`.
    fn on_air(&self, t: u64) -> ObjectId {
        self.slots[(t % self.slots.len() as u64) as usize]
    }

    /// Simulate `draws` client accesses at random slot positions against
    /// a demand distribution; returns the mean observed wait. Used to
    /// validate the closed-form expectation.
    fn simulate_mean_wait(
        &self,
        probabilities: &[f64],
        draws: usize,
        rng: &mut basecache_sim::StreamRng,
    ) -> f64 {
        let n = self.slots.len() as u64;
        let mut acc = 0u64;
        let mut cumulative = Vec::with_capacity(probabilities.len());
        let mut sum = 0.0;
        for &p in probabilities {
            sum += p;
            cumulative.push(sum);
        }
        for _ in 0..draws {
            let u: f64 = rng.random::<f64>() * sum;
            let obj = cumulative
                .partition_point(|&c| c <= u)
                .min(probabilities.len() - 1);
            let t = rng.random_range(0..n);
            acc += self.wait_from(t, ObjectId(obj as u32));
        }
        acc as f64 / draws as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::RngStreams;

    fn ids(range: std::ops::Range<u32>) -> Vec<ObjectId> {
        range.map(ObjectId).collect()
    }

    #[test]
    fn flat_disk_expected_wait_is_half_cycle() {
        let s = BroadcastSchedule::flat(ids(0..10));
        // Wait from a uniformly random boundary: mean of 1..=10 = 5.5.
        for i in 0..10 {
            assert!((s.expected_wait(ObjectId(i)) - 5.5).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_disk_program_matches_acharya_example() {
        // Two disks: hot {0} at frequency 2, cold {1, 2} at frequency 1.
        // L = 2, hot disk → 1 chunk broadcast every minor cycle, cold
        // disk → 2 chunks. Program: 0 1 0 2.
        let s = BroadcastSchedule::multi_disk(&[(2, ids(0..1)), (1, ids(1..3))]);
        let program: Vec<u32> = s.slots.iter().map(|o| o.0).collect();
        assert_eq!(program, vec![0, 1, 0, 2]);
    }

    #[test]
    fn hot_objects_wait_less_on_a_multi_disk() {
        let s = BroadcastSchedule::multi_disk(&[
            (2, ids(0..2)),  // hot: 0, 1
            (1, ids(2..10)), // cold: 2..9
        ]);
        let hot = s.expected_wait(ObjectId(0));
        let cold = s.expected_wait(ObjectId(5));
        assert!(
            hot < cold / 1.5,
            "hot wait {hot} should be well under cold wait {cold}"
        );
        // Every object still airs.
        for i in 0..10 {
            let _ = s.expected_wait(ObjectId(i));
        }
    }

    #[test]
    fn skewing_the_program_toward_demand_reduces_mean_wait() {
        // Zipf-ish demand over 12 objects; compare flat vs 2-disk.
        let mut probs: Vec<f64> = (0..12).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let flat = BroadcastSchedule::flat(ids(0..12));
        let multi = BroadcastSchedule::multi_disk(&[(2, ids(0..2)), (1, ids(2..12))]);
        let flat_wait = flat.expected_wait_under(&probs);
        let multi_wait = multi.expected_wait_under(&probs);
        assert!(
            multi_wait < flat_wait,
            "multi-disk ({multi_wait}) must beat flat ({flat_wait}) under skew"
        );
    }

    #[test]
    fn simulation_validates_the_expectation() {
        let s = BroadcastSchedule::multi_disk(&[(2, ids(0..2)), (1, ids(2..8))]);
        let probs = vec![0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05];
        let expected = s.expected_wait_under(&probs);
        let mut rng = RngStreams::new(44).stream("broadcast");
        let simulated = s.simulate_mean_wait(&probs, 40_000, &mut rng);
        assert!(
            (simulated - expected).abs() < 0.1,
            "simulated {simulated} vs expected {expected}"
        );
    }

    #[test]
    fn wait_from_is_cyclic_and_positive() {
        let s = BroadcastSchedule::flat(ids(0..4));
        assert_eq!(s.wait_from(0, ObjectId(1)), 1);
        assert_eq!(
            s.wait_from(1, ObjectId(1)),
            4,
            "full cycle when just missed"
        );
        assert_eq!(s.on_air(6), ObjectId(2));
    }

    #[test]
    #[should_panic(expected = "not in the broadcast program")]
    fn absent_object_panics() {
        let s = BroadcastSchedule::flat(ids(0..4));
        let _ = s.wait_from(0, ObjectId(99));
    }

    #[test]
    #[should_panic(expected = "equal chunks")]
    fn indivisible_disk_is_rejected() {
        // L = 2, cold disk frequency 1 → 2 chunks, but 3 objects.
        let _ = BroadcastSchedule::multi_disk(&[(2, ids(0..1)), (1, ids(1..4))]);
    }
}
