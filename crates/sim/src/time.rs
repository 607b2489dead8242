use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in integral ticks.
///
/// The paper's experiments operate in whole "time units"; one tick equals
/// one time unit in those reproductions. Richer network models (latency,
/// serialization delay) subdivide the unit by choosing a finer tick.
/// Integral ticks keep event ordering total and runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` — time never runs backwards
    /// in a discrete-event simulation, so that is always a caller bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since called with a later `earlier`"),
        )
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ticks(10) + SimDuration::from_ticks(5);
        assert_eq!(t.ticks(), 15);
        assert_eq!(t.since(SimTime::from_ticks(10)), SimDuration::from_ticks(5));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_ticks(3);
        assert_eq!(u, SimTime::from_ticks(3));
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert!(SimTime::ZERO <= SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "later `earlier`")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::from_ticks(1).since(SimTime::from_ticks(2));
    }

    #[test]
    fn duration_ops() {
        let d = SimDuration::from_ticks(4) + SimDuration::from_ticks(6);
        assert_eq!(d.ticks(), 10);
        assert_eq!((d - SimDuration::from_ticks(3)).ticks(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ticks(7).to_string(), "t=7");
        assert_eq!(SimDuration::from_ticks(7).to_string(), "7 ticks");
    }
}
