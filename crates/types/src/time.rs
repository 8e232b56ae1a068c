//! Virtual time for the discrete-event simulator.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, with nanosecond resolution.
///
/// The paper schedules operation events with inter-event delays drawn
/// uniformly from [5 ms, 2005 ms]; nanosecond resolution keeps channel
/// latencies and tie-breaking well below that granularity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin (truncating).
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in nanoseconds.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of virtual time, with nanosecond resolution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole nanoseconds.
    #[inline]
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_roundtrip() {
        let t = SimTime::from_millis(2005);
        assert_eq!(t.as_millis(), 2005);
        assert_eq!(t.as_nanos(), 2_005_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(5) + SimDuration::from_millis(10);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(5)).as_nanos(), 10_000_000);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_millis(1));
        assert!(SimTime::from_millis(1) < SimTime::MAX);
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }

    #[test]
    fn saturating_add_does_not_overflow() {
        let t = SimTime::MAX.saturating_add(SimDuration::from_millis(1));
        assert_eq!(t, SimTime::MAX);
    }
}
