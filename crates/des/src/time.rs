//! Simulated time: a monotone nanosecond clock and durations.
//!
//! The whole reproduction runs on virtual time — no wall clock is ever
//! consulted — so experiment output is a pure function of the RNG seed.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration since an earlier instant; saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDur(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional microseconds.
    #[inline]
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration as fractional milliseconds.
    #[inline]
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0 / 1_000_000;
        let (mins, secs, ms) = (total_ms / 60_000, (total_ms / 1000) % 60, total_ms % 1000);
        write!(f, "{mins:02}:{secs:02}.{ms:03}")
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 10_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 10_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if self.0 < 10_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.2}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDur::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!(((t + d) - t).as_nanos(), 2_000);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!((early - late).as_nanos(), 0);
        assert_eq!(early.since(late), SimDur::ZERO);
        assert_eq!(late.since(early).as_nanos(), 40);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDur::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDur::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDur::from_micros(1).as_nanos(), 1_000);
    }

    #[test]
    fn float_conversions() {
        let d = SimDur::from_nanos(2_500_000_000);
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDur::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDur::from_micros(50)), "50.00us");
        assert_eq!(format!("{}", SimDur::from_millis(50)), "50.00ms");
        assert_eq!(format!("{}", SimDur::from_secs(50)), "50.00s");
        assert_eq!(format!("{}", SimTime::from_nanos(65_123_000_000)), "01:05.123");
    }

    #[test]
    fn saturating_add_at_max() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDur::from_secs(1), SimTime::MAX);
    }
}
