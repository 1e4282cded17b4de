//! Logical time.
//!
//! All executions in the kit run on a simulated clock (see `svckit-netsim`),
//! so time is a logical quantity measured in microseconds. Keeping the type
//! here, in the base crate, lets traces, simulators and metrics share it
//! without dependency cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The origin of simulated time.
    pub const ZERO: Instant = Instant(0);

    /// Creates an instant from microseconds since the origin.
    pub const fn from_micros(micros: u64) -> Self {
        Instant(micros)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`Duration::ZERO`] when `earlier` is later than `self`
    /// (saturating), so metric code never panics on reordered events.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Instant {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Instant::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: Instant) -> Duration {
        debug_assert!(rhs.0 <= self.0, "instant subtraction went negative");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Instant::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - Instant::from_micros(10)).as_micros(), 5);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = Instant::from_micros(3);
        let late = Instant::from_micros(9);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_micros(6));
    }

    #[test]
    fn conversions_between_units() {
        assert_eq!(Duration::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn display_picks_readable_unit() {
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_millis(3).to_string(), "3ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Instant::from_micros(4).to_string(), "t=4us");
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = Instant::ZERO;
        t += Duration::from_micros(4);
        t += Duration::from_micros(6);
        assert_eq!(t, Instant::from_micros(10));
        let mut d = Duration::ZERO;
        d += Duration::from_millis(1);
        assert_eq!(d.as_micros(), 1_000);
    }
}
