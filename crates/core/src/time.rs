//! Monotonic time used by the sans-IO protocol state machines.
//!
//! The core never reads a clock. Drivers (the discrete-event simulator or the real
//! threaded transport) pass the current [`Time`] into every state-machine call and are
//! responsible for firing timers the core requests. This is what lets the identical
//! protocol code run both under simulation and over real sockets.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A monotonic instant measured in nanoseconds from an arbitrary epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The zero instant.
    pub const ZERO: Time = Time(0);

    /// Construct from whole seconds.
    pub fn from_secs_f64(secs: f64) -> Time {
        Time((secs * 1e9) as u64)
    }

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (used for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn duration_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds.
    pub fn from_secs_f64(secs: f64) -> Duration {
        Duration((secs.max(0.0) * 1e9) as u64)
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, factor: u64) -> Duration {
        Duration(self.0 * factor)
    }

    /// Convert to a std duration (for real-time drivers).
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Convert from a std duration.
    pub fn from_std(d: std::time::Duration) -> Duration {
        Duration(d.as_nanos().min(u128::from(u64::MAX)) as u64)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.0 as f64 / 1e3)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!((t - Time::ZERO).as_millis(), 5);
        assert_eq!(t.duration_since(Time(10_000_000)), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
        assert!((Duration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn std_conversion() {
        let d = Duration::from_millis(123);
        assert_eq!(Duration::from_std(d.to_std()), d);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Duration::from_nanos(5).saturating_sub(Duration::from_nanos(9)), Duration::ZERO);
        assert_eq!(Duration::from_nanos(5) - Duration::from_nanos(9), Duration::ZERO);
    }
}
