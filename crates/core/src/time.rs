//! Simulation time.
//!
//! The simulator measures time in seconds as an `f64` wrapped in [`SimTime`].
//! Wall-clock resolution in the paper's testbed is milliseconds; `f64`
//! seconds comfortably covers the dynamic range (microseconds to days)
//! without accumulating meaningful error at the episode lengths we use.
//!
//! `SimTime` is totally ordered. Constructing a NaN time is a programming
//! error and panics in debug builds; comparisons use `f64::total_cmp` so the
//! event queue ordering is always well-defined.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the episode.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The episode origin.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. Panics (debug) on NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// The time as fractional seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed seconds since `earlier`. Negative if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }

    /// Saturating maximum of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating minimum of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if the value is finite (not infinity; NaN is excluded by
    /// construction).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.since(a), 1.0);
        assert_eq!(b - a, 1.0);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::ZERO;
        t += 1.5;
        let t = t + 2.5;
        assert_eq!(t.as_secs(), 4.0);
        assert!(t.is_finite());
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs(1.23456)), "1.235");
        assert_eq!(format!("{:?}", SimTime::from_secs(2.0)), "2.000s");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn nan_panics_in_debug() {
        let _ = SimTime::from_secs(f64::NAN);
    }
}
