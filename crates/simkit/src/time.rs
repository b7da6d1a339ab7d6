//! Virtual time.
//!
//! Simulated time is kept as an integer number of **nanoseconds** rather than a float
//! so that addition is associative and runs are reproducible regardless of the order
//! in which durations are accumulated.  All public constructors take seconds or
//! milliseconds as `f64` for convenience, because the cost models in the `machine`
//! and `launch` crates are naturally expressed in seconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in nanoseconds since the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_SEC: f64 = 1.0e9;
const NANOS_PER_MILLI: f64 = 1.0e6;
const NANOS_PER_MICRO: f64 = 1.0e3;

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from seconds.  Negative and non-finite values saturate to zero.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Construct from milliseconds.  Negative and non-finite values saturate to zero.
    pub fn from_millis(millis: f64) -> Self {
        SimTime(f64_to_nanos(millis * NANOS_PER_MILLI))
    }

    /// The instant expressed in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant expressed in (possibly lossy) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance by a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from seconds.  Negative and non-finite values saturate to zero.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Construct from milliseconds.
    pub fn from_millis(millis: f64) -> Self {
        SimDuration(f64_to_nanos(millis * NANOS_PER_MILLI))
    }

    /// Construct from microseconds.
    pub fn from_micros(micros: f64) -> Self {
        SimDuration(f64_to_nanos(micros * NANOS_PER_MICRO))
    }

    /// The duration expressed in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// True if the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiply by a non-negative scalar, saturating on overflow.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(f64_to_nanos(self.0 as f64 * factor.max(0.0)))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    f64_to_nanos(secs * NANOS_PER_SEC)
}

fn f64_to_nanos(nanos: f64) -> u64 {
    if nanos.is_nan() || nanos <= 0.0 {
        0
    } else if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a.saturating_add(b))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips_through_seconds() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_inputs_saturate_to_zero() {
        assert_eq!(SimTime::from_secs(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn infinity_saturates_to_max() {
        assert_eq!(SimTime::from_secs(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn time_arithmetic_behaves() {
        let a = SimTime::from_millis(10.0);
        let d = SimDuration::from_millis(5.0);
        assert_eq!(a + d, SimTime::from_millis(15.0));
        assert_eq!((a + d) - a, d);
        // subtraction saturates rather than wrapping
        assert_eq!(a - (a + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!(d * 3, SimDuration::from_secs(6.0));
        assert_eq!(d / 4, SimDuration::from_millis(500.0));
        assert_eq!(d.mul_f64(0.25), SimDuration::from_millis(500.0));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum_and_ordering() {
        let parts = [
            SimDuration::from_millis(1.0),
            SimDuration::from_millis(2.0),
            SimDuration::from_millis(3.0),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total, SimDuration::from_millis(6.0));
        assert!(parts[0] < parts[1]);
        assert_eq!(parts[2].max(parts[0]), parts[2]);
        assert_eq!(parts[2].min(parts[0]), parts[0]);
    }

    #[test]
    fn display_is_in_seconds() {
        let t = SimTime::from_millis(1250.0);
        assert_eq!(format!("{t}"), "1.250000s");
    }

    #[test]
    fn saturating_since_handles_future_reference() {
        let early = SimTime::from_secs(1.0);
        let late = SimTime::from_secs(2.0);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1.0));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }
}
