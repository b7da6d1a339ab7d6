//! Virtual time.
//!
//! Simulated time is kept as an integer number of **nanoseconds** rather than a float
//! so that addition is associative and runs are reproducible regardless of the order
//! in which durations are accumulated.  All public constructors take seconds or
//! milliseconds as `f64` for convenience, because the cost models in the `machine`
//! and `launch` crates are naturally expressed in seconds.  Every operation
//! saturates: an absurd input (a command-line task count fed to a quadratic model)
//! pins a cost at "forever" instead of wrapping it to a small one.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, measured in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_SEC: f64 = 1.0e9;
const NANOS_PER_MILLI: f64 = 1.0e6;
const NANOS_PER_MICRO: f64 = 1.0e3;

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

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
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
        let d = SimDuration::from_secs(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_inputs_saturate_to_zero() {
        assert_eq!(SimDuration::from_secs(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn infinity_saturates_to_max() {
        assert_eq!(SimDuration::from_secs(f64::INFINITY).as_nanos(), u64::MAX);
    }

    #[test]
    fn addition_saturates_like_every_other_operation() {
        let forever = SimDuration::from_secs(f64::INFINITY);
        let d = SimDuration::from_millis(5.0);
        assert_eq!(forever + d, forever);
        let mut total = d;
        total += forever;
        assert_eq!(total, forever);
    }

    #[test]
    fn duration_arithmetic_behaves() {
        let a = SimDuration::from_millis(10.0);
        let d = SimDuration::from_millis(5.0);
        assert_eq!(a + d, SimDuration::from_millis(15.0));
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
        let d = SimDuration::from_millis(1250.0);
        assert_eq!(format!("{d}"), "1.250000s");
    }
}
