//! Integer-nanosecond simulation time.
//!
//! Every layer of the stack used to keep its own `f64` seconds — the
//! boot timeline in `xcbc-cluster`, the scheduler's
//! event heap in `xcbc-sched`, mirror latency math in `xcbc-yum`.
//! [`SimTime`] and [`SimDuration`] replace all of them with one
//! integer-nanosecond representation: exact addition, a total order
//! with no NaN corner, and byte-stable serialization for replayable
//! event logs. `From<f64>` conversions (interpreting the float as
//! seconds) keep call sites as terse as the old APIs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Nanoseconds per second, the fixed tick of the simulation clock.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Convert (non-negative) seconds to nanoseconds, rounding to the
/// nearest tick. Negative and NaN inputs clamp to zero: virtual time
/// never runs backwards, and a "negative duration" from float math is
/// always a bookkeeping artifact.
fn secs_to_nanos(s: f64) -> u64 {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    (s * NANOS_PER_SEC as f64).round() as u64
}

/// An instant on the simulation timeline: nanoseconds since the
/// simulation epoch (t = 0, when the scenario starts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// An instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// An instant from (possibly fractional) seconds since the epoch,
    /// rounded to the nearest nanosecond. Negative inputs clamp to the
    /// epoch.
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime(secs_to_nanos(secs))
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for rendering and for the
    /// legacy `f64` APIs kept as compatibility shims).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is
    /// actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl From<f64> for SimTime {
    fn from(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A span of simulation time in nanoseconds. Always non-negative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> SimDuration {
        SimDuration(nanos)
    }

    /// A duration of whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// A duration of whole milliseconds.
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration(millis * (NANOS_PER_SEC / 1000))
    }

    /// A duration from (possibly fractional) seconds, rounded to the
    /// nearest nanosecond. Negative and NaN inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        SimDuration(secs_to_nanos(secs))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Is this the empty duration?
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference to another duration, saturating at zero.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl From<f64> for SimDuration {
    fn from(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u32> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u32) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs as u64))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_trip_exactly_for_decimal_inputs() {
        for s in [0.0, 0.5, 1.0, 90.0, 640.0, 1234.125] {
            assert_eq!(SimTime::from_secs_f64(s).as_secs_f64(), s);
            assert_eq!(SimDuration::from_secs_f64(s).as_secs_f64(), s);
        }
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(99.0);
        assert_eq!(t, SimTime::from_secs(100));
        assert_eq!(t.since(SimTime::from_secs(40)), SimDuration::from_secs(60));
        // saturating: earlier.since(later) is zero, not underflow
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum_and_scale() {
        let total: SimDuration = [1.5, 2.5, 6.0]
            .into_iter()
            .map(SimDuration::from_secs_f64)
            .sum();
        assert_eq!(total, SimDuration::from_secs(10));
        assert_eq!(SimDuration::from_secs(3) * 4, SimDuration::from_secs(12));
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = [
            SimTime::from_secs(5),
            SimTime::ZERO,
            SimTime::from_secs_f64(2.25),
        ];
        ts.sort();
        assert_eq!(ts[0], SimTime::ZERO);
        assert_eq!(ts[2], SimTime::from_secs(5));
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
