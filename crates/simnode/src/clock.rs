//! Simulated time.
//!
//! Every component of the reproduction — collectors, the cron scheduler,
//! the daemon's sleep loop, job lifecycles — reads time from the cluster's
//! [`SimClock`] instead of the wall clock. This makes a quarter's worth of
//! cluster activity simulate in seconds and keeps every experiment
//! deterministic.
//!
//! Times are nanoseconds since the Unix epoch stored in a `u64` (good for
//! ~584 years). The default epoch used by workload generators is
//! 2015-10-01T00:00:00Z, the start of the quarter the paper's §V analyses
//! cover.

use std::cell::Cell;
use std::fmt;

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Unix timestamp (seconds) of 2015-10-01T00:00:00Z — the first day of the
/// quarter analysed in §V of the paper.
pub const Q4_2015_START_SECS: u64 = 1_443_657_600;

/// Unix timestamp (seconds) of 2016-01-01T00:00:00Z — the end of that
/// quarter.
pub const Q4_2015_END_SECS: u64 = 1_451_606_400;

/// An instant in simulated time (nanoseconds since the Unix epoch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The Unix epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from nanoseconds since the Unix epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds since the Unix epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Nanoseconds since the Unix epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the Unix epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds since the Unix epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The time advanced by `d`.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.as_nanos()).map(SimTime)
    }

    /// Duration since an earlier instant; zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Truncate to the start of the simulated day (UTC midnight).
    pub fn start_of_day(self) -> SimTime {
        const DAY: u64 = 86_400 * NANOS_PER_SEC;
        SimTime(self.0 / DAY * DAY)
    }

    /// Seconds into the current simulated day.
    pub fn seconds_into_day(self) -> u64 {
        self.as_secs() % 86_400
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Raw-stats files (and the paper's figures) use Unix seconds.
        write!(f, "{}", self.as_secs())
    }
}

/// A span of simulated time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration::from_secs(mins * 60)
    }

    /// From whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3_600)
    }

    /// From fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if zero length.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}s)", self.as_secs_f64())
    }
}

/// The simulated clock: one instant, advanced in place by its owner
/// (a cluster) and read through shared references.
#[derive(Debug)]
pub struct SimClock {
    now: Cell<SimTime>,
}

impl SimClock {
    /// A clock starting at the Unix epoch.
    pub fn new() -> Self {
        Self::starting_at(SimTime::EPOCH)
    }

    /// A clock starting at the given instant.
    pub fn starting_at(start: SimTime) -> Self {
        SimClock {
            now: Cell::new(start),
        }
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advance the clock by `d` and return the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let now = self.now.get() + d;
        self.now.set(now);
        now
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(100);
        assert_eq!(t.as_secs(), 100);
        let t2 = t + SimDuration::from_millis(2500);
        assert_eq!(t2.as_secs(), 102);
        assert_eq!((t2 - t).as_secs_f64(), 2.5);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(20);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(10));
    }

    #[test]
    fn day_boundaries() {
        let t = SimTime::from_secs(Q4_2015_START_SECS + 3 * 3600 + 42);
        assert_eq!(t.start_of_day().as_secs(), Q4_2015_START_SECS);
        assert_eq!(t.seconds_into_day(), 3 * 3600 + 42);
    }

    #[test]
    fn q4_quarter_is_92_days() {
        assert_eq!((Q4_2015_END_SECS - Q4_2015_START_SECS) / 86_400, 92);
    }

    #[test]
    fn from_secs_f64_rounds() {
        let d = SimDuration::from_secs_f64(0.09);
        assert_eq!(d.as_nanos(), 90_000_000);
    }
}
