//! Virtual time for the discrete-event simulator.
//!
//! The base unit is the **millisecond**: fine enough for control-message
//! latencies, wide enough that the paper's 800-day MASC run (≈ 6.9×10¹⁰
//! ms) fits comfortably in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (milliseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, snapshot::Snapshot)]
pub struct SimTime(pub u64);

/// A span of simulated time (milliseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, snapshot::Snapshot)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Milliseconds since simulation start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start.
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional days since simulation start (for plotting).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400_000.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// A span of seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// A span of minutes.
    pub fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// A span of hours.
    pub fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// A span of days.
    pub fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000)
    }

    /// Milliseconds in the span.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds in the span.
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let d = total_secs / 86_400;
        let h = (total_secs % 86_400) / 3600;
        let m = (total_secs % 3600) / 60;
        let s = total_secs % 60;
        write!(f, "{d}d {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        assert_eq!(t.as_millis(), 5000);
        assert_eq!((t + SimDuration::from_millis(500)).as_secs(), 5);
        assert_eq!((t - SimTime(2000)).as_millis(), 3000);
        assert_eq!(t.saturating_sub(SimTime(10_000)), SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_days(1).as_millis(), 86_400_000);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_hours(48), SimDuration::from_days(2));
    }

    #[test]
    fn display_format() {
        let t = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(3);
        assert_eq!(t.to_string(), "2d 03:00:00");
    }

    #[test]
    fn days_f64() {
        let t = SimTime::ZERO + SimDuration::from_hours(36);
        assert!((t.as_days_f64() - 1.5).abs() < 1e-12);
    }
}
