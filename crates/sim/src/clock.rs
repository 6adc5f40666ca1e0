//! Simulated time: durations and an accumulating clock.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// A span of simulated time, stored as seconds in `f64`.
///
/// Simulated durations are exact (no wall-clock jitter), which makes every
/// throughput table in the reproduction bit-for-bit deterministic.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Panics on negative or non-finite input.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration(secs)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// Duration in seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
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

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs >= 0.0, "cannot scale duration by negative factor");
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        assert!(rhs > 0.0, "cannot divide duration by non-positive factor");
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An accumulating simulated clock.
///
/// Executors advance the clock by the model cost of each operation; at the
/// end of a run, `throughput(total_video_frames)` yields the fps figure the
/// paper plots (frames of *video covered* per second of *processing time*,
/// which is how a filtering system can exceed the decode rate).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    elapsed: SimDuration,
    events: u64,
}

impl SimClock {
    /// A fresh clock at t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `d`, counting one event.
    pub fn advance(&mut self, d: SimDuration) {
        self.elapsed += d;
        self.events += 1;
    }

    /// Total elapsed simulated seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs()
    }

    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Number of `advance` calls (e.g., APFG invocations).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Frames-per-second throughput for a workload that covered
    /// `frames_covered` video frames in the elapsed time.
    ///
    /// Returns `f64::INFINITY` when no time has elapsed and frames were
    /// covered; 0.0 when nothing was covered.
    pub fn throughput(&self, frames_covered: u64) -> f64 {
        if frames_covered == 0 {
            return 0.0;
        }
        let secs = self.elapsed.as_secs();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            frames_covered as f64 / secs
        }
    }

    /// Merge another clock's time and events into this one (used by the
    /// inter-video parallel executor to combine per-worker clocks).
    pub fn merge(&mut self, other: &SimClock) {
        self.elapsed += other.elapsed;
        self.events += other.events;
    }

    /// Reset to t=0.
    pub fn reset(&mut self) {
        self.elapsed = SimDuration::ZERO;
        self.events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(0.5), SimDuration::from_millis(500.0));
        assert_eq!(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(1000.0)
        );
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_secs(1.0);
        let b = SimDuration::from_secs(2.0);
        assert_eq!((a + b).as_secs(), 3.0);
        assert_eq!((a * 4.0).as_secs(), 4.0);
        assert_eq!((b / 2.0).as_secs(), 1.0);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total.as_secs(), 4.0);
    }

    #[test]
    fn clock_accumulates_and_reports_throughput() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_secs(2.0));
        c.advance(SimDuration::from_secs(3.0));
        assert_eq!(c.elapsed_secs(), 5.0);
        assert_eq!(c.events(), 2);
        assert_eq!(c.throughput(1000), 200.0);
    }

    #[test]
    fn throughput_edge_cases() {
        let c = SimClock::new();
        assert_eq!(c.throughput(0), 0.0);
        assert_eq!(c.throughput(10), f64::INFINITY);
    }

    #[test]
    fn merge_combines() {
        let mut a = SimClock::new();
        a.advance(SimDuration::from_secs(1.0));
        let mut b = SimClock::new();
        b.advance(SimDuration::from_secs(2.0));
        b.advance(SimDuration::from_secs(1.0));
        a.merge(&b);
        assert_eq!(a.elapsed_secs(), 4.0);
        assert_eq!(a.events(), 3);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_secs(1.0));
        c.reset();
        assert_eq!(c.elapsed_secs(), 0.0);
        assert_eq!(c.events(), 0);
    }
}
