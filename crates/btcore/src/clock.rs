//! Deterministic virtual clock.
//!
//! The paper reports elapsed wall-clock time until the first vulnerability is
//! found on each device (Table VI).  Because our targets are simulated, we
//! use a virtual clock that components advance explicitly: every transmitted
//! packet, state transition and device-side processing step charges a small,
//! documented cost.  That keeps the Table VI reproduction deterministic and
//! independent of host speed, while preserving the *relative* shape of the
//! paper's timings (devices with more service ports and deeper application
//! logic take longer).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shareable, monotonically increasing virtual clock with microsecond
/// resolution.
///
/// Cloning the clock yields a handle to the same underlying time source, so
/// the fuzzer, the air medium and the target device all observe a single
/// timeline.
///
/// # Example
///
/// ```
/// use btcore::SimClock;
/// use std::time::Duration;
///
/// let clock = SimClock::new();
/// let other = clock.clone();
/// clock.advance(Duration::from_millis(5));
/// assert_eq!(other.now(), Duration::from_millis(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        SimClock {
            micros: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Returns the current virtual time as a [`Duration`] since start.
    pub fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.micros
            .fetch_add(d.as_micros() as u64, Ordering::SeqCst);
    }

    /// Advances the clock by the given number of microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::SeqCst);
    }

    /// Advances the clock *to* the given instant if it is ahead of the
    /// current time; a no-op otherwise.  The event-driven medium uses this
    /// to keep its timeline at the latest fired event when links run on
    /// their own local clocks.
    pub fn advance_to(&self, micros: u64) {
        self.micros.fetch_max(micros, Ordering::SeqCst);
    }

    /// Returns a timestamp in whole microseconds (handy for trace records).
    pub fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

/// Formats a duration the way the paper's Table VI prints elapsed times,
/// e.g. `1 m 32 s`, `40 s` or `2 h 40 m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperDuration(
    /// Total number of whole seconds.
    pub u64,
);

impl From<Duration> for PaperDuration {
    fn from(d: Duration) -> Self {
        PaperDuration(d.as_secs())
    }
}

impl fmt::Display for PaperDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0;
        let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
        if h > 0 {
            write!(f, "{h} h {m} m")
        } else if m > 0 {
            write!(f, "{m} m {s} s")
        } else {
            write!(f, "{s} s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(3));
        c.advance_micros(500);
        assert_eq!(c.now_micros(), 3_500);
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        b.advance(Duration::from_secs(2));
        assert_eq!(a.now(), Duration::from_secs(3));
        assert_eq!(b.now(), Duration::from_secs(3));
    }

    #[test]
    fn paper_duration_formats_like_table6() {
        assert_eq!(PaperDuration(92).to_string(), "1 m 32 s");
        assert_eq!(PaperDuration(40).to_string(), "40 s");
        assert_eq!(PaperDuration(2 * 3600 + 40 * 60).to_string(), "2 h 40 m");
        assert_eq!(
            PaperDuration::from(Duration::from_secs(85)).to_string(),
            "1 m 25 s"
        );
        assert_eq!(PaperDuration(7 * 60 + 11).to_string(), "7 m 11 s");
    }
}
