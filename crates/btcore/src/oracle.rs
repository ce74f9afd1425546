//! Black-box observation interface over a target device.
//!
//! The paper's vulnerability-detection phase (§III-E) uses three observations
//! to decide whether a malformed packet hit a vulnerability:
//!
//! 1. whether the target answered with a connection-level error message,
//! 2. whether an L2CAP *ping* (echo request) still succeeds, and
//! 3. whether a crash dump (Android tombstone / Linux core dump) appeared on
//!    the device.
//!
//! Observation (1) is visible on the wire; (2) and (3) require asking the
//! target.  In the original work (3) is an out-of-band check (e.g. `adb`
//! pulling tombstones); in this reproduction the simulated device exposes the
//! same information through [`TargetOracle`].  The fuzzer only ever consumes
//! this trait, so swapping a real device back in later only requires a new
//! oracle implementation.

use crate::error::ConnectionError;

/// Result of an L2CAP ping (echo request) issued by the detection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingOutcome {
    /// The target answered the echo request.
    Answered,
    /// The ping failed with the given connection error.
    Failed(ConnectionError),
}

impl PingOutcome {
    /// Returns `true` if the target responded to the ping.
    pub const fn is_answered(&self) -> bool {
        matches!(self, PingOutcome::Answered)
    }
}

/// Black-box view of a target device used by the vulnerability detector.
pub trait TargetOracle {
    /// Performs an L2CAP ping test against the target.
    fn ping(&mut self) -> PingOutcome;

    /// Returns `true` if the target produced a new crash dump since the last
    /// time this method was called (the check is consuming, mirroring "pull
    /// and clear tombstones").
    fn take_crash_dump(&mut self) -> bool;

    /// Returns `true` if the target's Bluetooth service is still running.
    fn bluetooth_alive(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeOracle {
        alive: bool,
        dumps: u32,
    }

    impl TargetOracle for FakeOracle {
        fn ping(&mut self) -> PingOutcome {
            if self.alive {
                PingOutcome::Answered
            } else {
                PingOutcome::Failed(ConnectionError::Failed)
            }
        }
        fn take_crash_dump(&mut self) -> bool {
            if self.dumps > 0 {
                self.dumps -= 1;
                true
            } else {
                false
            }
        }
        fn bluetooth_alive(&self) -> bool {
            self.alive
        }
    }

    #[test]
    fn oracle_is_object_safe_and_usable() {
        let mut oracle: Box<dyn TargetOracle> = Box::new(FakeOracle {
            alive: true,
            dumps: 1,
        });
        assert!(oracle.ping().is_answered());
        assert!(oracle.take_crash_dump());
        assert!(!oracle.take_crash_dump());
        assert!(oracle.bluetooth_alive());
    }

    #[test]
    fn ping_failure_carries_error() {
        let mut oracle = FakeOracle {
            alive: false,
            dumps: 0,
        };
        match oracle.ping() {
            PingOutcome::Failed(e) => assert!(e.indicates_dos()),
            PingOutcome::Answered => panic!("expected failure"),
        }
    }
}
