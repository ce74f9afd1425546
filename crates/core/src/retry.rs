//! Bounded retry with virtual-time backoff.
//!
//! On a lossy link a single unanswered probe is not evidence of a dead
//! target — L2Fuzz on real hardware retries its liveness checks before
//! declaring a DoS.  A [`RetryPolicy`] gives the drivers (the state guide's
//! channel-open preludes and the detector's ping test) the same tolerance:
//! up to `max_attempts` tries, waiting `backoff_micros` of *virtual* time
//! between them (scaled by `backoff_factor` per retry), so retried schedules
//! stay exactly as deterministic as everything else.

/// Retry behaviour of the fault-tolerant drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Virtual-time wait before the first retry, in microseconds.
    pub backoff_micros: u64,
    /// Multiplier applied to the backoff per additional retry (minimum 1).
    pub backoff_factor: u32,
}

impl RetryPolicy {
    /// No retries: a single attempt, the pre-resilience behaviour.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_micros: 0,
            backoff_factor: 1,
        }
    }

    /// The default tolerance for a degraded link: eight attempts with
    /// exponential backoff starting at 500 µs of virtual time.  A detection
    /// session probes liveness after every silent test packet — hundreds of
    /// times per campaign — so the per-probe false-timeout chance must be
    /// tiny: at combined 20% loss + corruption, eight attempts put it near
    /// 0.2⁸ ≈ 3·10⁻⁶, keeping whole campaigns free of false DoS verdicts.
    pub const fn lossy_link() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff_micros: 500,
            backoff_factor: 2,
        }
    }

    /// `attempts` tries with a flat virtual-time backoff between them.
    pub const fn flat(attempts: u32, backoff_micros: u64) -> Self {
        RetryPolicy {
            max_attempts: attempts,
            backoff_micros,
            backoff_factor: 1,
        }
    }

    /// Returns `true` if this policy never retries.
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }

    /// The virtual-time backoff before retry number `retry` (0-based).
    pub fn backoff_for(&self, retry: u32) -> u64 {
        let factor = u64::from(self.backoff_factor.max(1)).saturating_pow(retry);
        self.backoff_micros.saturating_mul(factor)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_single_attempt() {
        let policy = RetryPolicy::none();
        assert!(policy.is_none());
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(RetryPolicy::default(), policy);
    }

    #[test]
    fn lossy_link_backs_off_exponentially() {
        let policy = RetryPolicy::lossy_link();
        assert!(!policy.is_none());
        assert_eq!(policy.backoff_for(0), 500);
        assert_eq!(policy.backoff_for(1), 1_000);
        assert_eq!(policy.backoff_for(2), 2_000);
        assert_eq!(policy.backoff_for(6), 32_000);
    }

    #[test]
    fn flat_policy_keeps_a_constant_backoff() {
        let policy = RetryPolicy::flat(3, 500);
        assert_eq!(policy.max_attempts, 3);
        assert_eq!(policy.backoff_for(0), 500);
        assert_eq!(policy.backoff_for(5), 500);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: 64,
            backoff_micros: u64::MAX / 2,
            backoff_factor: u32::MAX,
        };
        assert_eq!(policy.backoff_for(40), u64::MAX);
    }
}
