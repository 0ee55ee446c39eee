//! Deterministic bounded-backoff retry for transient I/O failures.
//!
//! The warehouse wraps its WAL-append and snapshot-save points in the
//! default [`RetryPolicy`]: a transient fault
//! ([`MaintainError::is_retryable_io`]) gets up to four tries with
//! exponentially growing (capped) backoff; anything else — crash faults,
//! disk-full, logic errors — escalates immediately. The backoff schedule is a pure function of the
//! attempt number (no jitter, no clocks consulted for decisions), so a
//! retried batch commits exactly what a fault-free one would.

use std::time::Duration;

use crate::error::{MaintainError, Result};

/// A bounded, deterministic retry policy for transient I/O faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts (one initial + three retries) with 50µs base backoff
    /// doubling to a 2ms cap — generous for in-memory media, bounded
    /// enough that a persistent fault escalates within ~3ms.
    fn default() -> Self {
        RetryPolicy::new(4, Duration::from_micros(50), Duration::from_millis(2))
    }
}

impl RetryPolicy {
    /// A policy with explicit bounds. `max_attempts` counts the initial
    /// attempt, so it is clamped to at least 1.
    pub(crate) fn new(max_attempts: u32, base_backoff: Duration, max_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
            max_backoff: max_backoff.max(base_backoff),
        }
    }

    /// A policy that never retries: the first failure escalates.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        RetryPolicy::new(1, Duration::ZERO, Duration::ZERO)
    }

    /// Total attempts allowed (initial + retries), at least 1.
    #[cfg(test)]
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The backoff to sleep before retry number `attempt` (1-based: the
    /// first retry is attempt 1). Doubles each time, capped.
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Whether `err` on attempt number `attempt` (0-based count of
    /// attempts already made, including the failing one) should be
    /// retried under this policy.
    fn should_retry(&self, err: &MaintainError, attempts_made: u32) -> bool {
        err.is_retryable_io() && attempts_made < self.max_attempts
    }

    /// Runs `op` under this policy. `op` receives the 0-based attempt
    /// number. Returns the final result together with the number of
    /// retries performed (0 = first attempt succeeded or escalated).
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T>) -> (Result<T>, u32) {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return (Ok(v), attempt),
                Err(e) => {
                    attempt += 1;
                    if !self.should_retry(&e, attempt) {
                        return (Err(e), attempt - 1);
                    }
                    let pause = self.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, IoFaultKind};

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(8, Duration::from_micros(100), Duration::from_micros(350));
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(350)); // capped
        assert_eq!(p.backoff(30), Duration::from_micros(350)); // no overflow
    }

    #[test]
    fn transient_fault_heals_within_budget() {
        let mut faults = FaultPlan::default();
        faults.arm_transient("io", 0, IoFaultKind::Write, 2);
        let policy = RetryPolicy::new(4, Duration::ZERO, Duration::ZERO);
        let (result, retries) = policy.run(|_| faults.hit("io"));
        assert!(result.is_ok());
        assert_eq!(retries, 2);
    }

    #[test]
    fn persistent_fault_escalates_after_max_attempts() {
        let mut faults = FaultPlan::default();
        faults.arm_transient("io", 0, IoFaultKind::Fsync, 100);
        let policy = RetryPolicy::new(3, Duration::ZERO, Duration::ZERO);
        let (result, retries) = policy.run(|_| faults.hit("io"));
        match result {
            Err(MaintainError::Io { kind, .. }) => assert_eq!(kind, IoFaultKind::Fsync),
            other => panic!("expected escalated Io fault, got {other:?}"),
        }
        assert_eq!(retries, 2); // 3 attempts = 2 retries
    }

    #[test]
    fn disk_full_and_crash_escalate_immediately() {
        let mut faults = FaultPlan::default();
        faults.arm_transient("io", 0, IoFaultKind::DiskFull, 5);
        let policy = RetryPolicy::default();
        let (result, retries) = policy.run(|_| faults.hit("io"));
        assert!(matches!(
            result,
            Err(MaintainError::Io {
                kind: IoFaultKind::DiskFull,
                ..
            })
        ));
        assert_eq!(retries, 0);

        let mut faults = FaultPlan::default();
        faults.arm("io", 0);
        let (result, retries) = policy.run(|_| faults.hit("io"));
        assert!(matches!(result, Err(MaintainError::Injected { .. })));
        assert_eq!(retries, 0);
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts(), 1);
        let mut calls = 0;
        let (result, retries) = p.run(|_| {
            calls += 1;
            Err::<(), _>(MaintainError::Io {
                point: "io".into(),
                kind: IoFaultKind::Write,
            })
        });
        assert!(result.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }
}
