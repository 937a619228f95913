//! Retry with exponential backoff, seeded jitter, and a delay budget.
//!
//! Real cluster provisioning treats mirror fetches and node discovery as
//! retryable: yum walks its mirror list with per-mirror retries, and
//! insert-ethers happily waits through several DHCP timeouts. The
//! simulation mirrors that, and — because everything here is virtual
//! time — backoff "delays" are numbers the caller records as install
//! trace spans rather than actual sleeps.

use rand::rngs::StdRng;
use rand::Rng;

/// Backoff configuration for one class of operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Delay after the first failure, seconds.
    pub base_delay_s: f64,
    /// Multiplier per subsequent failure (>= 1).
    pub multiplier: f64,
    /// Cap on any single delay, seconds.
    pub max_delay_s: f64,
    /// Multiplicative jitter amplitude in [0, 1): each delay is scaled by
    /// a factor drawn uniformly from `1-jitter ..= 1+jitter`.
    pub jitter: f64,
    /// Total backoff budget, seconds: once cumulative backoff would
    /// exceed this, the operation gives up even with attempts left.
    pub budget_s: f64,
}

impl Default for RetryPolicy {
    /// yum-flavored default: 3 attempts, 2 s first backoff, doubling,
    /// 30 s cap, 10% jitter, 120 s budget.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_s: 2.0,
            multiplier: 2.0,
            max_delay_s: 30.0,
            jitter: 0.1,
            budget_s: 120.0,
        }
    }
}

impl RetryPolicy {
    pub fn new(max_attempts: u32, base_delay_s: f64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay_s: base_delay_s.max(0.0),
            ..RetryPolicy::default()
        }
    }

    /// No retries at all — the pre-resilience one-shot behavior.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A patient policy for slow hardware paths (node boot, PXE).
    pub fn patient() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_s: 10.0,
            multiplier: 2.0,
            max_delay_s: 120.0,
            jitter: 0.1,
            budget_s: 600.0,
        }
    }

    /// The deterministic (jitter-free) delay after failure number
    /// `failure` (1-based): `base * multiplier^(failure-1)`, capped.
    pub fn nominal_delay_s(&self, failure: u32) -> f64 {
        if failure == 0 {
            return 0.0;
        }
        let exp = (failure - 1).min(63);
        (self.base_delay_s * self.multiplier.powi(exp as i32)).min(self.max_delay_s)
    }

    /// Jittered delay after failure number `failure`, drawn from `rng`.
    pub fn delay_s(&self, failure: u32, rng: &mut StdRng) -> f64 {
        let nominal = self.nominal_delay_s(failure);
        if self.jitter <= 0.0 || nominal == 0.0 {
            return nominal;
        }
        let factor = rng.gen_range((1.0 - self.jitter)..(1.0 + self.jitter));
        (nominal * factor).min(self.max_delay_s)
    }

    /// Upper bound on total backoff across all allowed failures (with
    /// maximal jitter) — used by property tests and budget planning.
    pub fn total_backoff_bound_s(&self) -> f64 {
        let sum: f64 = (1..self.max_attempts)
            .map(|i| self.nominal_delay_s(i))
            .sum();
        (sum * (1.0 + self.jitter)).min(self.budget_s)
    }
}

/// What happened across the attempts of one retried operation.
#[derive(Debug, Clone)]
pub struct RetryOutcome<T, E> {
    /// `Ok` from the first successful attempt, or the error from the
    /// last attempt made.
    pub result: Result<T, E>,
    /// Attempts actually made (1..=max_attempts).
    pub attempts: u32,
    /// Total backoff charged, seconds (excludes the operations' own
    /// simulated durations — callers track those).
    pub backoff_s: f64,
    /// True when the policy stopped retrying because the backoff budget
    /// was exhausted before `max_attempts`.
    pub budget_exhausted: bool,
}

impl<T, E> RetryOutcome<T, E> {
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }

    /// Retries beyond the first attempt (what the post-mortem counts).
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Run `op` under `policy`. `op` receives the 1-based attempt number.
/// `rng` drives jitter only; pass a seeded RNG (e.g.
/// [`crate::FaultInjector::rng_for`]) for reproducible schedules.
pub fn retry_with<T, E>(
    policy: &RetryPolicy,
    rng: &mut StdRng,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> RetryOutcome<T, E> {
    let max_attempts = policy.max_attempts.max(1);
    let mut backoff_s = 0.0;
    let mut attempts = 0;
    loop {
        attempts += 1;
        match op(attempts) {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    attempts,
                    backoff_s,
                    budget_exhausted: false,
                }
            }
            Err(e) => {
                if attempts >= max_attempts {
                    return RetryOutcome {
                        result: Err(e),
                        attempts,
                        backoff_s,
                        budget_exhausted: false,
                    };
                }
                let delay = policy.delay_s(attempts, rng);
                if backoff_s + delay > policy.budget_s {
                    return RetryOutcome {
                        result: Err(e),
                        attempts,
                        backoff_s,
                        budget_exhausted: true,
                    };
                }
                backoff_s += delay;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn first_try_success_has_no_backoff() {
        let out = retry_with(&RetryPolicy::default(), &mut rng(), |_| Ok::<_, ()>(5));
        assert_eq!(out.result, Ok(5));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.backoff_s, 0.0);
        assert_eq!(out.retries(), 0);
    }

    #[test]
    fn transient_failure_recovers_with_backoff_charged() {
        let out = retry_with(&RetryPolicy::default(), &mut rng(), |attempt| {
            if attempt < 3 {
                Err("flaky")
            } else {
                Ok("served")
            }
        });
        assert_eq!(out.result, Ok("served"));
        assert_eq!(out.attempts, 3);
        // two failures: ~2s + ~4s with 10% jitter
        assert!(
            out.backoff_s > 5.0 && out.backoff_s < 7.0,
            "{}",
            out.backoff_s
        );
    }

    #[test]
    fn gives_up_at_max_attempts() {
        let mut calls = 0;
        let out = retry_with(&RetryPolicy::new(4, 1.0), &mut rng(), |_| {
            calls += 1;
            Err::<(), _>("down")
        });
        assert_eq!(out.result, Err("down"));
        assert_eq!(out.attempts, 4);
        assert_eq!(calls, 4);
        assert!(!out.budget_exhausted);
    }

    #[test]
    fn budget_stops_retries_early() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_s: 50.0,
            multiplier: 2.0,
            max_delay_s: 1000.0,
            jitter: 0.0,
            budget_s: 120.0,
        };
        let out = retry_with(&policy, &mut rng(), |_| Err::<(), _>("down"));
        // 50 + 100 would exceed 120, so exactly one backoff is charged.
        assert_eq!(out.attempts, 2);
        assert_eq!(out.backoff_s, 50.0);
        assert!(out.budget_exhausted);
    }

    #[test]
    fn nominal_delays_grow_and_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.nominal_delay_s(1), 2.0);
        assert_eq!(p.nominal_delay_s(2), 4.0);
        assert_eq!(p.nominal_delay_s(10), 30.0, "capped at max_delay_s");
    }

    #[test]
    fn zero_attempt_policy_clamped_to_one() {
        let out = retry_with(&RetryPolicy::new(0, 1.0), &mut rng(), |_| Err::<(), _>("x"));
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn same_seed_same_backoff_schedule() {
        let policy = RetryPolicy::default();
        let run = || {
            let mut r = StdRng::seed_from_u64(4242);
            retry_with(&policy, &mut r, |_| Err::<(), _>("down")).backoff_s
        };
        assert_eq!(run(), run());
    }
}
