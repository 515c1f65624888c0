//! Per-call resilience policies: deadlines, retries, backoff.
//!
//! The paper's scalability argument (Section II) rests on interacting
//! with "unreliable" peers exhibiting "highly transient connectivity".
//! A [`ResiliencePolicy`] makes that survivable: it bounds how long one
//! logical call may take (deadline), how many transport attempts it may
//! spend (max attempts), and how attempts are spaced (jittered
//! exponential backoff). The [`crate::Client`] consults the policy on
//! every retryable failure, and the per-endpoint circuit breakers in
//! [`crate::health`] decide which endpoints are worth an attempt at
//! all.
//!
//! The backoff schedule is defined *pre-jitter* and is the part with
//! hard invariants (property-tested in `tests/prop_backoff.rs`):
//! delays are monotone non-decreasing, each respects the cap, and the
//! schedule is truncated so the summed delays never exceed the
//! deadline. Jitter only ever shortens a delay (full-jitter-down), so
//! the invariants survive it.
//!
//! A policy does not run a loop of its own: [`ResiliencePolicy::retry_machine`]
//! turns it into the configuration of one call's [`RetryMachine`], and
//! [`run_retrying`] — the machine's one wall-clock shell — drives every
//! retrying caller in the stack (client invocations, registry calls,
//! the gateway's backend failover, the sharded registry's writes).

use crate::error::WspError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
pub use wsp_simnet::{GiveUp, RetryEffect, RetryMachine};
use wsp_simnet::{Machine, RetryEvent};

/// How a [`WspError`] is classified for retry purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Transport-level or timing failures that a retry (possibly against
    /// another endpoint) can plausibly fix.
    Transient,
    /// Definitive answers — semantic faults, validation errors,
    /// cancellation — that retrying would only repeat.
    Permanent,
}

impl WspError {
    /// Retry classification of this error. Transient: transport
    /// failures, timeouts, discovery failures, dispatch-core rejection
    /// and open circuits (another endpoint may still answer).
    /// Permanent: SOAP faults, validation errors (`Invoke`), missing
    /// operations/bindings, cancellation, deploy/publish failures.
    pub fn retry_class(&self) -> RetryClass {
        match self {
            WspError::Transport(_)
            | WspError::Timeout { .. }
            | WspError::Locate(_)
            | WspError::Dispatch(_)
            | WspError::Overloaded { .. }
            | WspError::CircuitOpen { .. } => RetryClass::Transient,
            WspError::Invoke(_)
            | WspError::Fault(_)
            | WspError::Deploy(_)
            | WspError::Publish(_)
            | WspError::NoBindingFor { .. }
            | WspError::Cancelled { .. }
            | WspError::NoSuchOperation { .. } => RetryClass::Permanent,
        }
    }

    /// Whether this error should trip/count against an endpoint's
    /// circuit breaker. Only failures that say something about the
    /// *endpoint* count — an open circuit (our own rejection) or a
    /// missing local binding does not. An [`WspError::Overloaded`]
    /// shed does not either: the endpoint answered promptly and is
    /// alive, just busy — tripping the breaker would turn a polite
    /// load-shed into a blackout of a healthy peer.
    pub fn counts_against_endpoint(&self) -> bool {
        matches!(self, WspError::Transport(_) | WspError::Timeout { .. })
    }
}

/// A per-call resilience policy.
///
/// The default policy is a single attempt with no deadline — exactly
/// the pre-resilience behaviour, so plain [`crate::Client::invoke`]
/// semantics are unchanged until a policy is installed.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Wall-clock budget for the whole call, all attempts and backoffs
    /// included. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Maximum transport attempts (≥ 1).
    pub max_attempts: u32,
    /// Pre-jitter delay before the second attempt.
    pub base_backoff: Duration,
    /// Growth factor per further attempt (≥ 1).
    pub multiplier: f64,
    /// Upper bound on any single pre-jitter delay.
    pub max_backoff: Duration,
    /// Fraction of each delay randomised away, in `[0, 1]`: the actual
    /// sleep is uniform in `[(1 − jitter) · d, d]`. Jitter only
    /// shortens, so deadline maths done pre-jitter stay valid.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream (combined with the call
    /// token, so concurrent calls de-correlate but a rerun reproduces).
    pub jitter_seed: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::none()
    }
}

impl ResiliencePolicy {
    /// Single attempt, no deadline, no backoff — the legacy behaviour.
    pub fn none() -> Self {
        ResiliencePolicy {
            deadline: None,
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            multiplier: 2.0,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// A sensible retrying policy: `max_attempts` attempts, 50 ms base
    /// backoff doubling up to 1 s, 20% jitter, no deadline.
    pub fn retrying(max_attempts: u32) -> Self {
        ResiliencePolicy {
            deadline: None,
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            jitter_seed: 0,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_backoff(mut self, base: Duration, multiplier: f64, cap: Duration) -> Self {
        self.base_backoff = base;
        self.multiplier = multiplier.max(1.0);
        self.max_backoff = cap;
        self
    }

    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Does the policy ever retry?
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Should a failed attempt with `error` be retried (attempt budget
    /// permitting)?
    pub fn is_retryable(&self, error: &WspError) -> bool {
        error.retry_class() == RetryClass::Transient
    }

    /// The pre-jitter delay before attempt `attempt` (1-based; the
    /// first retry is attempt 2), before deadline truncation. `None`
    /// for attempt 1 or attempts beyond the budget.
    pub fn backoff_before(&self, attempt: u32) -> Option<Duration> {
        if attempt < 2 || attempt > self.max_attempts {
            return None;
        }
        let exp = (attempt - 2) as i32;
        let factor = self.multiplier.max(1.0).powi(exp);
        let raw = self.base_backoff.as_secs_f64() * factor;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        Some(Duration::from_secs_f64(capped.max(0.0)))
    }

    /// The full pre-jitter backoff schedule: one delay per retry
    /// (attempts 2 ..= `max_attempts`), truncated so the cumulative
    /// delay never exceeds the deadline. These are the delays the
    /// property tests pin down.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut delays = Vec::new();
        let mut total = Duration::ZERO;
        for attempt in 2..=self.max_attempts {
            let Some(delay) = self.backoff_before(attempt) else {
                break;
            };
            if let Some(deadline) = self.deadline {
                if total + delay > deadline {
                    break;
                }
            }
            total += delay;
            delays.push(delay);
        }
        delays
    }

    /// Apply jitter to a pre-jitter delay: uniform in
    /// `[(1 − jitter) · delay, delay]`. Never lengthens.
    pub fn jittered<R: Rng>(&self, delay: Duration, rng: &mut R) -> Duration {
        if self.jitter <= 0.0 || delay.is_zero() {
            return delay;
        }
        let keep = 1.0 - self.jitter.clamp(0.0, 1.0) * rng.random::<f64>();
        Duration::from_secs_f64(delay.as_secs_f64() * keep)
    }

    /// The [`RetryMachine`] for one call under this policy: the
    /// jittered backoff before each attempt `2..=max_attempts`, drawn
    /// in attempt order from the jitter stream seeded by
    /// `jitter_seed ^ stream` (the client passes the call token), and
    /// the deadline in ticks. A single-attempt policy draws nothing and
    /// allocates nothing.
    pub fn retry_machine(&self, idempotent: bool, stream: u64) -> RetryMachine {
        let backoffs = if self.retries_enabled() {
            let mut rng = StdRng::seed_from_u64(self.jitter_seed ^ stream);
            (2..=self.max_attempts)
                .map(|attempt| {
                    let delay = self.backoff_before(attempt).unwrap_or_default();
                    ticks(self.jittered(delay, &mut rng))
                })
                .collect()
        } else {
            Vec::new()
        };
        RetryMachine {
            backoffs,
            deadline: self.deadline.map(ticks),
            idempotent,
        }
    }
}

/// Machine ticks (microseconds) in a wall-clock span.
fn ticks(span: Duration) -> u64 {
    u64::try_from(span.as_micros()).unwrap_or(u64::MAX)
}

/// One failed attempt, classified for the [`RetryMachine`].
#[derive(Debug)]
pub struct Failure<E> {
    pub error: E,
    /// Another attempt could plausibly succeed.
    pub retryable: bool,
    /// The request may have reached the handler (anything but a
    /// refused connection).
    pub may_have_executed: bool,
    /// The server's backoff hint.
    pub retry_after: Option<Duration>,
}

impl<E> Failure<E> {
    /// A failure without a backoff hint.
    pub fn new(error: E, retryable: bool, may_have_executed: bool) -> Self {
        Failure {
            error,
            retryable,
            may_have_executed,
            retry_after: None,
        }
    }
}

/// The wall-clock shell of [`RetryMachine`]: run `attempt` (given the
/// 1-based attempt number) until it succeeds or the machine gives up —
/// then the last error and the reason come back — sleeping through
/// every [`RetryEffect::Wait`]. Ticks count from `started`, which is
/// also where the machine's deadline is measured from. `observe` sees
/// every effect with the number of attempts made so far, and the
/// failed attempt's error when the effect answers a failure — callers
/// hang their failover pick and their telemetry there.
pub fn run_retrying<T, E>(
    machine: &RetryMachine,
    started: Instant,
    mut attempt: impl FnMut(u32) -> Result<T, Failure<E>>,
    mut observe: impl FnMut(u32, RetryEffect, Option<&E>),
) -> Result<T, (E, GiveUp)> {
    let mut state = machine.initial();
    loop {
        let made = state.attempt;
        let failure = match attempt(made) {
            Ok(value) => {
                if let Some(effect) = machine.advance(&mut state, &RetryEvent::Succeeded) {
                    observe(made, effect, None);
                }
                return Ok(value);
            }
            Err(failure) => failure,
        };
        let failed = RetryEvent::Failed {
            now: ticks(started.elapsed()),
            retryable: failure.retryable,
            may_have_executed: failure.may_have_executed,
            retry_after: failure.retry_after.map(ticks),
        };
        let mut effect = machine
            .advance(&mut state, &failed)
            .expect("a failure while an attempt is out always has an effect");
        observe(made, effect, Some(&failure.error));
        if let RetryEffect::Wait { until } = effect {
            let wake = started + Duration::from_micros(until);
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            let woke = RetryEvent::Woke {
                now: ticks(started.elapsed()),
            };
            effect = machine
                .advance(&mut state, &woke)
                .expect("a wake-up while waiting always has an effect");
            observe(made, effect, None);
        }
        if let RetryEffect::GiveUp(reason) = effect {
            return Err((failure.error, reason));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_policy_is_single_attempt() {
        let p = ResiliencePolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.retries_enabled());
        assert!(p.schedule().is_empty());
        assert_eq!(p.backoff_before(1), None);
        assert_eq!(p.backoff_before(2), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = ResiliencePolicy::retrying(6).with_backoff(
            Duration::from_millis(100),
            2.0,
            Duration::from_millis(450),
        );
        let schedule = p.schedule();
        assert_eq!(
            schedule,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400),
                Duration::from_millis(450),
                Duration::from_millis(450),
            ]
        );
    }

    #[test]
    fn deadline_truncates_schedule() {
        let p = ResiliencePolicy::retrying(10)
            .with_backoff(Duration::from_millis(100), 1.0, Duration::from_secs(1))
            .with_deadline(Duration::from_millis(250));
        // 100 + 100 fits in 250ms; a third 100 would exceed it.
        assert_eq!(p.schedule().len(), 2);
    }

    #[test]
    fn jitter_only_shortens() {
        let p = ResiliencePolicy::retrying(3).with_jitter(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let delay = Duration::from_millis(100);
        for _ in 0..100 {
            let j = p.jittered(delay, &mut rng);
            assert!(j <= delay);
            assert!(j >= Duration::from_millis(50));
        }
    }

    #[test]
    fn classification_separates_transient_from_permanent() {
        assert_eq!(
            WspError::Transport("conn refused".into()).retry_class(),
            RetryClass::Transient
        );
        assert_eq!(
            WspError::Timeout {
                what: "invoke",
                millis: 5
            }
            .retry_class(),
            RetryClass::Transient
        );
        assert_eq!(
            WspError::CircuitOpen {
                endpoint: "http://x".into()
            }
            .retry_class(),
            RetryClass::Transient
        );
        assert_eq!(
            WspError::Invoke("bad arg".into()).retry_class(),
            RetryClass::Permanent
        );
        assert_eq!(
            WspError::NoSuchOperation {
                service: "S".into(),
                operation: "op".into()
            }
            .retry_class(),
            RetryClass::Permanent
        );
        assert_eq!(
            WspError::Cancelled { token: 1 }.retry_class(),
            RetryClass::Permanent
        );
        assert_eq!(
            WspError::Overloaded {
                retry_after_ms: Some(100)
            }
            .retry_class(),
            RetryClass::Transient,
            "a shed request is worth retrying — after the hinted backoff"
        );
    }

    #[test]
    fn breaker_accounting_only_counts_endpoint_failures() {
        assert!(WspError::Transport("x".into()).counts_against_endpoint());
        assert!(WspError::Timeout {
            what: "t",
            millis: 1
        }
        .counts_against_endpoint());
        assert!(!WspError::CircuitOpen {
            endpoint: "e".into()
        }
        .counts_against_endpoint());
        assert!(!WspError::Invoke("x".into()).counts_against_endpoint());
        assert!(
            !WspError::Overloaded {
                retry_after_ms: None
            }
            .counts_against_endpoint(),
            "a shed means the endpoint is alive — it must not trip the breaker"
        );
    }
}
