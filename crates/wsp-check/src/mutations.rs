//! Deliberately broken machines proving the checker catches real
//! protocol bugs (mutation testing for the invariant suite).
//!
//! Each wrapper delegates to the genuine machine and sabotages one
//! transition — the kind of bug a hand-rolled implementation actually
//! grows. The tests in [`crate::checks`] assert that exploration of a
//! mutant produces a counterexample trace, so a green invariant suite
//! means the invariants are load-bearing, not vacuous.

use crate::composed::{ComposedEvent, ComposedMachine, ComposedState};
use wsp_core::machines::admission::{
    AdmissionEffect, AdmissionEvent, AdmissionMachine, AdmissionState, ShedReason,
};
use wsp_core::machines::breaker::{BreakerEvent, BreakerMachine, BreakerState};
use wsp_http::conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
use wsp_http::drain::{DrainEffect, DrainEvent, DrainMachine, DrainState};
use wsp_simnet::{GiveUp, Machine, RetryEffect, RetryEvent, RetryMachine, RetryPhase, RetryState};

/// Mutation: a successful call while the breaker is tripped does *not*
/// reset it — the classic "forgot to close on half-open success" bug.
/// The breaker stays open (with the probe slot stranded) forever.
#[derive(Debug, Clone)]
pub struct SkipHalfOpenReset(pub BreakerMachine);

impl Machine for SkipHalfOpenReset {
    type State = BreakerState;
    type Event = BreakerEvent;
    type Effect = <BreakerMachine as Machine>::Effect;

    fn initial(&self) -> BreakerState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &BreakerState,
        event: &BreakerEvent,
    ) -> (BreakerState, Vec<Self::Effect>) {
        if matches!(state, BreakerState::Tripped { .. }) && matches!(event, BreakerEvent::Success) {
            // The bug: swallow the success instead of closing.
            return (*state, vec![]);
        }
        self.0.step(state, event)
    }
}

/// The same bug injected into the composed pipeline, where it must
/// surface through two layers of composition.
#[derive(Debug, Clone)]
pub struct ComposedSkipHalfOpenReset(pub ComposedMachine);

impl Machine for ComposedSkipHalfOpenReset {
    type State = ComposedState;
    type Event = ComposedEvent;
    type Effect = <ComposedMachine as Machine>::Effect;

    fn initial(&self) -> ComposedState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &ComposedState,
        event: &ComposedEvent,
    ) -> (ComposedState, Vec<Self::Effect>) {
        if let ComposedEvent::Succeed(t) = event {
            if matches!(state.breaker, BreakerState::Tripped { .. })
                && state.running.contains_key(t)
            {
                // The bug: deliver the result and release the permit,
                // but never tell the breaker.
                let (mut next, effects) = self.0.step(state, event);
                next.breaker = state.breaker;
                let effects = effects
                    .into_iter()
                    .filter(|e| !matches!(e, crate::composed::ComposedEffect::Breaker(_)))
                    .collect();
                return (next, effects);
            }
        }
        self.0.step(state, event)
    }
}

/// Mutation: a connection rejected at the capacity cap still counts a
/// slot — the accounting leak the `ActiveGuard` pairing exists to
/// prevent. Drain can then never observe zero active connections.
#[derive(Debug, Clone)]
pub struct LeakSlotOnReject(pub DrainMachine);

impl Machine for LeakSlotOnReject {
    type State = DrainState;
    type Event = DrainEvent;
    type Effect = DrainEffect;

    fn initial(&self) -> DrainState {
        self.0.initial()
    }

    fn step(&self, state: &DrainState, event: &DrainEvent) -> (DrainState, Vec<DrainEffect>) {
        let (mut next, effects) = self.0.step(state, event);
        if effects.contains(&DrainEffect::RejectAtCapacity) {
            // The bug: the reject path forgot it never took a slot.
            next.active += 1;
        }
        (next, effects)
    }
}

/// Mutation: the fast path where a whole request frame lands in one
/// read forgets to cancel the header deadline — the stale timer then
/// 408s a request that is already executing. Exactly the bug exact
/// wheel cancellation exists to prevent.
#[derive(Debug, Clone)]
pub struct StickyHeadTimer(pub ConnMachine);

impl Machine for StickyHeadTimer {
    type State = ConnState;
    type Event = ConnEvent;
    type Effect = ConnEffect;

    fn initial(&self) -> ConnState {
        self.0.initial()
    }

    fn step(&self, state: &ConnState, event: &ConnEvent) -> (ConnState, Vec<ConnEffect>) {
        let (mut next, mut effects) = self.0.step(state, event);
        if state.phase == Phase::ReadingHead && matches!(event, ConnEvent::RequestDone) {
            // The bug: dispatch the request but leave the header
            // deadline ticking on the wheel.
            next.head_timer = true;
            effects.retain(|fx| *fx != ConnEffect::CancelTimer(TimerKind::Head));
        }
        (next, effects)
    }
}

/// Mutation: the borrow path of the fair-share admission policy checks the
/// global cap but forgets the reserve held for other tenants' unused
/// guaranteed shares. A tenant over its share can then fill the budget,
/// and a below-share tenant's unconditional admit blows the global cap.
#[derive(Debug, Clone)]
pub struct IgnoreReserve(pub AdmissionMachine);

impl Machine for IgnoreReserve {
    type State = AdmissionState;
    type Event = AdmissionEvent;
    type Effect = AdmissionEffect;

    fn initial(&self) -> AdmissionState {
        self.0.initial()
    }

    fn step(
        &self,
        state: &AdmissionState,
        event: &AdmissionEvent,
    ) -> (AdmissionState, Vec<AdmissionEffect>) {
        let (next, effects) = self.0.step(state, event);
        if let [AdmissionEffect::Shed {
            tenant,
            reason: ShedReason::FairShareReserve,
        }] = effects[..]
        {
            if state.total() < self.0.global_cap {
                // The bug: "there's room under the cap" — admit the
                // borrower without leaving the reserve intact.
                let mut next = state.clone();
                next.in_flight[tenant] += 1;
                return (next, vec![AdmissionEffect::Admitted { tenant }]);
            }
        }
        (next, effects)
    }
}

/// Mutation: the attempt budget is checked with `>` instead of `>=`, so
/// the machine spends one attempt more than it was given.
#[derive(Debug, Clone)]
pub struct OffByOneBudget(pub RetryMachine);

impl Machine for OffByOneBudget {
    type State = RetryState;
    type Event = RetryEvent;
    type Effect = RetryEffect;

    fn initial(&self) -> RetryState {
        self.0.initial()
    }

    fn step(&self, state: &RetryState, event: &RetryEvent) -> (RetryState, Vec<RetryEffect>) {
        let (next, effects) = self.0.step(state, event);
        if effects == [RetryEffect::GiveUp(GiveUp::Exhausted)]
            && state.attempt == self.0.max_attempts()
        {
            // The bug: "attempt > max" lets the last attempt resend.
            let attempt = state.attempt + 1;
            let next = RetryState {
                attempt,
                phase: RetryPhase::InFlight,
            };
            return (next, vec![RetryEffect::Send { attempt }]);
        }
        (next, effects)
    }
}

/// Mutation: the resend-safety check is missing, so a call that must
/// not run twice is resent after an attempt that may have executed —
/// a failover loop that moves on after any error.
#[derive(Debug, Clone)]
pub struct ResendAfterExecution(pub RetryMachine);

impl Machine for ResendAfterExecution {
    type State = RetryState;
    type Event = RetryEvent;
    type Effect = RetryEffect;

    fn initial(&self) -> RetryState {
        self.0.initial()
    }

    fn step(&self, state: &RetryState, event: &RetryEvent) -> (RetryState, Vec<RetryEffect>) {
        let (next, effects) = self.0.step(state, event);
        if let (RetryEvent::Failed { .. }, [RetryEffect::GiveUp(GiveUp::Unsafe)]) =
            (event, &effects[..])
        {
            // The bug: treat every failure as if it never ran.
            let mut event = *event;
            if let RetryEvent::Failed {
                may_have_executed, ..
            } = &mut event
            {
                *may_have_executed = false;
            }
            return self.0.step(state, &event);
        }
        (next, effects)
    }
}

/// Mutation: the deadline is checked against the bare backoff and only
/// then is the server's retry-after hint applied, so a hinted wait can
/// run past the deadline.
#[derive(Debug, Clone)]
pub struct HintPastDeadline(pub RetryMachine);

impl Machine for HintPastDeadline {
    type State = RetryState;
    type Event = RetryEvent;
    type Effect = RetryEffect;

    fn initial(&self) -> RetryState {
        self.0.initial()
    }

    fn step(&self, state: &RetryState, event: &RetryEvent) -> (RetryState, Vec<RetryEffect>) {
        if let RetryEvent::Failed {
            now,
            retryable,
            may_have_executed,
            retry_after: Some(hint),
        } = *event
        {
            if state.phase == RetryPhase::InFlight {
                let unhinted = RetryEvent::Failed {
                    now,
                    retryable,
                    may_have_executed,
                    retry_after: None,
                };
                let (next, effects) = self.0.step(state, &unhinted);
                if let [RetryEffect::Send { .. } | RetryEffect::Wait { .. }] = effects[..] {
                    // The bug: the deadline passed on the bare backoff;
                    // the hint now stretches the wait unchecked.
                    let backoff = self.0.backoffs[state.attempt as usize - 1];
                    let next = RetryState {
                        attempt: state.attempt,
                        phase: RetryPhase::Waiting,
                    };
                    let until = now + backoff.max(hint);
                    return (next, vec![RetryEffect::Wait { until }]);
                }
                return (next, effects);
            }
        }
        self.0.step(state, event)
    }
}
