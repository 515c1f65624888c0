//! One retry machine for every call that may be resent, and its
//! simulator shell.
//!
//! [`RetryMachine`] owns every decision a retrying caller makes: the
//! attempt budget, the backoff before each resend, the call deadline,
//! whether a failure is worth retrying at all, and whether a resend is
//! safe once the failed attempt may already have run. The shells keep
//! only what really differs between callers: how the next target is
//! picked and how the wait is spent. The wall-clock shell sleeps
//! (`wsp_core::resilience::run_retrying`); the simulator shell below
//! ([`RetryCalls`]) arms virtual-time timers.
//!
//! Ticks are microseconds, the unit of [`crate::Dur`]; the wall-clock
//! shell counts them from the call's start. The machine is total: an
//! event that does not apply to the current phase (a stale failure
//! while waiting, a wake-up while an attempt is out, anything after
//! the end) yields no effect, so `wsp-check` can fire every event in
//! every state.

use crate::machine::Machine;
use crate::node::{Context, Payload, TimerId};
use crate::time::Dur;
use std::collections::HashMap;

/// Configuration of one call's retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryMachine {
    /// `backoffs[i]` is the wait, in ticks, before attempt `i + 2`; the
    /// attempt budget is `1 + backoffs.len()`.
    pub backoffs: Vec<u64>,
    /// The whole call must end before this tick; `None` is unbounded.
    pub deadline: Option<u64>,
    /// A resend is safe even when the failed attempt may have executed.
    pub idempotent: bool,
}

/// Where a call stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryPhase {
    /// Attempt `attempt` is out.
    InFlight,
    /// Attempt `attempt` failed; the next one waits for a wake-up.
    Waiting,
    /// Delivered or given up.
    Done,
}

/// The machine's state: the current attempt (1-based) and its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryState {
    pub attempt: u32,
    pub phase: RetryPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryEvent {
    /// The attempt failed at tick `now`. `retryable` is the caller's
    /// classification of the error; `may_have_executed` says the
    /// request may have reached the handler (anything but a refused
    /// connection or a provable pre-execution rejection); `retry_after`
    /// is a server's backoff hint in ticks.
    Failed {
        now: u64,
        retryable: bool,
        may_have_executed: bool,
        retry_after: Option<u64>,
    },
    /// An attempt answered.
    Succeeded,
    /// The wait armed by [`RetryEffect::Wait`] ended at tick `now`.
    Woke { now: u64 },
}

/// Why a call stopped without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GiveUp {
    /// The failure is not worth retrying.
    Permanent,
    /// Every attempt in the budget failed.
    Exhausted,
    /// The call is not idempotent and the failed attempt may have run.
    Unsafe,
    /// The next attempt could not start before the deadline.
    Deadline,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryEffect {
    /// Send attempt `attempt` now.
    Send { attempt: u32 },
    /// Wait until tick `until`, then report [`RetryEvent::Woke`].
    Wait { until: u64 },
    /// Hand the answer to the caller.
    Deliver,
    /// Stop and report the last failure.
    GiveUp(GiveUp),
}

impl RetryMachine {
    /// `retries` resends, each after the same `backoff` ticks; no
    /// deadline, resends always safe.
    pub fn fixed(backoff: u64, retries: usize) -> Self {
        RetryMachine {
            backoffs: vec![backoff; retries],
            deadline: None,
            idempotent: true,
        }
    }

    pub fn max_attempts(&self) -> u32 {
        1 + self.backoffs.len() as u32
    }

    /// [`Machine::step`] in place: at most one effect per event, and
    /// the new phase follows from the effect.
    pub fn advance(&self, state: &mut RetryState, event: &RetryEvent) -> Option<RetryEffect> {
        use RetryEvent::*;
        let effect = match (state.phase, *event) {
            (RetryPhase::Done, _) | (RetryPhase::InFlight, Woke { .. }) => return None,
            // A late answer to an earlier attempt is as good as one to
            // the current attempt.
            (_, Succeeded) => RetryEffect::Deliver,
            // A stale failure of an earlier attempt: the wait already
            // answers for it, unless it reveals that a call that must
            // not run twice may have executed.
            (
                RetryPhase::Waiting,
                Failed {
                    may_have_executed, ..
                },
            ) => {
                if !may_have_executed || self.idempotent {
                    return None;
                }
                RetryEffect::GiveUp(GiveUp::Unsafe)
            }
            (RetryPhase::Waiting, Woke { now }) => self.resend(state.attempt, now, 0),
            (
                RetryPhase::InFlight,
                Failed {
                    now,
                    retryable,
                    may_have_executed,
                    retry_after,
                },
            ) => {
                if !retryable {
                    RetryEffect::GiveUp(GiveUp::Permanent)
                } else if may_have_executed && !self.idempotent {
                    RetryEffect::GiveUp(GiveUp::Unsafe)
                } else if state.attempt >= self.max_attempts() {
                    RetryEffect::GiveUp(GiveUp::Exhausted)
                } else {
                    let backoff = self.backoffs[state.attempt as usize - 1];
                    self.resend(state.attempt, now, backoff.max(retry_after.unwrap_or(0)))
                }
            }
        };
        state.phase = match effect {
            RetryEffect::Send { attempt } => {
                state.attempt = attempt;
                RetryPhase::InFlight
            }
            RetryEffect::Wait { .. } => RetryPhase::Waiting,
            RetryEffect::Deliver | RetryEffect::GiveUp(_) => RetryPhase::Done,
        };
        Some(effect)
    }

    /// The next attempt after `attempt`, `delay` ticks from `now`: a
    /// zero delay resends at once, and nothing may start at or past the
    /// deadline.
    fn resend(&self, attempt: u32, now: u64, delay: u64) -> RetryEffect {
        let until = now.saturating_add(delay);
        if self.deadline.is_some_and(|deadline| until >= deadline) {
            RetryEffect::GiveUp(GiveUp::Deadline)
        } else if delay == 0 {
            RetryEffect::Send {
                attempt: attempt + 1,
            }
        } else {
            RetryEffect::Wait { until }
        }
    }
}

impl Machine for RetryMachine {
    type State = RetryState;
    type Event = RetryEvent;
    type Effect = RetryEffect;

    /// Attempt 1 is out as soon as the call starts.
    fn initial(&self) -> RetryState {
        RetryState {
            attempt: 1,
            phase: RetryPhase::InFlight,
        }
    }

    fn step(&self, state: &RetryState, event: &RetryEvent) -> (RetryState, Vec<RetryEffect>) {
        let mut next = *state;
        let effect = self.advance(&mut next, event);
        (next, effect.into_iter().collect())
    }
}

// --- simulator shell ----------------------------------------------------------

/// Timer-tag namespace for attempt timeouts of [`RetryCalls`].
/// Behaviours embedding a table route timers whose top nibble is one of
/// the two namespaces to [`RetryCalls::on_timer`] and keep their own
/// tags elsewhere.
pub const RETRY_TIMEOUT_TAG: u64 = 0xC000_0000_0000_0000;
/// Timer-tag namespace for backed-off resends.
pub const RETRY_RESEND_TAG: u64 = 0xD000_0000_0000_0000;

const TAG_PHASE_MASK: u64 = 0xF000_0000_0000_0000;

/// A simulated call: each attempt gets `attempt_timeout` of virtual
/// time, and the machine decides the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRetry {
    pub attempt_timeout: Dur,
    pub machine: RetryMachine,
}

impl SimRetry {
    /// Single attempt: a timeout ends the call.
    pub fn once(attempt_timeout: Dur) -> Self {
        SimRetry::fixed(attempt_timeout, Dur::ZERO, 0)
    }

    /// `retries` extra attempts, each preceded by the same `backoff`.
    pub fn fixed(attempt_timeout: Dur, backoff: Dur, retries: usize) -> Self {
        SimRetry {
            attempt_timeout,
            machine: RetryMachine::fixed(backoff.as_micros(), retries),
        }
    }
}

/// How a call in a [`RetryCalls`] table ended.
#[derive(Debug)]
pub struct CallEnd<C> {
    pub call: u64,
    pub attempts: u32,
    /// `None` when delivered, else why the machine gave up.
    pub gave_up: Option<GiveUp>,
    /// The caller's per-call data, handed back for clean-up.
    pub data: C,
}

#[derive(Debug)]
struct SimCall<C> {
    retry: SimRetry,
    state: RetryState,
    /// The attempt timeout while in flight, the resend timer while
    /// waiting.
    timer: Option<TimerId>,
    data: C,
}

impl<C> SimCall<C> {
    /// Put one attempt on the wire and arm its timeout.
    fn send<M: Payload>(
        &mut self,
        ctx: &mut Context<'_, M>,
        call: u64,
        send: impl FnOnce(&mut Context<'_, M>, u64, &mut C),
    ) {
        send(ctx, call, &mut self.data);
        self.timer = Some(ctx.set_timer(self.retry.attempt_timeout, RETRY_TIMEOUT_TAG | call));
    }
}

/// The simulator shell of [`RetryMachine`]: one entry per live call
/// holding its machine state, its pending timer and the caller's data
/// `C`. The caller supplies `send`, which puts one attempt on the wire;
/// the table arms the attempt timeout right after it, turns timer
/// firings into machine events, carries out every effect and hands
/// each finished call back as a [`CallEnd`], its timer cancelled.
#[derive(Debug)]
pub struct RetryCalls<C> {
    calls: HashMap<u64, SimCall<C>>,
    next_call: u64,
}

impl<C> Default for RetryCalls<C> {
    fn default() -> Self {
        RetryCalls {
            calls: HashMap::new(),
            next_call: 0,
        }
    }
}

impl<C> RetryCalls<C> {
    /// No call is live.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Is `tag` the attempt timeout of a live call?
    pub fn is_attempt_timeout(&self, tag: u64) -> bool {
        tag & TAG_PHASE_MASK == RETRY_TIMEOUT_TAG
            && self.calls.contains_key(&(tag & !TAG_PHASE_MASK))
    }

    /// Start a call: sends attempt 1 now and arms its timeout.
    pub fn begin<M: Payload>(
        &mut self,
        ctx: &mut Context<'_, M>,
        retry: SimRetry,
        data: C,
        send: impl FnOnce(&mut Context<'_, M>, u64, &mut C),
    ) -> u64 {
        let call = self.next_call;
        self.next_call += 1;
        let state = retry.machine.initial();
        let entry = SimCall {
            retry,
            state,
            timer: None,
            data,
        };
        self.calls
            .entry(call)
            .or_insert(entry)
            .send(ctx, call, send);
        call
    }

    /// Feed `event` to `call`'s machine and carry out the effect;
    /// `send` runs if it resends. Returns the call's end, if this was
    /// it.
    pub fn step<M: Payload>(
        &mut self,
        ctx: &mut Context<'_, M>,
        call: u64,
        event: RetryEvent,
        send: impl FnOnce(&mut Context<'_, M>, u64, &mut C),
    ) -> Option<CallEnd<C>> {
        let entry = self.calls.get_mut(&call)?;
        let effect = entry.retry.machine.advance(&mut entry.state, &event)?;
        if let Some(timer) = entry.timer.take() {
            ctx.cancel_timer(timer);
        }
        let gave_up = match effect {
            RetryEffect::Send { .. } => {
                entry.send(ctx, call, send);
                return None;
            }
            RetryEffect::Wait { until } => {
                let delay = Dur(until.saturating_sub(ctx.now().as_micros()));
                entry.timer = Some(ctx.set_timer(delay, RETRY_RESEND_TAG | call));
                return None;
            }
            RetryEffect::Deliver => None,
            RetryEffect::GiveUp(reason) => Some(reason),
        };
        let entry = self.calls.remove(&call).expect("live call");
        Some(CallEnd {
            call,
            attempts: entry.state.attempt,
            gave_up,
            data: entry.data,
        })
    }

    /// Feed a fired timer through: a timeout fails the attempt (it may
    /// have executed), a resend timer wakes the machine. `None` for
    /// foreign tags and for progress short of the end.
    pub fn on_timer<M: Payload>(
        &mut self,
        ctx: &mut Context<'_, M>,
        tag: u64,
        send: impl FnOnce(&mut Context<'_, M>, u64, &mut C),
    ) -> Option<CallEnd<C>> {
        let call = tag & !TAG_PHASE_MASK;
        let now = ctx.now().as_micros();
        let event = match tag & TAG_PHASE_MASK {
            RETRY_TIMEOUT_TAG => RetryEvent::Failed {
                now,
                retryable: true,
                may_have_executed: true,
                retry_after: None,
            },
            RETRY_RESEND_TAG => RetryEvent::Woke { now },
            _ => return None,
        };
        // The timer has fired; forget it so the step does not cancel it.
        self.calls.get_mut(&call)?.timer = None;
        self.step(ctx, call, event, send)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::step_mut;

    fn failed(now: u64) -> RetryEvent {
        RetryEvent::Failed {
            now,
            retryable: true,
            may_have_executed: true,
            retry_after: None,
        }
    }

    #[test]
    fn a_first_attempt_success_delivers() {
        let m = RetryMachine::fixed(0, 0);
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &RetryEvent::Succeeded),
            Some(RetryEffect::Deliver)
        );
        assert_eq!(s.phase, RetryPhase::Done);
        assert_eq!(
            m.advance(&mut s, &RetryEvent::Succeeded),
            None,
            "done is final"
        );
    }

    #[test]
    fn backoffs_wait_and_zero_backoffs_resend_at_once() {
        let m = RetryMachine::fixed(5, 1);
        let mut s = m.initial();
        assert_eq!(
            step_mut(&m, &mut s, &failed(10)),
            vec![RetryEffect::Wait { until: 15 }]
        );
        assert_eq!(
            step_mut(&m, &mut s, &RetryEvent::Woke { now: 15 }),
            vec![RetryEffect::Send { attempt: 2 }]
        );
        assert_eq!(
            step_mut(&m, &mut s, &failed(20)),
            vec![RetryEffect::GiveUp(GiveUp::Exhausted)]
        );
        let m = RetryMachine::fixed(0, 2);
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::Send { attempt: 2 })
        );
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::Send { attempt: 3 })
        );
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::GiveUp(GiveUp::Exhausted))
        );
    }

    #[test]
    fn hint_floors_the_backoff_and_the_deadline_caps_the_wait() {
        let mut m = RetryMachine::fixed(2, 3);
        m.deadline = Some(20);
        let hinted = |now, hint| RetryEvent::Failed {
            now,
            retryable: true,
            may_have_executed: false,
            retry_after: Some(hint),
        };
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &hinted(0, 9)),
            Some(RetryEffect::Wait { until: 9 })
        );
        assert_eq!(
            m.advance(&mut s, &RetryEvent::Woke { now: 9 }),
            Some(RetryEffect::Send { attempt: 2 })
        );
        assert_eq!(
            m.advance(&mut s, &hinted(10, 10)),
            Some(RetryEffect::GiveUp(GiveUp::Deadline)),
            "a wait ending at the deadline is no wait at all"
        );
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::Wait { until: 2 })
        );
        assert_eq!(
            m.advance(&mut s, &RetryEvent::Woke { now: 20 }),
            Some(RetryEffect::GiveUp(GiveUp::Deadline)),
            "an overslept wake-up does not resend past the deadline"
        );
    }

    #[test]
    fn permanent_and_unsafe_failures_stop_at_once() {
        let mut m = RetryMachine::fixed(0, 3);
        let mut s = m.initial();
        let permanent = RetryEvent::Failed {
            now: 0,
            retryable: false,
            may_have_executed: false,
            retry_after: None,
        };
        assert_eq!(
            m.advance(&mut s, &permanent),
            Some(RetryEffect::GiveUp(GiveUp::Permanent))
        );
        m.idempotent = false;
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::GiveUp(GiveUp::Unsafe))
        );
        let refused = RetryEvent::Failed {
            now: 0,
            retryable: true,
            may_have_executed: false,
            retry_after: None,
        };
        let mut s = m.initial();
        assert_eq!(
            m.advance(&mut s, &refused),
            Some(RetryEffect::Send { attempt: 2 }),
            "a request that never ran may go to another target"
        );
    }

    #[test]
    fn stale_events_are_ignored() {
        let m = RetryMachine::fixed(5, 2);
        let mut s = m.initial();
        assert_eq!(m.advance(&mut s, &RetryEvent::Woke { now: 0 }), None);
        assert_eq!(
            m.advance(&mut s, &failed(0)),
            Some(RetryEffect::Wait { until: 5 })
        );
        assert_eq!(
            m.advance(&mut s, &failed(1)),
            None,
            "the wait answers for it"
        );
        assert_eq!(
            m.advance(&mut s, &RetryEvent::Succeeded),
            Some(RetryEffect::Deliver),
            "a late answer still delivers"
        );
    }
}
