//! Server-side admission control as a pure machine: per-tenant
//! weighted fair shares under one global cap, plus a queue-depth guard.
//!
//! Tenants (interned to dense indices by the shell) share one global
//! in-flight cap, each with a weight, and the cap is split into
//! guaranteed shares by largest-remainder apportionment. A host that
//! does not distinguish callers runs the same machine with a single
//! tenant ([`AdmissionMachine::single_tenant`]): its one share is the
//! whole cap, so the tenant checks collapse into a plain in-flight cap.
//!
//! The stored state is deliberately small — in-flight permits per
//! tenant plus the drain flag — because everything else the runtime
//! check consults (queue depth, deadline expiry, the p99 watermark
//! verdict) is *observation*, not protocol state: the shell measures it
//! and ships it inside the [`AdmissionEvent::Admit`] event. The shed
//! order is: expired deadline → draining → queue full → watermark →
//! tenant cap → global cap → fair-share reserve.
//!
//! The admit rule past the observations is:
//!
//! * a tenant below its guaranteed share is always admitted;
//! * a tenant at or above its share may borrow idle capacity, but only
//!   while `total < global_cap - reserve`, where `reserve` is the sum
//!   of every tenant's unused guaranteed share.
//!
//! The reserve term is what makes the no-starvation guarantee *local*:
//! borrowed capacity can never eat into another tenant's untaken
//! guarantee, so the inductive invariant
//!
//! ```text
//! total + Σ_t max(0, guaranteed(t) − in_flight(t)) ≤ global_cap
//! ```
//!
//! holds across every transition — and it directly implies both permit
//! conservation (`total ≤ global_cap`) and no-starvation (a tenant
//! below its share has positive slack, hence `total < global_cap`, and
//! the below-share branch admits unconditionally). `wsp-check`
//! explores a small configuration exhaustively (permit conservation,
//! no underflow, nothing admitted while draining, expired deadlines
//! shed first, every admission had every shed condition clear, work
//! can always drain) and the mutation pass condemns a borrow rule that
//! forgets the reserve.

use wsp_simnet::Machine;

/// Configuration: the caps a host enforces, in machine form. (The
/// retry-after hint and telemetry counters stay in the shell — they
/// are presentation, not protocol.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionMachine {
    /// Hard ceiling on total in-flight permits across all tenants.
    pub global_cap: u64,
    /// Relative weight per tenant (index = tenant id); guaranteed
    /// shares are apportioned `global_cap * weight / Σ weights`
    /// (largest remainder).
    pub weights: Vec<u64>,
    /// Hard per-tenant ceiling, the burst limit a single tenant can
    /// reach even when everything else is idle.
    pub tenant_cap: u64,
    /// Shed when the dispatch queue already holds this many jobs.
    /// `u64::MAX` disables the check.
    pub max_queue_depth: u64,
}

impl AdmissionMachine {
    /// One tenant (index 0) owning the whole cap: a plain in-flight
    /// cap plus the queue-depth guard.
    pub fn single_tenant(cap: u64, max_queue_depth: u64) -> Self {
        AdmissionMachine {
            global_cap: cap,
            weights: vec![1],
            tenant_cap: u64::MAX,
            max_queue_depth,
        }
    }

    /// Guaranteed share per tenant: largest-remainder apportionment of
    /// `global_cap` by weight, then every zero share is raised to 1
    /// while shares above 1 are trimmed to compensate (a tenant with a
    /// guarantee of zero could starve, which is the thing this machine
    /// exists to prevent). Shares never exceed `tenant_cap`, and their
    /// sum never exceeds `global_cap` — when there are more tenants
    /// than permits the later tenants keep a zero share (the guarantee
    /// needs `global_cap >= tenants`, which every real policy has).
    pub fn guaranteed(&self) -> Vec<u64> {
        let n = self.weights.len();
        if n == 0 {
            return Vec::new();
        }
        let total_weight = u128::from(self.weights.iter().sum::<u64>().max(1));
        let exact = |w: u64| u128::from(self.global_cap) * u128::from(w);
        let mut shares: Vec<u64> = self
            .weights
            .iter()
            .map(|&w| (exact(w) / total_weight) as u64)
            .collect();
        // Largest remainder: hand the leftover permits to the largest
        // fractional parts, index order breaking ties.
        let mut leftover = self.global_cap.saturating_sub(shares.iter().sum());
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by_key(|&i| {
            let rem = exact(self.weights[i]) % total_weight;
            (std::cmp::Reverse(rem), i)
        });
        for &i in &by_remainder {
            if leftover == 0 {
                break;
            }
            shares[i] += 1;
            leftover -= 1;
        }
        // Anti-starvation floor: raise zero shares to 1, paid for by
        // trimming the largest shares.
        for i in 0..n {
            if shares[i] == 0 {
                if let Some(donor) = (0..n).filter(|&j| shares[j] > 1).max_by_key(|&j| shares[j]) {
                    shares[donor] -= 1;
                    shares[i] = 1;
                }
            }
        }
        for s in &mut shares {
            *s = (*s).min(self.tenant_cap);
        }
        shares
    }

    /// [`Machine::step`] in place, with the apportionment supplied by
    /// the caller. `guaranteed` must equal [`Self::guaranteed`]`()` for
    /// the current weight vector — the shell caches it and recomputes
    /// only when a tenant is interned, so the per-admission work under
    /// its lock stays O(tenants) and copies nothing. Every event yields
    /// at most one effect.
    pub fn step_in_place(
        &self,
        guaranteed: &[u64],
        state: &mut AdmissionState,
        event: &AdmissionEvent,
    ) -> Option<AdmissionEffect> {
        use AdmissionEffect::*;
        match *event {
            AdmissionEvent::Admit {
                tenant,
                queue_depth,
                deadline_expired,
                over_watermark,
            } => {
                let f = state.in_flight[tenant];
                let total = state.total();
                let shed = if deadline_expired {
                    Some(ShedReason::DeadlineExpired)
                } else if state.draining {
                    Some(ShedReason::Draining)
                } else if queue_depth >= self.max_queue_depth {
                    Some(ShedReason::QueueFull)
                } else if over_watermark {
                    Some(ShedReason::OverWatermark)
                } else if f >= self.tenant_cap {
                    Some(ShedReason::TenantCap)
                } else if total >= self.global_cap {
                    // The hard ceiling outranks the guaranteed share:
                    // with a fixed population the reserve invariant
                    // makes `f < guaranteed[tenant]` imply
                    // `total < global_cap` so this branch never sheds a
                    // below-share tenant, but re-apportionment (a new
                    // tenant interned mid-flight) can shrink shares
                    // under permits granted against the old ones.
                    Some(ShedReason::GlobalCap)
                } else if f < guaranteed[tenant] {
                    // Below the guaranteed share: admit unconditionally.
                    None
                } else {
                    // Borrowing idle capacity: only what is not being
                    // held in reserve for under-share tenants.
                    let reserve: u64 = guaranteed
                        .iter()
                        .zip(&state.in_flight)
                        .map(|(&g, &used)| g.saturating_sub(used))
                        .sum();
                    (total + reserve >= self.global_cap).then_some(ShedReason::FairShareReserve)
                };
                Some(match shed {
                    Some(reason) => Shed { tenant, reason },
                    None => {
                        state.in_flight[tenant] += 1;
                        Admitted { tenant }
                    }
                })
            }
            AdmissionEvent::Release { tenant } => {
                if state.in_flight[tenant] == 0 {
                    return Some(PermitUnderflow);
                }
                state.in_flight[tenant] -= 1;
                Some(Released { tenant })
            }
            AdmissionEvent::BeginDrain => {
                state.draining = true;
                None
            }
            AdmissionEvent::EndDrain => {
                state.draining = false;
                None
            }
        }
    }
}

/// Stored state: in-flight permits per tenant, plus drain mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AdmissionState {
    /// Requests admitted and not yet released, per tenant.
    pub in_flight: Vec<u64>,
    /// Drain mode: every admission is refused while set.
    pub draining: bool,
}

impl AdmissionState {
    pub fn total(&self) -> u64 {
        self.in_flight.iter().sum()
    }
}

/// What happened in the world. Observations the shell made (queue
/// depth, deadline expiry, watermark verdict) ride inside the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionEvent {
    /// One request for `tenant` asks to be admitted.
    Admit {
        tenant: usize,
        /// Dispatch-queue depth observed by the shell.
        queue_depth: u64,
        /// The caller's propagated deadline had already expired.
        deadline_expired: bool,
        /// The sampled p99 queue-wait exceeded the policy watermark.
        over_watermark: bool,
    },
    /// An admitted request finished (permit dropped).
    Release { tenant: usize },
    /// Enter drain mode.
    BeginDrain,
    /// Leave drain mode.
    EndDrain,
}

/// Why an admission was refused, in shed-priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The caller's deadline already passed — answer fast, not at all.
    DeadlineExpired,
    /// The host is draining.
    Draining,
    /// The dispatch queue is at capacity.
    QueueFull,
    /// The sampled queue wait is above the watermark.
    OverWatermark,
    /// The tenant hit its own burst ceiling.
    TenantCap,
    /// The whole host is at the global cap.
    GlobalCap,
    /// Idle capacity exists, but it is reserved for tenants still
    /// below their guaranteed shares.
    FairShareReserve,
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionEffect {
    /// Hand the caller a permit (one of `tenant`'s slots now held).
    Admitted { tenant: usize },
    /// Refuse, with the reason (the shell attaches the retry hint and
    /// bumps the matching counters).
    Shed { tenant: usize, reason: ShedReason },
    /// A permit was returned.
    Released { tenant: usize },
    /// A release arrived for a tenant with nothing in flight — a
    /// protocol violation surfaced as an effect so the model checker
    /// can catch it (the runtime's RAII permits make it unreachable;
    /// the state saturates rather than wrapping).
    PermitUnderflow,
}

impl Machine for AdmissionMachine {
    type State = AdmissionState;
    type Event = AdmissionEvent;
    type Effect = AdmissionEffect;

    fn initial(&self) -> AdmissionState {
        AdmissionState {
            in_flight: vec![0; self.weights.len()],
            draining: false,
        }
    }

    fn step(
        &self,
        state: &AdmissionState,
        event: &AdmissionEvent,
    ) -> (AdmissionState, Vec<AdmissionEffect>) {
        let mut next = state.clone();
        let effect = self.step_in_place(&self.guaranteed(), &mut next, event);
        (next, effect.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    fn admit(tenant: usize) -> AdmissionEvent {
        AdmissionEvent::Admit {
            tenant,
            queue_depth: 0,
            deadline_expired: false,
            over_watermark: false,
        }
    }

    fn shed(tenant: usize, reason: ShedReason) -> Vec<AdmissionEffect> {
        vec![AdmissionEffect::Shed { tenant, reason }]
    }

    #[test]
    fn cap_sheds_and_release_recovers() {
        let m = AdmissionMachine::single_tenant(2, u64::MAX);
        let mut s = m.initial();
        let admitted = vec![AdmissionEffect::Admitted { tenant: 0 }];
        assert_eq!(step_mut(&m, &mut s, &admit(0)), admitted);
        assert_eq!(step_mut(&m, &mut s, &admit(0)), admitted);
        assert_eq!(
            step_mut(&m, &mut s, &admit(0)),
            shed(0, ShedReason::GlobalCap)
        );
        assert_eq!(
            step_mut(&m, &mut s, &AdmissionEvent::Release { tenant: 0 }),
            vec![AdmissionEffect::Released { tenant: 0 }]
        );
        assert_eq!(step_mut(&m, &mut s, &admit(0)), admitted);
        assert_eq!(s.in_flight, vec![2]);
    }

    #[test]
    fn shed_priority_order_is_stable() {
        // Every check armed: no queue room, no in-flight room, and the
        // one tenant already at its own ceiling.
        let m = AdmissionMachine {
            global_cap: 1,
            weights: vec![1],
            tenant_cap: 1,
            max_queue_depth: 0,
        };
        let mut s = AdmissionState {
            in_flight: vec![1],
            draining: true,
        };
        let event = |deadline_expired, over_watermark| AdmissionEvent::Admit {
            tenant: 0,
            queue_depth: 9,
            deadline_expired,
            over_watermark,
        };
        // Expired beats draining beats queue beats watermark beats the
        // tenant cap beats the global cap.
        assert_eq!(
            step_mut(&m, &mut s, &event(true, true)),
            shed(0, ShedReason::DeadlineExpired)
        );
        assert_eq!(
            step_mut(&m, &mut s, &event(false, true)),
            shed(0, ShedReason::Draining)
        );
        s.draining = false;
        assert_eq!(
            step_mut(&m, &mut s, &event(false, true)),
            shed(0, ShedReason::QueueFull)
        );
        let m = AdmissionMachine {
            max_queue_depth: u64::MAX,
            ..m
        };
        assert_eq!(
            step_mut(&m, &mut s, &event(false, true)),
            shed(0, ShedReason::OverWatermark)
        );
        assert_eq!(
            step_mut(&m, &mut s, &event(false, false)),
            shed(0, ShedReason::TenantCap)
        );
        let m = AdmissionMachine {
            tenant_cap: u64::MAX,
            ..m
        };
        assert_eq!(
            step_mut(&m, &mut s, &event(false, false)),
            shed(0, ShedReason::GlobalCap)
        );
    }

    #[test]
    fn underflow_is_an_effect_not_a_wrap() {
        let m = AdmissionMachine::single_tenant(1, u64::MAX);
        let mut s = m.initial();
        assert_eq!(
            step_mut(&m, &mut s, &AdmissionEvent::Release { tenant: 0 }),
            vec![AdmissionEffect::PermitUnderflow]
        );
        assert_eq!(s.in_flight, vec![0], "state saturates");
    }

    #[test]
    fn drain_refuses_then_end_drain_readmits() {
        let m = AdmissionMachine::single_tenant(8, u64::MAX);
        let mut s = m.initial();
        step_mut(&m, &mut s, &admit(0));
        step_mut(&m, &mut s, &AdmissionEvent::BeginDrain);
        assert_eq!(
            step_mut(&m, &mut s, &admit(0)),
            shed(0, ShedReason::Draining)
        );
        assert_eq!(s.in_flight, vec![1], "in-flight work unaffected by drain");
        step_mut(&m, &mut s, &AdmissionEvent::EndDrain);
        assert_eq!(
            step_mut(&m, &mut s, &admit(0)),
            vec![AdmissionEffect::Admitted { tenant: 0 }]
        );
    }
}
