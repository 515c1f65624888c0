//! Pure protocol state machines (see [`wsp_simnet::machine`]).
//!
//! Each submodule is the *entire* protocol logic of one runtime
//! component, expressed as a [`wsp_simnet::Machine`]: a pure
//! `step(&state, &event) -> (state, effects)` with no wall-clock, no
//! locks, no I/O. The runtime shells — [`crate::health`] for the
//! breaker, [`crate::overload`] for admission, [`crate::dispatch`] for
//! the correlation table — feed events in and execute effects out;
//! they hold no protocol decisions of their own. The `wsp-check` crate
//! exhaustively explores small configurations of these machines (and
//! compositions of them) for invariant violations.
//!
//! Time never enters a machine through a clock: events that depend on
//! elapsed time carry an explicit `now` in **logical ticks** (the
//! shell converts `Instant`s relative to a private epoch; the model
//! checker uses small integers).

pub mod admission;
pub mod breaker;
pub mod correlation;

/// The cases of [`admission`] with more than one tenant: share
/// apportionment, the fair-share reserve, the tenant cap and drain
/// across tenants. The one-tenant cases sit beside the machine.
#[cfg(test)]
mod keyed_admission {
    mod tests {
        use crate::machines::admission::*;
        use wsp_simnet::{step_mut, Machine};

        fn admit(tenant: usize) -> AdmissionEvent {
            AdmissionEvent::Admit {
                tenant,
                queue_depth: 0,
                deadline_expired: false,
                over_watermark: false,
            }
        }

        fn machine(cap: u64, weights: &[u64], tenant_cap: u64) -> AdmissionMachine {
            AdmissionMachine {
                global_cap: cap,
                weights: weights.to_vec(),
                tenant_cap,
                max_queue_depth: u64::MAX,
            }
        }

        fn shed(tenant: usize, reason: ShedReason) -> Vec<AdmissionEffect> {
            vec![AdmissionEffect::Shed { tenant, reason }]
        }

        #[test]
        fn shares_apportion_by_weight_and_sum_to_cap() {
            let m = machine(8, &[3, 1], 8);
            assert_eq!(m.guaranteed(), vec![6, 2]);
            let m = machine(4, &[2, 1], 4);
            // floor gives [2,1]; remainder 1 goes to the larger fraction.
            let g = m.guaranteed();
            assert_eq!(g.iter().sum::<u64>(), 4);
            assert!(g[0] >= g[1]);
        }

        #[test]
        fn zero_floor_shares_are_raised_to_one() {
            let m = machine(4, &[1, 1, 1, 100], 4);
            let g = m.guaranteed();
            assert!(g.iter().all(|&s| s >= 1), "{g:?}");
            assert!(g.iter().sum::<u64>() <= 4);
        }

        #[test]
        fn a_greedy_tenant_cannot_take_the_reserve() {
            let m = machine(4, &[1, 1], 3);
            let g = m.guaranteed();
            assert_eq!(g, vec![2, 2]);
            let mut s = m.initial();
            // Tenant 0 takes its share of 2, then asks for a third: the
            // third permit would eat tenant 1's untouched reserve.
            assert!(matches!(
                step_mut(&m, &mut s, &admit(0))[0],
                AdmissionEffect::Admitted { tenant: 0 }
            ));
            assert!(matches!(
                step_mut(&m, &mut s, &admit(0))[0],
                AdmissionEffect::Admitted { tenant: 0 }
            ));
            assert_eq!(
                step_mut(&m, &mut s, &admit(0)),
                shed(0, ShedReason::FairShareReserve)
            );
            // Tenant 1's guarantee is intact.
            assert!(matches!(
                step_mut(&m, &mut s, &admit(1))[0],
                AdmissionEffect::Admitted { tenant: 1 }
            ));
        }

        #[test]
        fn borrowing_is_allowed_once_the_owner_uses_its_share() {
            let m = machine(6, &[1, 1], 6);
            let mut s = m.initial();
            // Tenant 1 takes one of its three guaranteed permits; the
            // reserve is now 2, so the total may reach 6 - 2 = 4 and
            // tenant 0 may borrow up to three permits.
            step_mut(&m, &mut s, &admit(1));
            for _ in 0..3 {
                assert!(matches!(
                    step_mut(&m, &mut s, &admit(0))[0],
                    AdmissionEffect::Admitted { tenant: 0 }
                ));
            }
            assert_eq!(
                step_mut(&m, &mut s, &admit(0)),
                shed(0, ShedReason::FairShareReserve)
            );
            assert_eq!(s.total(), 4);
        }

        #[test]
        fn tenant_cap_binds_before_borrowing() {
            let m = machine(8, &[1, 1], 2);
            let mut s = m.initial();
            step_mut(&m, &mut s, &admit(0));
            step_mut(&m, &mut s, &admit(0));
            assert_eq!(
                step_mut(&m, &mut s, &admit(0)),
                shed(0, ShedReason::TenantCap)
            );
        }

        #[test]
        fn shed_priority_order_is_stable() {
            let m = machine(2, &[1], 2);
            let mut s = AdmissionState {
                in_flight: vec![0],
                draining: true,
            };
            let event = |deadline_expired| AdmissionEvent::Admit {
                tenant: 0,
                queue_depth: 0,
                deadline_expired,
                over_watermark: true,
            };
            assert_eq!(
                step_mut(&m, &mut s, &event(true)),
                shed(0, ShedReason::DeadlineExpired)
            );
            assert_eq!(
                step_mut(&m, &mut s, &event(false)),
                shed(0, ShedReason::Draining)
            );
            s.draining = false;
            assert_eq!(
                step_mut(&m, &mut s, &event(false)),
                shed(0, ShedReason::OverWatermark)
            );
            // Between tenants: the global cap is checked before the
            // reserve, which only decides borrows below the cap.
            let m = machine(4, &[1, 1], 4);
            let mut s = AdmissionState {
                in_flight: vec![2, 2],
                draining: false,
            };
            assert_eq!(
                step_mut(&m, &mut s, &admit(0)),
                shed(0, ShedReason::GlobalCap)
            );
            s.in_flight = vec![2, 0];
            assert_eq!(
                step_mut(&m, &mut s, &admit(0)),
                shed(0, ShedReason::FairShareReserve)
            );
        }

        #[test]
        fn release_underflow_is_an_effect_not_a_wrap() {
            let m = machine(2, &[1, 1], 2);
            let mut s = m.initial();
            assert_eq!(
                step_mut(&m, &mut s, &AdmissionEvent::Release { tenant: 1 }),
                vec![AdmissionEffect::PermitUnderflow]
            );
            assert_eq!(s.in_flight, vec![0, 0]);
        }

        #[test]
        fn drain_refuses_per_tenant_then_recovers() {
            let m = machine(4, &[1, 1], 4);
            let mut s = m.initial();
            step_mut(&m, &mut s, &admit(0));
            step_mut(&m, &mut s, &AdmissionEvent::BeginDrain);
            assert!(matches!(
                step_mut(&m, &mut s, &admit(1))[0],
                AdmissionEffect::Shed {
                    reason: ShedReason::Draining,
                    ..
                }
            ));
            assert_eq!(s.total(), 1);
            step_mut(&m, &mut s, &AdmissionEvent::EndDrain);
            assert!(matches!(
                step_mut(&m, &mut s, &admit(1))[0],
                AdmissionEffect::Admitted { tenant: 1 }
            ));
        }

        /// Brute-force the reserve invariant over every event interleaving
        /// of a small configuration (the same property `wsp-check` explores
        /// on the graph, kept here as a fast unit-level sanity net).
        #[test]
        fn reserve_invariant_holds_on_random_walks() {
            let m = machine(5, &[2, 1, 1], 3);
            let g = m.guaranteed();
            let mut s = m.initial();
            let mut seed = 0x9e3779b97f4a7c15u64;
            for _ in 0..20_000 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let t = (seed >> 33) as usize % 3;
                let ev = match (seed >> 60) % 4 {
                    0 | 1 => admit(t),
                    2 => AdmissionEvent::Release { tenant: t },
                    _ => {
                        if seed & 1 == 0 {
                            AdmissionEvent::BeginDrain
                        } else {
                            AdmissionEvent::EndDrain
                        }
                    }
                };
                if matches!(ev, AdmissionEvent::Release { tenant } if s.in_flight[tenant] == 0) {
                    continue; // the shell's RAII permits make this unreachable
                }
                m.step_in_place(&g, &mut s, &ev);
                let reserve: u64 = g
                    .iter()
                    .zip(&s.in_flight)
                    .map(|(&g, &f)| g.saturating_sub(f))
                    .sum();
                assert!(
                    s.total() + reserve <= m.global_cap,
                    "invariant broken at {s:?}"
                );
                assert!(s.in_flight.iter().all(|&f| f <= m.tenant_cap));
            }
        }
    }
}
