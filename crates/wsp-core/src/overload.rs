//! Server-side overload protection: admission control and deadline
//! propagation.
//!
//! The paper's container-less hosting claim (Section IV.A) means the
//! application *is* the server — there is no container in front of it
//! to absorb a burst. This module is the host-side half of the
//! resilience story started by the client retry loop: a
//! [`LoadShedPolicy`] bounds how much work a peer accepts, an
//! [`AdmissionController`] enforces it with one short check per request,
//! and a shed answers *immediately* with [`WspError::Overloaded`] plus
//! a `Retry-After` hint — so a retry storm backs off instead of
//! amplifying the overload.
//!
//! Deadline propagation is the other half: the client's per-call
//! deadline crosses the wire as [`DEADLINE_HEADER`] (remaining budget
//! in milliseconds — a *duration*, not a wall-clock timestamp, so
//! unsynchronised peer clocks cannot corrupt it), is rehydrated
//! server-side into a [`DeadlineScope`], and work whose deadline has
//! already expired is shed at dequeue time — there is no point
//! computing a response nobody is waiting for.
//!
//! Every admission decision lives in the pure
//! [`crate::machines::admission::AdmissionMachine`]; this module is its
//! one runtime shell. The shell interns tenants, gathers the
//! *observations* (queue depth, deadline expiry, the sampled watermark
//! verdict), ships them inside an [`AdmissionEvent::Admit`], and
//! translates the effect back into a permit, a fault and counters. The
//! bindings run it with one tenant ([`LoadShedPolicy::unlimited`],
//! [`LoadShedPolicy::bounded`]); the mediation gateway runs it with
//! per-tenant fair shares ([`LoadShedPolicy::fair`]). `wsp-check`
//! exhaustively explores the machine; the tests here exercise the
//! shell around it.

use crate::error::WspError;
use crate::machines::admission::{
    AdmissionEffect, AdmissionEvent, AdmissionMachine, AdmissionState, ShedReason,
};
use crate::telemetry::{self, Counter};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request header carrying the caller's *remaining* call budget in
/// milliseconds. Relative (a duration) rather than absolute so clock
/// skew between peers cannot manufacture or destroy budget.
pub const DEADLINE_HEADER: &str = "X-WSP-Deadline";

/// Request header naming the tenant a request belongs to, for
/// per-tenant fair-share admission. Requests without it fall into the
/// [`ANONYMOUS_TENANT`] bucket.
pub const TENANT_HEADER: &str = "X-WSP-Tenant";

/// The tenant bucket for requests that do not identify themselves.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// SOAP header block (namespace-less local name) carrying the tenant
/// id over bindings without transport headers (the P2PS pipes).
pub const TENANT_SOAP_HEADER: &str = "Tenant";

/// Response header carrying the server's retry hint in milliseconds —
/// finer-grained companion to the standard whole-second `Retry-After`.
pub const RETRY_AFTER_MS_HEADER: &str = "X-WSP-Retry-After-Ms";

/// Reason prefix of the P2PS busy fault. A receiver fault whose reason
/// starts with this is a load-shed, not an application error; the
/// suffix carries the retry hint as `retry-after-ms=<n>`.
pub const BUSY_FAULT_PREFIX: &str = "wsp:overloaded";

/// SOAP header block (namespace-less local name) carrying the
/// remaining deadline budget over the P2PS binding.
pub const DEADLINE_SOAP_HEADER: &str = "Deadline";

/// How often the (comparatively expensive) queue-wait watermark check
/// re-reads the histogram: every 2^6 = 64 admissions. Between samples
/// the cached verdict is used, keeping the admission check O(1).
const WATERMARK_SAMPLE_SHIFT: u64 = 6;

/// What a host is willing to accept before shedding. One global
/// in-flight cap is split into guaranteed shares by tenant weight
/// (largest-remainder apportionment, computed by the pure machine);
/// tenants may borrow idle capacity beyond their share but never out
/// of another tenant's unused guarantee. A host that does not tell
/// callers apart runs one tenant, whose share is the whole cap.
///
/// The default policy is effectively unlimited — exactly the
/// pre-overload-protection behaviour, so nothing sheds until a policy
/// is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadShedPolicy {
    /// Total in-flight permits (admitted and not yet answered) across
    /// every tenant. `usize::MAX` disables the check.
    pub global_max_in_flight: usize,
    /// Hard per-tenant burst ceiling (even with the rest of the host
    /// idle, one tenant cannot exceed this).
    pub tenant_max_in_flight: usize,
    /// Shed when the dispatch queue already holds this many jobs.
    /// `usize::MAX` disables the check.
    pub max_queue_depth: usize,
    /// Weight applied to tenants not listed in `weights`.
    pub default_weight: u64,
    /// Explicitly weighted tenants, interned first (in this order).
    pub weights: Vec<(String, u64)>,
    /// Shed when the p99 dispatch queue wait (from the telemetry
    /// histograms, sampled periodically) exceeds this — the earliest
    /// smoke signal of saturation, firing before the queue is full.
    pub queue_wait_watermark: Option<Duration>,
    /// Base `Retry-After` hint; a tenant shed for its own pressure
    /// (tenant cap, fair-share reserve) gets it scaled by how far over
    /// its guaranteed share it already is.
    pub retry_after: Duration,
    /// Telemetry prefix: `<prefix>.admitted`, `<prefix>.shed`,
    /// `<prefix>.shed_expired` and per tenant `<prefix>.<tenant>.shed`.
    pub counter_prefix: String,
    /// Ceiling on the interned tenant population. Tenant ids arrive in
    /// client-controlled headers, so without a bound an attacker
    /// sending junk names would grow the interner, the per-tenant
    /// counters and the `/metrics` cardinality without limit — and
    /// each junk name's anti-starvation floor of 1 would dilute every
    /// real tenant's guaranteed share. Once the population is full,
    /// unseen tenants are bucketed into the shared
    /// [`ANONYMOUS_TENANT`] slot instead of being interned.
    /// Explicitly weighted tenants always intern, even past the cap.
    pub max_tenants: usize,
}

impl Default for LoadShedPolicy {
    fn default() -> Self {
        LoadShedPolicy::unlimited()
    }
}

impl LoadShedPolicy {
    /// Accept everything (the legacy behaviour).
    pub fn unlimited() -> Self {
        LoadShedPolicy::bounded(usize::MAX, usize::MAX)
    }

    /// A single-tenant policy: at most `in_flight` concurrent requests
    /// and `queue_depth` queued jobs, 100 ms retry hint, counters under
    /// `admission.*`.
    pub fn bounded(in_flight: usize, queue_depth: usize) -> Self {
        LoadShedPolicy {
            global_max_in_flight: in_flight,
            tenant_max_in_flight: usize::MAX,
            max_queue_depth: queue_depth,
            default_weight: 1,
            weights: Vec::new(),
            queue_wait_watermark: None,
            retry_after: Duration::from_millis(100),
            counter_prefix: "admission".to_owned(),
            max_tenants: 1,
        }
    }

    /// An equal-weight fair-share policy over `global_cap` permits.
    pub fn fair(global_cap: usize) -> Self {
        LoadShedPolicy {
            global_max_in_flight: global_cap,
            tenant_max_in_flight: global_cap,
            max_queue_depth: usize::MAX,
            default_weight: 1,
            weights: Vec::new(),
            queue_wait_watermark: None,
            retry_after: Duration::from_millis(100),
            counter_prefix: "admission.tenant".to_owned(),
            max_tenants: 64,
        }
    }

    pub fn with_weight(mut self, tenant: impl Into<String>, weight: u64) -> Self {
        self.weights.push((tenant.into(), weight.max(1)));
        self
    }

    pub fn with_tenant_cap(mut self, cap: usize) -> Self {
        self.tenant_max_in_flight = cap;
        self
    }

    pub fn with_retry_after(mut self, hint: Duration) -> Self {
        self.retry_after = hint;
        self
    }

    pub fn with_queue_wait_watermark(mut self, watermark: Duration) -> Self {
        self.queue_wait_watermark = Some(watermark);
        self
    }

    pub fn with_counter_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.counter_prefix = prefix.into();
        self
    }

    pub fn with_max_tenants(mut self, max: usize) -> Self {
        self.max_tenants = max.max(1);
        self
    }
}

/// All protocol state, stepped under one mutex, so concurrent
/// admissions serialise and no cap is ever transiently breached. The
/// tenant interner lives inside the same lock: admitting a brand-new
/// tenant atomically grows the machine's weight vector and the state's
/// in-flight vector, so shares re-apportion on the very next decision.
///
/// The apportionment is cached here and recomputed only when the
/// weight vector changes (a tenant interned), so the steady-state
/// admission path does no `O(n log n)` work under the lock.
struct AdmissionSync {
    machine: AdmissionMachine,
    state: AdmissionState,
    tenants: Vec<String>,
    index: HashMap<String, usize>,
    /// `machine.guaranteed()` for the current weight vector.
    guaranteed: Vec<u64>,
}

impl AdmissionSync {
    fn step(&mut self, event: &AdmissionEvent) -> Option<AdmissionEffect> {
        self.machine
            .step_in_place(&self.guaranteed, &mut self.state, event)
    }

    fn intern(&mut self, tenant: &str, weight: u64) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        let i = self.tenants.len();
        self.tenants.push(tenant.to_owned());
        self.index.insert(tenant.to_owned(), i);
        self.machine.weights.push(weight.max(1));
        self.state.in_flight.push(0);
        self.guaranteed = self.machine.guaranteed();
        i
    }

    /// The slot a request for `tenant` is accounted to. Known tenants
    /// resolve directly; unseen ones intern while the population is
    /// below [`LoadShedPolicy::max_tenants`] and share the
    /// [`ANONYMOUS_TENANT`] bucket beyond it, bounding memory, metric
    /// cardinality and share dilution against junk tenant floods.
    fn tenant_index(&mut self, tenant: &str, policy: &LoadShedPolicy) -> usize {
        if let Some(&i) = self.index.get(tenant) {
            return i;
        }
        if self.tenants.len() < policy.max_tenants {
            return self.intern(tenant, policy.default_weight);
        }
        // Population full: the overflow bucket (interned on first use;
        // the population is thus bounded by `max_tenants + 1`).
        self.intern(ANONYMOUS_TENANT, policy.default_weight)
    }
}

struct AdmissionInner {
    policy: LoadShedPolicy,
    sync: Mutex<AdmissionSync>,
    admissions: AtomicU64,
    /// Cached verdict of the periodic watermark sample.
    over_watermark: AtomicBool,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    shed_expired: Arc<Counter>,
}

/// Enforces a [`LoadShedPolicy`]: the runtime shell around the pure
/// [`AdmissionMachine`]. Cheap to clone (all state behind one `Arc`);
/// both bindings of a peer may share one controller so the in-flight
/// cap is per-peer, not per-transport, and a gateway's HTTP and P2PS
/// fronts share one so the fair-share arithmetic spans both.
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<AdmissionInner>,
}

impl AdmissionController {
    pub fn new(policy: LoadShedPolicy) -> Self {
        let registry = telemetry::global();
        let machine = AdmissionMachine {
            global_cap: policy.global_max_in_flight as u64,
            weights: Vec::new(),
            tenant_cap: policy.tenant_max_in_flight as u64,
            max_queue_depth: policy.max_queue_depth as u64,
        };
        let mut sync = AdmissionSync {
            state: AdmissionState::default(),
            machine,
            tenants: Vec::new(),
            index: HashMap::new(),
            guaranteed: Vec::new(),
        };
        // Intern configured tenants eagerly, in policy order, so their
        // indices (and the bisimulation mirror's) are deterministic.
        // Explicit weights always intern, even past `max_tenants`.
        for (tenant, weight) in policy.weights.clone() {
            let i = sync.intern(&tenant, weight);
            if sync.machine.weights[i] != weight.max(1) {
                // A tenant listed twice: the last weight wins.
                sync.machine.weights[i] = weight.max(1);
                sync.guaranteed = sync.machine.guaranteed();
            }
        }
        let prefix = &policy.counter_prefix;
        AdmissionController {
            inner: Arc::new(AdmissionInner {
                admitted: registry.counter(format!("{prefix}.admitted")),
                shed: registry.counter(format!("{prefix}.shed")),
                shed_expired: registry.counter(format!("{prefix}.shed_expired")),
                policy,
                sync: Mutex::new(sync),
                admissions: AtomicU64::new(0),
                over_watermark: AtomicBool::new(false),
            }),
        }
    }

    pub fn policy(&self) -> &LoadShedPolicy {
        &self.inner.policy
    }

    /// In-flight permits held by `tenant` (0 for unknown tenants).
    pub fn in_flight(&self, tenant: &str) -> usize {
        let sync = self.inner.sync.lock();
        sync.index
            .get(tenant)
            .map(|&i| sync.state.in_flight[i] as usize)
            .unwrap_or(0)
    }

    /// Requests currently admitted and unanswered, over every tenant.
    pub fn total_in_flight(&self) -> usize {
        self.inner.sync.lock().state.total() as usize
    }

    /// The guaranteed share currently apportioned to `tenant`.
    pub fn guaranteed_share(&self, tenant: &str) -> usize {
        let sync = self.inner.sync.lock();
        sync.index
            .get(tenant)
            .map(|&i| sync.guaranteed[i] as usize)
            .unwrap_or(0)
    }

    pub fn tenants(&self) -> Vec<String> {
        self.inner.sync.lock().tenants.clone()
    }

    /// Enter drain mode: every subsequent admission is refused (with
    /// the retry hint) while already-admitted work runs to completion.
    pub fn start_draining(&self) {
        self.inner.sync.lock().step(&AdmissionEvent::BeginDrain);
    }

    pub fn stop_draining(&self) {
        self.inner.sync.lock().step(&AdmissionEvent::EndDrain);
    }

    pub fn is_draining(&self) -> bool {
        self.inner.sync.lock().state.draining
    }

    /// The shell's half of the watermark check: sample the p99 queue
    /// wait every 2^[`WATERMARK_SAMPLE_SHIFT`] admissions, cache the
    /// verdict, and hand the machine a plain boolean observation.
    fn observe_watermark(&self) -> bool {
        let Some(watermark) = self.inner.policy.queue_wait_watermark else {
            return false;
        };
        let n = self.inner.admissions.fetch_add(1, Ordering::Relaxed);
        if n & ((1 << WATERMARK_SAMPLE_SHIFT) - 1) == 0 {
            let p99_us = telemetry::global()
                .histogram("dispatch.queue_wait_us")
                .snapshot()
                .p99();
            let over = Duration::from_micros(p99_us) > watermark;
            self.inner.over_watermark.store(over, Ordering::Relaxed);
        }
        self.inner.over_watermark.load(Ordering::Relaxed)
    }

    /// Admit one request for `tenant` or shed it. `queue_depth` is the
    /// host's current dispatch-queue depth (pass 0 when not
    /// applicable); `deadline` is the caller's propagated deadline,
    /// shed immediately when already expired (the caller has given up
    /// — answering quickly matters more than answering at all).
    ///
    /// A shed carries a per-tenant retry hint: the base hint scaled by
    /// how far over its guaranteed share the tenant already is, so a
    /// flooding tenant is told to back off harder than one shed by
    /// transient global pressure.
    pub fn try_admit(
        &self,
        tenant: &str,
        queue_depth: usize,
        deadline: Option<Instant>,
    ) -> Result<AdmissionPermit, WspError> {
        let deadline_expired = deadline.is_some_and(|d| Instant::now() >= d);
        let over_watermark = self.observe_watermark();
        let mut sync = self.inner.sync.lock();
        let t = sync.tenant_index(tenant, &self.inner.policy);
        let event = AdmissionEvent::Admit {
            tenant: t,
            queue_depth: queue_depth as u64,
            deadline_expired,
            over_watermark,
        };
        match sync.step(&event) {
            Some(AdmissionEffect::Admitted { .. }) => {
                drop(sync);
                self.inner.admitted.incr();
                Ok(AdmissionPermit {
                    controller: self.clone(),
                    tenant: t,
                })
            }
            Some(AdmissionEffect::Shed { reason, .. }) => {
                let hint = self.retry_hint_locked(&sync, t, reason);
                // Counters are named by the *interned* slot, so junk
                // tenant names beyond `max_tenants` all land on the
                // anonymous bucket instead of minting fresh series.
                let bucket = sync.tenants[t].clone();
                drop(sync);
                self.inner.shed.incr();
                if reason == ShedReason::DeadlineExpired {
                    self.inner.shed_expired.incr();
                }
                telemetry::global()
                    .counter(format!(
                        "{}.{bucket}.shed",
                        self.inner.policy.counter_prefix
                    ))
                    .incr();
                Err(WspError::Overloaded {
                    retry_after_ms: Some(hint),
                })
            }
            other => unreachable!("Admit produced {other:?}"),
        }
    }

    /// The per-tenant hint: `base * (1 + in_flight/guaranteed)` for
    /// sheds the tenant caused itself (over its share or ceiling), the
    /// plain base for global conditions. Monotone in tenant pressure.
    fn retry_hint_locked(&self, sync: &AdmissionSync, tenant: usize, reason: ShedReason) -> u64 {
        let base = self.inner.policy.retry_after.as_millis() as u64;
        match reason {
            ShedReason::TenantCap | ShedReason::FairShareReserve => {
                let f = sync.state.in_flight[tenant];
                let g = sync.guaranteed[tenant].max(1);
                base * (1 + f / g).min(8)
            }
            _ => base,
        }
    }

    /// Block until every tenant's work has finished or `deadline`
    /// passes; returns the total still in flight (0 on success).
    pub fn await_idle(&self, deadline: Instant) -> usize {
        loop {
            let in_flight = self.total_in_flight();
            if in_flight == 0 || Instant::now() >= deadline {
                return in_flight;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// RAII proof of admission: holds one of its tenant's in-flight slots,
/// released on drop (success, fault and panic paths alike).
pub struct AdmissionPermit {
    controller: AdmissionController,
    tenant: usize,
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let effect = self
            .controller
            .inner
            .sync
            .lock()
            .step(&AdmissionEvent::Release {
                tenant: self.tenant,
            });
        debug_assert_ne!(
            effect,
            Some(AdmissionEffect::PermitUnderflow),
            "permit released with nothing in flight"
        );
    }
}

// --- deadline propagation ----------------------------------------------------

thread_local! {
    static CURRENT_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Scopes a call deadline to the current thread, mirroring
/// [`crate::telemetry::CorrelationScope`]: the client retry loop enters
/// one around each attempt so transports can serialise the remaining
/// budget, and a server enters one around handler execution so nested
/// outbound calls inherit the caller's budget. Restores the previous
/// deadline on drop, so scopes nest.
pub struct DeadlineScope {
    previous: Option<Instant>,
}

impl DeadlineScope {
    pub fn enter(deadline: Option<Instant>) -> DeadlineScope {
        let previous = CURRENT_DEADLINE.with(|cell| cell.replace(deadline));
        DeadlineScope { previous }
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        CURRENT_DEADLINE.with(|cell| cell.set(self.previous));
    }
}

/// The deadline scoped to the current thread, if any.
pub fn current_deadline() -> Option<Instant> {
    CURRENT_DEADLINE.with(|cell| cell.get())
}

/// Remaining budget of `deadline` in whole milliseconds — what goes on
/// the wire. `None` when already expired (send nothing; the server
/// would only shed it, and the local attempt is about to time out
/// anyway).
pub fn remaining_ms(deadline: Instant) -> Option<u64> {
    let now = Instant::now();
    if now >= deadline {
        return None;
    }
    Some((deadline - now).as_millis().max(1) as u64)
}

/// Rehydrate a wire budget into a local deadline.
pub fn deadline_in_ms(ms: u64) -> Instant {
    Instant::now() + Duration::from_millis(ms)
}

/// Render the busy-fault reason carried by the P2PS binding.
pub fn busy_fault_reason(retry_after: Duration) -> String {
    format!(
        "{BUSY_FAULT_PREFIX} retry-after-ms={}",
        retry_after.as_millis()
    )
}

/// Parse a fault reason: `Some(hint)` when it is a busy fault.
pub fn parse_busy_fault(reason: &str) -> Option<Option<u64>> {
    let rest = reason.strip_prefix(BUSY_FAULT_PREFIX)?;
    Some(
        rest.trim()
            .strip_prefix("retry-after-ms=")
            .and_then(|ms| ms.trim().parse().ok()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn unlimited_policy_admits_everything() {
        let ctl = AdmissionController::new(LoadShedPolicy::unlimited());
        let mut permits = Vec::new();
        for depth in 0..100 {
            permits.push(ctl.try_admit(ANONYMOUS_TENANT, depth, None).expect("admit"));
        }
        assert_eq!(ctl.total_in_flight(), 100);
        // One effective tenant: a named caller shares the only slot.
        permits.push(ctl.try_admit("named", 0, None).expect("admit"));
        assert_eq!(ctl.tenants(), vec![ANONYMOUS_TENANT.to_owned()]);
        assert_eq!(ctl.in_flight(ANONYMOUS_TENANT), 101);
        drop(permits);
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn in_flight_cap_sheds_and_recovers() {
        let series = telemetry::global().counter("admission.anonymous.shed");
        let before = series.get();
        let ctl = AdmissionController::new(LoadShedPolicy::bounded(2, usize::MAX));
        let a = ctl.try_admit(ANONYMOUS_TENANT, 0, None).expect("first");
        let _b = ctl.try_admit(ANONYMOUS_TENANT, 0, None).expect("second");
        let shed = ctl
            .try_admit(ANONYMOUS_TENANT, 0, None)
            .expect_err("third must shed");
        assert!(
            matches!(
                shed,
                WspError::Overloaded {
                    retry_after_ms: Some(100)
                }
            ),
            "{shed:?}"
        );
        assert!(
            series.get() > before,
            "the shed lands on admission.anonymous.shed"
        );
        drop(a);
        ctl.try_admit(ANONYMOUS_TENANT, 0, None)
            .expect("slot freed by drop");
    }

    #[test]
    fn queue_depth_cap_sheds() {
        let ctl = AdmissionController::new(LoadShedPolicy::bounded(usize::MAX, 4));
        assert!(ctl.try_admit(ANONYMOUS_TENANT, 3, None).is_ok());
        assert!(matches!(
            ctl.try_admit(ANONYMOUS_TENANT, 4, None),
            Err(WspError::Overloaded { .. })
        ));
    }

    #[test]
    fn expired_deadline_is_shed_on_arrival() {
        let ctl = AdmissionController::new(LoadShedPolicy::unlimited());
        let expired = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            ctl.try_admit(ANONYMOUS_TENANT, 0, Some(expired)),
            Err(WspError::Overloaded { .. })
        ));
        let live = Instant::now() + Duration::from_secs(5);
        assert!(ctl.try_admit(ANONYMOUS_TENANT, 0, Some(live)).is_ok());
    }

    #[test]
    fn draining_refuses_new_work_but_keeps_permits() {
        let ctl = AdmissionController::new(LoadShedPolicy::unlimited());
        let permit = ctl
            .try_admit(ANONYMOUS_TENANT, 0, None)
            .expect("before drain");
        ctl.start_draining();
        assert!(matches!(
            ctl.try_admit(ANONYMOUS_TENANT, 0, None),
            Err(WspError::Overloaded { .. })
        ));
        assert_eq!(
            ctl.total_in_flight(),
            1,
            "in-flight work unaffected by drain"
        );
        drop(permit);
        let idle_by = Instant::now() + Duration::from_secs(1);
        assert_eq!(ctl.await_idle(idle_by), 0);
        ctl.stop_draining();
        assert!(ctl.try_admit(ANONYMOUS_TENANT, 0, None).is_ok());
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_cap() {
        let cap = 8;
        let ctl = AdmissionController::new(LoadShedPolicy::bounded(cap, usize::MAX));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let ctl = ctl.clone();
                let peak = peak.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Ok(permit) = ctl.try_admit(ANONYMOUS_TENANT, 0, None) {
                            let seen = ctl.total_in_flight();
                            peak.fetch_max(seen, Ordering::SeqCst);
                            assert!(seen <= cap, "cap breached: {seen}");
                            drop(permit);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ctl.total_in_flight(), 0);
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn deadline_scope_nests_and_restores() {
        assert_eq!(current_deadline(), None);
        let outer = Instant::now() + Duration::from_secs(10);
        {
            let _outer = DeadlineScope::enter(Some(outer));
            assert_eq!(current_deadline(), Some(outer));
            let inner = Instant::now() + Duration::from_secs(1);
            {
                let _inner = DeadlineScope::enter(Some(inner));
                assert_eq!(current_deadline(), Some(inner));
            }
            assert_eq!(current_deadline(), Some(outer));
        }
        assert_eq!(current_deadline(), None);
    }

    #[test]
    fn wire_budget_round_trips() {
        let deadline = Instant::now() + Duration::from_millis(500);
        let ms = remaining_ms(deadline).expect("budget remains");
        assert!(ms > 0 && ms <= 500, "{ms}");
        let rehydrated = deadline_in_ms(ms);
        // The rehydrated deadline is within transit slop of the original.
        let slop = Duration::from_millis(50);
        assert!(rehydrated <= deadline + slop);
        let expired = Instant::now() - Duration::from_millis(1);
        assert_eq!(remaining_ms(expired), None);
    }

    #[test]
    fn keyed_guaranteed_shares_are_always_admitted() {
        let ctl = AdmissionController::new(
            LoadShedPolicy::fair(4)
                .with_weight("hot", 1)
                .with_weight("cold", 1),
        );
        // Hot takes everything it can get.
        let mut hot = Vec::new();
        while let Ok(p) = ctl.try_admit("hot", 0, None) {
            hot.push(p);
        }
        assert_eq!(
            ctl.in_flight("hot"),
            2,
            "hot stops at its share + 0 reserve"
        );
        // Cold's guarantee is untouched: both its permits admit.
        let c1 = ctl.try_admit("cold", 0, None).expect("cold share 1");
        let _c2 = ctl.try_admit("cold", 0, None).expect("cold share 2");
        assert_eq!(ctl.total_in_flight(), 4);
        assert!(
            ctl.try_admit("cold", 0, None).is_err(),
            "global cap reached"
        );
        drop(c1);
        assert!(ctl.try_admit("cold", 0, None).is_ok(), "slot freed by drop");
    }

    #[test]
    fn keyed_borrowing_uses_idle_capacity_but_not_the_reserve() {
        let ctl = AdmissionController::new(
            LoadShedPolicy::fair(6)
                .with_weight("a", 1)
                .with_weight("b", 1),
        );
        // b holds one of its three guaranteed permits; reserve is 2, so
        // the total may grow to 6 - 2 = 4, leaving a room for three.
        let _b = ctl.try_admit("b", 0, None).unwrap();
        let mut a = Vec::new();
        while let Ok(p) = ctl.try_admit("a", 0, None) {
            a.push(p);
        }
        assert_eq!(ctl.in_flight("a"), 3);
        assert_eq!(ctl.total_in_flight(), 4);
        // Once b releases, the freed reserve is still b's: a remains
        // capped until shares genuinely free up.
        drop(_b);
        assert!(ctl.try_admit("a", 0, None).is_err());
    }

    #[test]
    fn keyed_new_tenants_reapportion_shares() {
        let ctl = AdmissionController::new(LoadShedPolicy::fair(6));
        let _x = ctl.try_admit("x", 0, None).unwrap();
        assert_eq!(ctl.guaranteed_share("x"), 6, "alone, x owns the cap");
        let _y = ctl.try_admit("y", 0, None).unwrap();
        assert_eq!(ctl.guaranteed_share("x"), 3, "a second tenant halves it");
        assert_eq!(ctl.guaranteed_share("y"), 3);
    }

    #[test]
    fn keyed_retry_hint_scales_with_tenant_pressure() {
        let ctl = AdmissionController::new(
            LoadShedPolicy::fair(4)
                .with_weight("hog", 1)
                .with_weight("meek", 3)
                .with_retry_after(Duration::from_millis(50)),
        );
        let mut held = Vec::new();
        loop {
            match ctl.try_admit("hog", 0, None) {
                Ok(p) => held.push(p),
                Err(WspError::Overloaded { retry_after_ms }) => {
                    let hog_hint = retry_after_ms.unwrap();
                    assert!(
                        hog_hint >= 100,
                        "an over-share tenant is told to back off harder: {hog_hint}"
                    );
                    break;
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        // A shed caused by global pressure keeps the base hint.
        let mut meek = Vec::new();
        while let Ok(p) = ctl.try_admit("meek", 0, None) {
            meek.push(p);
        }
        match ctl.try_admit("meek", 0, None) {
            Err(WspError::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, Some(50));
            }
            other => panic!("expected global-cap shed, got {other:?}"),
        }
    }

    #[test]
    fn keyed_expired_deadline_sheds_and_draining_refuses() {
        let ctl = AdmissionController::new(LoadShedPolicy::fair(8));
        let expired = Instant::now() - Duration::from_millis(1);
        assert!(ctl.try_admit("t", 0, Some(expired)).is_err());
        ctl.start_draining();
        assert!(ctl.is_draining());
        assert!(ctl.try_admit("t", 0, None).is_err());
        ctl.stop_draining();
        let permit = ctl.try_admit("t", 0, None).unwrap();
        drop(permit);
        assert_eq!(ctl.await_idle(Instant::now() + Duration::from_secs(1)), 0);
    }

    #[test]
    fn keyed_concurrent_floods_never_breach_either_cap() {
        let ctl = AdmissionController::new(
            LoadShedPolicy::fair(8)
                .with_weight("a", 1)
                .with_weight("b", 1)
                .with_tenant_cap(6),
        );
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let ctl = ctl.clone();
                std::thread::spawn(move || {
                    let tenant = if i % 2 == 0 { "a" } else { "b" };
                    for _ in 0..300 {
                        if let Ok(permit) = ctl.try_admit(tenant, 0, None) {
                            assert!(ctl.total_in_flight() <= 8);
                            assert!(ctl.in_flight(tenant) <= 6);
                            drop(permit);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn keyed_per_tenant_shed_counters_move() {
        let t = telemetry::global();
        let before = t.counter("admission.tenant.noisy.shed").get();
        let ctl = AdmissionController::new(LoadShedPolicy::fair(1));
        let _held = ctl.try_admit("noisy", 0, None).unwrap();
        assert!(ctl.try_admit("noisy", 0, None).is_err());
        assert!(t.counter("admission.tenant.noisy.shed").get() > before);
    }

    #[test]
    fn keyed_tenant_population_is_bounded_by_the_policy_cap() {
        let ctl = AdmissionController::new(LoadShedPolicy::fair(8).with_max_tenants(2));
        let _a = ctl.try_admit("a", 0, None).unwrap();
        let _b = ctl.try_admit("b", 0, None).unwrap();
        // A flood of junk tenant names must not grow the interner.
        for i in 0..100 {
            let _ = ctl.try_admit(&format!("junk-{i}"), 0, None);
        }
        let tenants = ctl.tenants();
        assert_eq!(
            tenants.len(),
            3,
            "a, b and the overflow bucket only: {tenants:?}"
        );
        assert!(tenants.contains(&ANONYMOUS_TENANT.to_owned()));
        // Junk names own no slot of their own, and the real tenants'
        // guarantees are not diluted below the three-way split.
        assert_eq!(ctl.guaranteed_share("junk-0"), 0);
        assert!(ctl.guaranteed_share("a") >= 2);
        assert!(ctl.guaranteed_share("b") >= 2);
    }

    #[test]
    fn keyed_overflow_tenants_share_the_anonymous_slot() {
        let ctl = AdmissionController::new(LoadShedPolicy::fair(4).with_max_tenants(1));
        let _a = ctl.try_admit("a", 0, None).unwrap();
        let p = ctl.try_admit("flood-1", 0, None).unwrap();
        assert_eq!(
            ctl.in_flight(ANONYMOUS_TENANT),
            1,
            "overflow permits are accounted to the shared bucket"
        );
        let _q = ctl.try_admit("flood-2", 0, None).unwrap();
        assert_eq!(ctl.in_flight(ANONYMOUS_TENANT), 2);
        drop(p);
        assert_eq!(ctl.in_flight(ANONYMOUS_TENANT), 1);
    }

    #[test]
    fn keyed_junk_tenant_sheds_count_against_the_anonymous_bucket() {
        let t = telemetry::global();
        let prefix = "admission.bucket.test";
        let ctl = AdmissionController::new(
            LoadShedPolicy::fair(1)
                .with_max_tenants(1)
                .with_counter_prefix(prefix),
        );
        let _held = ctl.try_admit("real", 0, None).unwrap();
        let before = t.counter(format!("{prefix}.anonymous.shed")).get();
        assert!(ctl.try_admit("junk-name", 0, None).is_err());
        assert!(
            t.counter(format!("{prefix}.anonymous.shed")).get() > before,
            "the shed series is named by the interned bucket"
        );
        assert_eq!(
            t.counter(format!("{prefix}.junk-name.shed")).get(),
            0,
            "junk names must not mint fresh metric series"
        );
    }

    #[test]
    fn busy_fault_reason_round_trips() {
        let reason = busy_fault_reason(Duration::from_millis(250));
        assert_eq!(parse_busy_fault(&reason), Some(Some(250)));
        assert_eq!(parse_busy_fault(BUSY_FAULT_PREFIX), Some(None));
        assert_eq!(parse_busy_fault("service X is not deployed"), None);
    }
}
