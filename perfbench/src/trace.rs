//! The benchmark's own tracing: spans recorded around its calls into
//! each crate's public functions, plus a counting allocator. Nothing
//! here reaches inside the program; spans live in memory and are
//! analysed when a traced pass ends.

use crate::stats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
/// The closed-loop call in flight; server-side spans file under it.
static CURRENT_CALL: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One timed interval, in nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub call: u64,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on (with room for `capacity` spans, reserved up
/// front so recording allocates nothing) or off.
pub fn set_tracing(on: bool, capacity: usize) {
    if on {
        let mut spans = SPANS.lock().expect("span store poisoned");
        spans.clear();
        spans.reserve(capacity);
    }
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Mark the start of closed-loop call `call`.
pub fn begin_call(call: u64) {
    CURRENT_CALL.store(call, Ordering::SeqCst);
}

/// Run `f`, recording a span named `layer` around it when tracing.
pub fn span<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let call = CURRENT_CALL.load(Ordering::SeqCst);
    let start = now_ns();
    let out = f();
    let end = now_ns();
    SPANS.lock().expect("span store poisoned").push(Span {
        call,
        layer,
        start,
        end,
    });
    out
}

/// Stop recording and hand back every span recorded since tracing was
/// last turned on.
pub fn take_spans() -> Vec<Span> {
    TRACING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-layer view of one traced pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Span durations (ns) by layer.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// Self times (ns) by layer: duration minus what children cover.
    pub self_times: BTreeMap<&'static str, Vec<u64>>,
    /// Spans by (parent layer, child layer) pair.
    pub edges: BTreeMap<(&'static str, &'static str), u64>,
    /// Calls whose spans did not nest: a child outside every span of
    /// its call, or children that sum above their parent.
    pub violations: Vec<String>,
}

impl Analysis {
    pub fn median_us(&self, layer: &str) -> Option<f64> {
        self.durations.get(layer).map(|d| stats::median_us(d))
    }

    pub fn count(&self, layer: &str) -> usize {
        self.durations.get(layer).map_or(0, Vec::len)
    }
}

/// Build each call's span tree by interval containment and check it:
/// every span of a call lies inside that call's first (root) span, and
/// the children of any span never sum above it.
pub fn analyse(mut spans: Vec<Span>) -> Analysis {
    // Parents sort before the children they contain: by call, start,
    // then longest first.
    spans.sort_by_key(|s| (s.call, s.start, std::cmp::Reverse(s.end)));
    let mut out = Analysis::default();
    let mut i = 0;
    while i < spans.len() {
        let call = spans[i].call;
        let mut j = i;
        while j < spans.len() && spans[j].call == call {
            j += 1;
        }
        analyse_call(&spans[i..j], &mut out);
        i = j;
    }
    out
}

fn analyse_call(spans: &[Span], out: &mut Analysis) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (k, s) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if spans[top].end >= s.end && spans[top].start <= s.start {
                break;
            }
            stack.pop();
        }
        match stack.last() {
            Some(&parent) => children[parent].push(k),
            None if k > 0 => out.violations.push(format!(
                "call {}: {} span outside the call's root span",
                s.call, s.layer
            )),
            None => {}
        }
        stack.push(k);
    }
    for (k, s) in spans.iter().enumerate() {
        let kids: Vec<(u64, u64)> = children[k]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let sum: u64 = kids.iter().map(|(a, b)| b - a).sum();
        if sum > s.ns() {
            out.violations.push(format!(
                "call {}: children of {} sum to {sum} ns above its {} ns",
                s.call,
                s.layer,
                s.ns()
            ));
        }
        for &c in &children[k] {
            *out.edges.entry((s.layer, spans[c].layer)).or_default() += 1;
        }
        out.durations.entry(s.layer).or_default().push(s.ns());
        out.self_times
            .entry(s.layer)
            .or_default()
            .push(stats::self_time((s.start, s.end), &kids));
    }
}

// --- allocation counting ---------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwarding allocator that counts `alloc` and `realloc` calls, on
/// every thread, while counting is switched on. Off, it costs one
/// relaxed load per allocation, so untraced runs are not taxed.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(call: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            call,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_form_a_tree_with_self_times() {
        let a = analyse(vec![
            sp(1, "fresh", 10, 40),
            sp(1, "locate", 0, 100),
            sp(1, "node", 15, 35),
            sp(1, "fresh", 50, 90),
            sp(2, "locate", 200, 260),
            sp(2, "fresh", 210, 250),
        ]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.durations["locate"], vec![100, 60]);
        assert_eq!(a.self_times["locate"], vec![100 - 30 - 40, 60 - 40]);
        assert_eq!(a.self_times["fresh"], vec![30 - 20, 40, 40]);
        assert_eq!(a.edges[&("locate", "fresh")], 3);
        assert_eq!(a.edges[&("fresh", "node")], 1);
        assert_eq!(a.count("node"), 1);
        assert!((a.median_us("locate").unwrap() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn a_span_outside_its_root_is_a_violation() {
        let a = analyse(vec![sp(1, "call", 0, 100), sp(1, "handler", 90, 120)]);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    }

    #[test]
    fn spans_record_only_while_tracing() {
        begin_call(7);
        assert_eq!(span("off", || 1), 1);
        set_tracing(true, 16);
        span("outer", || span("inner", || ()));
        let spans = take_spans();
        assert!(!tracing());
        let layers: Vec<_> = spans.iter().map(|s| (s.call, s.layer)).collect();
        assert_eq!(layers, vec![(7, "inner"), (7, "outer")]);
        assert!(analyse(spans).violations.is_empty());
    }
}
