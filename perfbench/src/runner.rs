//! The closed loop, the measured window and the shared per-layer
//! readings every workload reports the same way.

use crate::stats;
use crate::trace::{self, Analysis};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wsp_http::{encode_response, frame_len, parse_request, HeadScan, Response};

/// One named value with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How one closed-loop call ended.
pub enum Outcome {
    Ok,
    /// The call returned an error: counted against the success rate.
    Failed(String),
    /// The call answered, but not what the request must produce: the
    /// run is wrong.
    Wrong(String),
}

/// A workload bound to its servers, ready to issue calls.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Issue the next request of the seeded stream and check its reply.
    /// The duration covers the client call alone (see [`timed`]), not
    /// building the request or checking the reply.
    fn call(&mut self) -> (Outcome, Duration);

    /// Read the program's counters at the start of a traced pass.
    fn begin_traced(&mut self) {}

    /// This workload's own layer metrics from a traced pass of `calls`
    /// calls: spans, counter deltas since `begin_traced`, and replays of
    /// its messages through single public functions.
    fn layer_metrics(&mut self, analysis: &Analysis, calls: u64) -> Vec<Metric>;

    /// Request wire bytes and responses as this workload's HTTP
    /// exchanges carry them, for the codec replay.
    fn http_exchanges(&self) -> Vec<(Vec<u8>, Response)>;

    /// How many leading slices the end-to-end metrics count. A workload
    /// whose per-call cost grows with the work already done caps this,
    /// so every run measures the same calls whatever its speed.
    fn counted_slices(&self) -> usize {
        usize::MAX
    }
}

/// Consecutive calls per slice of a window. Each slice's p99 has
/// ten samples beyond it, the least the percentile rule allows.
pub const SLICE_CALLS: usize = 1000;

/// One slice of a window: `SLICE_CALLS` consecutive calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub ok: u64,
    pub wall: Duration,
    pub cpu_us: u64,
    /// Resident memory when the slice ended.
    pub rss_kb: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Process readings taken when a slice ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    pub at: Duration,
    pub cpu_us: u64,
    pub rss_kb: u64,
}

/// Run one client call inside a span named `layer`, and time it.
pub fn timed<T>(layer: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = trace::span(layer, f);
    (out, started.elapsed())
}

/// What one measured window saw.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    /// Per-call latency in nanoseconds, sorted.
    pub latency_ns: Vec<u64>,
    /// Full slices in call order; calls after the last full slice
    /// count only in the pooled figures.
    pub slices: Vec<Slice>,
    pub wall: Duration,
}

impl Window {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed - self.wrong.len() as u64
    }

    /// Percentile over every call of the window.
    pub fn percentile_us(&self, p: f64) -> f64 {
        stats::percentile(&self.latency_ns, p).unwrap_or(0) as f64 / 1_000.0
    }
}

/// Median over slices of successful calls per second. Slices keep a
/// burst of host noise in a few seconds from moving the figure.
pub fn slice_rps(slices: &[Slice]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.ok as f64 / s.wall.as_secs_f64())
        .collect();
    stats::median(&rates)
}

/// Median over slices of one per-slice latency figure, in microseconds.
pub fn slice_median_us(slices: &[Slice], figure: impl Fn(&Slice) -> u64) -> f64 {
    let values: Vec<f64> = slices.iter().map(|s| figure(s) as f64 / 1_000.0).collect();
    stats::median(&values)
}

/// CPU time per call over the slices.
pub fn slice_cpu_us_per_call(slices: &[Slice]) -> f64 {
    let cpu: u64 = slices.iter().map(|s| s.cpu_us).sum();
    cpu as f64 / (slices.len() * SLICE_CALLS) as f64
}

/// Cut call-ordered latencies into full slices, one per mark.
pub fn slices(latency_ns: &[u64], ok: &[bool], marks: &[Mark], start: Mark) -> Vec<Slice> {
    let mut out = Vec::with_capacity(marks.len());
    let mut previous = start;
    for (k, (chunk, mark)) in latency_ns.chunks_exact(SLICE_CALLS).zip(marks).enumerate() {
        let mut sorted = chunk.to_vec();
        sorted.sort_unstable();
        let range = k * SLICE_CALLS..(k + 1) * SLICE_CALLS;
        out.push(Slice {
            ok: ok[range].iter().filter(|&&b| b).count() as u64,
            wall: mark.at - previous.at,
            cpu_us: mark.cpu_us - previous.cpu_us,
            rss_kb: mark.rss_kb,
            p50_ns: stats::percentile(&sorted, 50.0).expect("full slice"),
            p99_ns: stats::percentile(&sorted, 99.0).expect("full slice"),
        });
        previous = *mark;
    }
    out
}

/// Calls issued so far by this process; each gets a distinct id so
/// spans from server threads file under the right call.
static NEXT_CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Calls a window holds without growing its sample buffers.
const SAMPLE_CAPACITY: usize = 1 << 19;

fn mark(started: Instant) -> Mark {
    Mark {
        at: started.elapsed(),
        cpu_us: crate::procfs::cpu_us(),
        rss_kb: crate::procfs::rss_kb(),
    }
}

/// Run the closed loop for `length`: one call at a time, the next sent
/// when the previous returned.
pub fn run_window(w: &mut dyn Workload, length: Duration) -> Window {
    // Touch the sample buffers up front, so the resident memory read
    // during the window does not grow with the number of calls.
    let mut latency_ns = vec![1u64; SAMPLE_CAPACITY];
    latency_ns.clear();
    let mut oks = vec![true; SAMPLE_CAPACITY];
    oks.clear();
    let mut marks = Vec::with_capacity(SAMPLE_CAPACITY / SLICE_CALLS + 1);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wrong = Vec::new();
    let started = Instant::now();
    let start = mark(started);
    loop {
        let id = NEXT_CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        trace::begin_call(id);
        let (outcome, took) = w.call();
        latency_ns.push(took.as_nanos() as u64);
        attempted += 1;
        oks.push(matches!(outcome, Outcome::Ok));
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed(why) => {
                failed += 1;
                if failed <= 3 {
                    eprintln!("{}: call failed: {why}", w.name());
                }
            }
            Outcome::Wrong(why) => wrong.push(why),
        }
        if (attempted as usize).is_multiple_of(SLICE_CALLS) {
            marks.push(mark(started));
        }
        if started.elapsed() >= length {
            break;
        }
    }
    let wall = started.elapsed();
    let slices = slices(&latency_ns, &oks, &marks, start);
    latency_ns.sort_unstable();
    Window {
        attempted,
        failed,
        wrong,
        latency_ns,
        slices,
        wall,
    }
}

/// Issue `calls` untimed calls, failing on any error: warm-up belongs
/// to set-up, and a fixture that cannot serve it is broken.
pub fn warm_up(w: &mut dyn Workload, calls: usize) -> Result<(), String> {
    for _ in 0..calls {
        match w.call().0 {
            Outcome::Ok => {}
            Outcome::Failed(why) | Outcome::Wrong(why) => {
                return Err(format!("{} warm-up: {why}", w.name()))
            }
        }
    }
    Ok(())
}

/// Mean microseconds per item of `op` over `items` items, as the
/// median of repeated batches filling roughly `budget`.
pub fn replay_us(items: usize, budget: Duration, mut op: impl FnMut(usize)) -> f64 {
    assert!(items > 0, "nothing to replay");
    // One untimed pass warms caches and sizes the batches.
    let t = Instant::now();
    for i in 0..items {
        op(i);
    }
    let pass = t.elapsed().max(Duration::from_nanos(1));
    let batches = 7usize;
    let per_batch = budget / batches as u32;
    let passes = ((per_batch.as_nanos() / pass.as_nanos()) as usize).max(1);
    let mut means = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..passes {
            for i in 0..items {
                op(i);
            }
        }
        means.push(t.elapsed().as_nanos() as f64 / 1_000.0 / (passes * items) as f64);
    }
    stats::median(&means)
}

/// `http.codec_us`: head scan, framing, request parse and response
/// encode for one exchange, averaged over the workload's exchanges.
pub fn codec_us(exchanges: &[(Vec<u8>, Response)]) -> f64 {
    replay_us(exchanges.len(), Duration::from_millis(150), |i| {
        let (wire, response) = &exchanges[i];
        let mut scan = HeadScan::new();
        let body_start = scan.find(wire).expect("complete request head");
        let total = frame_len(wire, body_start).expect("framed request");
        let parsed = parse_request(&wire[..total]).expect("parseable request");
        black_box(parsed);
        black_box(encode_response(black_box(response)));
    })
}

/// Hits over attempts, or 0 when nothing was attempted.
pub fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_percentiles_are_supported() {
        assert!(stats::percentile_supported(99.0, SLICE_CALLS));
    }

    #[test]
    fn slices_cut_full_chunks_in_call_order() {
        let n = 2 * SLICE_CALLS + 7;
        let latency: Vec<u64> = (0..n as u64)
            .map(|i| 1_000 + i % SLICE_CALLS as u64)
            .collect();
        let mut ok = vec![true; n];
        ok[3] = false;
        let at = |ms, cpu_us, rss_kb| Mark {
            at: Duration::from_millis(ms),
            cpu_us,
            rss_kb,
        };
        let s = slices(
            &latency,
            &ok,
            &[at(300, 1_500, 10), at(500, 1_900, 12)],
            at(0, 1_000, 9),
        );
        assert_eq!(s.len(), 2, "the partial tail is not a slice");
        assert_eq!(s[0].ok, SLICE_CALLS as u64 - 1);
        assert_eq!(s[1].ok, SLICE_CALLS as u64);
        assert_eq!(s[0].wall, Duration::from_millis(300));
        assert_eq!(s[1].wall, Duration::from_millis(200));
        assert_eq!((s[0].cpu_us, s[1].cpu_us), (500, 400));
        assert_eq!((s[0].rss_kb, s[1].rss_kb), (10, 12));
        // Nearest rank: the p-th percentile of n samples is the
        // ceil(p * n / 100)-th smallest.
        let p50 = 1_000 + SLICE_CALLS as u64 / 2 - 1;
        assert_eq!(s[0].p50_ns, p50);
        assert_eq!(s[0].p99_ns, 1_000 + SLICE_CALLS as u64 * 99 / 100 - 1);
        assert_eq!(slice_median_us(&s, |s| s.p50_ns), p50 as f64 / 1_000.0);
        assert_eq!(slice_cpu_us_per_call(&s), 900.0 / (2 * SLICE_CALLS) as f64);
        let rates = slice_rps(&s);
        let expect = ((SLICE_CALLS - 1) as f64 / 0.3 + SLICE_CALLS as f64 / 0.2) / 2.0;
        assert!((rates - expect).abs() < 1e-6);
    }
}
