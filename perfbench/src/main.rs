//! The repository benchmark: closed-loop, one client thread, loopback
//! only, servers and client in this one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <invoke_keepalive|gateway_mix|discovery_rw> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the named workload with the
//! benchmark's tracing off and reports the end-to-end metrics. With
//! `--trace 1` it runs the named workload untraced and then traced
//! (for `trace_overhead` and the layers shared by every workload), and
//! a shorter traced pass of each other workload, so that every layer
//! metric is reported by every traced run. The last line of standard
//! output is the result as one JSON object.

mod discovery;
mod gateway;
mod invoke;
mod procfs;
mod runner;
mod stats;
mod trace;

use runner::{metric, Metric, Window, Workload, SLICE_CALLS};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["invoke_keepalive", "gateway_mix", "discovery_rw"];

/// End-to-end metrics, in the order printed.
pub const END_TO_END: [&str; 7] = [
    "rps",
    "p50_us",
    "p99_us",
    "success_rate",
    "cpu_us_per_call",
    "rss_kb",
    "setup_s",
];

/// Per-layer metrics, in the order printed.
pub const PER_LAYER: [&str; 33] = [
    "trace_overhead",
    "core.invoke_us",
    "core.dispatch_wait_us",
    "core.handler_us",
    "wsdl.engine_us",
    "soap.decode_us.small",
    "soap.decode_us.large",
    "soap.encode_us.small",
    "soap.encode_us.large",
    "xml.allocs_per_call",
    "xml.bufpool_hit_ratio",
    "http.serve_us",
    "http.codec_us",
    "http.pool_call_us",
    "http.pool_reuse_ratio",
    "http.fresh_call_us",
    "p2ps.pipe_call_us",
    "p2ps.frame_codec_us",
    "gateway.hit_us",
    "gateway.miss_us",
    "gateway.invoke_us.hit",
    "gateway.invoke_us.miss",
    "gateway.backend_us",
    "gateway.backend_calls_per_miss",
    "gateway.response_hit_ratio",
    "gateway.locate_hit_ratio",
    "gateway.shed",
    "gateway.backend_errors",
    "registry.locate_us",
    "registry.publish_us",
    "registry.node_us",
    "registry.transport_calls_per_locate",
    "registry.retries",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed calls that end each set-up, so caches are filled and lazy
/// set-up is done before the window opens.
const WARM_UP_CALLS: usize = 2000;
/// Spans reserved up front for a traced pass.
const SPAN_CAPACITY: usize = 1 << 19;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Build a workload's fixture and warm it up.
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "invoke_keepalive" => Box::new(invoke::setup(seed)?),
        "gateway_mix" => Box::new(gateway::setup(seed)?),
        "discovery_rw" => Box::new(discovery::setup(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    runner::warm_up(w.as_mut(), WARM_UP_CALLS)?;
    Ok(w)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn check_percentiles(name: &str, window: &Window) -> Result<(), String> {
    let n = window.latency_ns.len();
    for p in stats::REPORTED_PERCENTILES {
        if !stats::percentile_supported(p, n) {
            return Err(format!(
                "{name}: {n} samples leave fewer than ten beyond p{p}; run longer"
            ));
        }
    }
    if window.slices.is_empty() {
        return Err(format!(
            "{name}: {n} calls fill no {SLICE_CALLS}-call slice; run longer"
        ));
    }
    println!(
        "{name}: {} calls in {:.3} s, {} failed, {} wrong; {} slices of {SLICE_CALLS} calls \
         ({} samples beyond each slice's p99); pooled p50 {:.3} us, p99 {:.3} us, {:.1} calls/s",
        window.attempted,
        window.wall.as_secs_f64(),
        window.failed,
        window.wrong.len(),
        window.slices.len(),
        stats::samples_beyond(99.0, SLICE_CALLS),
        window.percentile_us(50.0),
        window.percentile_us(99.0),
        window.ok() as f64 / window.wall.as_secs_f64(),
    );
    for why in window.wrong.iter().take(3) {
        println!("{name}: wrong answer: {why}");
    }
    Ok(())
}

fn untraced(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let started = Instant::now();
        let w = setup(args.workload, args.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        fixture = Some(w);
    }
    let mut w = fixture.expect("at least one set-up");
    let window = runner::run_window(w.as_mut(), Duration::from_secs(args.seconds));
    check_percentiles(args.workload, &window)?;
    let counted = &window.slices[..window.slices.len().min(w.counted_slices())];
    let last = counted.last().expect("checked: at least one full slice");
    println!(
        "{}: end-to-end metrics over the first {} slices; set-up times (s): {setup_s:.3?}",
        args.workload,
        counted.len()
    );
    Ok(Report {
        correct: window.wrong.is_empty(),
        attempted: window.attempted,
        failed: window.failed + window.wrong.len() as u64,
        metrics: vec![
            metric("rps", runner::slice_rps(counted), "1/s"),
            metric(
                "p50_us",
                runner::slice_median_us(counted, |s| s.p50_ns),
                "us",
            ),
            metric(
                "p99_us",
                runner::slice_median_us(counted, |s| s.p99_ns),
                "us",
            ),
            metric(
                "success_rate",
                window.ok() as f64 / window.attempted as f64,
                "ratio",
            ),
            metric(
                "cpu_us_per_call",
                runner::slice_cpu_us_per_call(counted),
                "us",
            ),
            metric("rss_kb", last.rss_kb as f64, "KiB"),
            metric("setup_s", stats::median(&setup_s), "s"),
        ],
    })
}

/// One traced pass: spans and allocation counting on, then the
/// workload's layer metrics. `shared` adds the metrics every workload
/// reports (allocations, buffer pool, HTTP codec) for this one.
fn traced_pass(
    w: &mut dyn Workload,
    length: Duration,
    shared: bool,
) -> Result<(Window, Vec<Metric>), String> {
    w.begin_traced();
    let pool_before = wsp_xml::BufPool::global().stats();
    let allocs_before = trace::allocations();
    trace::set_tracing(true, SPAN_CAPACITY);
    trace::set_counting(true);
    let window = runner::run_window(w, length);
    trace::set_counting(false);
    let spans = trace::take_spans();
    let allocs = trace::allocations() - allocs_before;
    let pool = wsp_xml::BufPool::global().stats();
    check_percentiles(w.name(), &window)?;
    let analysis = trace::analyse(spans);
    if let Some(first) = analysis.violations.first() {
        return Err(format!(
            "{}: {} nesting violations, first: {first}",
            w.name(),
            analysis.violations.len()
        ));
    }
    println!(
        "{}: layer spans (us; self = span minus its children):",
        w.name()
    );
    for (layer, durations) in &analysis.durations {
        let mut sorted = durations.clone();
        sorted.sort_unstable();
        println!(
            "  {layer:<18} n={:<7} p50={:>10.3} p99={:>10.3} self p50={:>10.3}",
            durations.len(),
            stats::median_us(durations),
            stats::percentile(&sorted, 99.0).unwrap_or(0) as f64 / 1_000.0,
            stats::median_us(&analysis.self_times[layer]),
        );
    }
    let mut metrics = w.layer_metrics(&analysis, window.attempted);
    if shared {
        let hits = pool.hits - pool_before.hits;
        let takes = hits + pool.misses - pool_before.misses;
        metrics.push(metric(
            "xml.allocs_per_call",
            allocs as f64 / window.attempted as f64,
            "count",
        ));
        metrics.push(metric(
            "xml.bufpool_hit_ratio",
            runner::ratio(hits, takes),
            "ratio",
        ));
        metrics.push(metric(
            "http.codec_us",
            runner::codec_us(&w.http_exchanges()),
            "us",
        ));
    }
    Ok((window, metrics))
}

fn traced(args: &Args) -> Result<Report, String> {
    let order: Vec<&str> = std::iter::once(args.workload)
        .chain(WORKLOADS.iter().copied().filter(|w| *w != args.workload))
        .collect();
    let mut fixtures = Vec::with_capacity(order.len());
    for name in &order {
        fixtures.push(setup(name, args.seed)?);
    }
    let total = Duration::from_secs(args.seconds);
    let baseline = runner::run_window(fixtures[0].as_mut(), total.mul_f64(0.25));
    check_percentiles(args.workload, &baseline)?;
    let (named, mut metrics) = traced_pass(fixtures[0].as_mut(), total.mul_f64(0.4), true)?;
    metrics.push(metric(
        "trace_overhead",
        named.percentile_us(50.0) / baseline.percentile_us(50.0),
        "ratio",
    ));
    let mut windows = vec![baseline, named];
    for w in &mut fixtures[1..] {
        let (window, layer) = traced_pass(w.as_mut(), total.mul_f64(0.175), false)?;
        metrics.extend(layer);
        windows.push(window);
    }
    let wrong: u64 = windows.iter().map(|w| w.wrong.len() as u64).sum();
    Ok(Report {
        correct: wrong == 0,
        attempted: windows.iter().map(|w| w.attempted).sum(),
        failed: windows.iter().map(|w| w.failed).sum::<u64>() + wrong,
        metrics,
    })
}

/// The result line, with metrics in `names` order; every name must be
/// present exactly once with a finite value.
fn result_json(report: &Report, names: &[&str]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let mut found = report.metrics.iter().filter(|m| m.name == *name);
        let m = found
            .next()
            .ok_or_else(|| format!("metric {name} missing"))?;
        if found.next().is_some() {
            return Err(format!("metric {name} reported twice"));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    if report.metrics.len() != names.len() {
        return Err("metrics reported beyond the benchmark's list".into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let (report, names): (_, &[&str]) = if args.trace {
        (traced(&args), &PER_LAYER)
    } else {
        (untraced(&args), &END_TO_END)
    };
    let line = report.and_then(|r| {
        for m in &r.metrics {
            println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        result_json(&r, names)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload gateway_mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("gateway_mix", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload gateway_mix --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload gateway_mix --seed 7 --trace 0")).is_err());
    }

    #[test]
    fn result_line_holds_every_named_metric_once() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("b", 2.5, "us"), metric("a", 1.0, "s")],
        };
        assert_eq!(
            result_json(&report, &["a", "b"]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"us\"}}}"
        );
        assert!(result_json(&report, &["a"]).is_err());
        assert!(result_json(&report, &["a", "b", "c"]).is_err());
    }

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = json.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
