//! E15 — connection-density ceiling: readiness-driven reactor vs
//! thread-per-connection under keep-alive fan-in.
//!
//! The experiment answers the question PR 8's tentpole exists for: how
//! many *concurrently open* keep-alive connections can each server core
//! sustain, and at what memory cost per connection?
//!
//! Measurement protocol (three processes, because `ulimit -n` is 20 000
//! here and one process cannot hold both ends of 10 000 sockets):
//!
//! 1. The orchestrator (`e15` bin) spawns one **server subprocess** per
//!    mode so the two runs cannot pollute each other's RSS baseline
//!    (freed pages from run A would be silently reused by run B).
//! 2. The server subprocess launches the requested server (the
//!    reactor-backed [`TcpServer`], or the thread-per-connection
//!    baseline private to this module), notes its own `VmRSS`, then
//!    spawns a **client subprocess** that opens N keep-alive
//!    connections and completes one request on every one of them
//!    (proving each connection is genuinely served, not just parked in
//!    a backlog).
//! 3. With all N connections still open, the client prints `READY`; the
//!    server process re-reads `VmRSS` — the delta divided by the held
//!    connection count is the marginal memory per connection — and
//!    releases the client to time a latency sample over the live
//!    connections before anything is torn down.
//!
//! The thread-per-connection baseline runs at a tenth of the reactor's
//! target: 10 000 OS threads on this one-core box is not a benchmark,
//! it is a fork bomb, so its row is normalised per-connection instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsp_http::{
    encode_response, frame_len, parse_request, HeadScan, Request, Response, Router, TcpServer,
};
use wsp_simnet::metrics::percentile;

/// One measured server mode.
#[derive(Debug, Clone)]
pub struct E15Row {
    pub mode: String,
    /// Connections the client was asked to open.
    pub target_conns: usize,
    /// Connections the server counted as concurrently active at the
    /// moment the client reported `READY`.
    pub held_conns: usize,
    /// Connections that completed a full request/response round trip.
    pub wave_ok: usize,
    pub rss_before_kb: u64,
    pub rss_after_kb: u64,
    /// Marginal resident memory per held connection.
    pub kb_per_conn: f64,
    /// Request latency over live connections, all N still open.
    pub p50_us: u64,
    pub p99_us: u64,
    pub wall_ms: u64,
}

/// `VmRSS` of the calling process, in KiB.
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

fn request_bytes() -> Vec<u8> {
    b"GET /Echo HTTP/1.1\r\nHost: e15\r\nContent-Length: 0\r\n\r\n".to_vec()
}

/// Read exactly one HTTP response frame off `stream` using the same
/// incremental scanner the server runs, so a drip or a short read never
/// confuses the measurement.
fn read_one_response(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut scan = HeadScan::new();
    let mut chunk = [0u8; 4096];
    let mut total: Option<usize> = None;
    loop {
        if let Some(need) = total {
            if buf.len() >= need {
                return Ok(());
            }
        } else if let Some(body_start) = scan.find(&buf) {
            let frame = frame_len(&buf, body_start)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            total = Some(frame);
            continue;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Client subprocess body: open `conns` keep-alive connections to
/// `addr`, complete one request on each, report `READY ok=<n>`, wait
/// for `GO` on stdin, then time `sample` request round trips over the
/// still-open connections and report `RESULT p50_us=<x> p99_us=<y>`.
pub fn client_main(addr: &str, conns: usize, sample: usize) -> ! {
    let request = request_bytes();
    let mut socks: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if attempt < 5 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20 << attempt));
                    let _ = e;
                }
                Err(e) => {
                    eprintln!("e15 client: connect failed after retries: {e}");
                    std::process::exit(2);
                }
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set_read_timeout");
        stream.set_nodelay(true).ok();
        socks.push(stream);
    }

    // Wave 1: a full round trip on every connection. Writes first, then
    // reads, so the server handles the whole population concurrently
    // rather than one lockstep connection at a time.
    for s in &mut socks {
        if s.write_all(&request).is_err() {
            break;
        }
    }
    let mut ok = 0usize;
    for s in &mut socks {
        if read_one_response(s).is_ok() {
            ok += 1;
        }
    }
    println!("READY ok={ok}");
    std::io::stdout().flush().ok();

    let mut line = String::new();
    std::io::stdin().read_line(&mut line).ok();

    // Latency sample over live connections — every other connection in
    // the population stays open, so the number reflects service under
    // density, not an idle server.
    let mut lat: Vec<u64> = Vec::with_capacity(sample);
    for s in socks.iter_mut().take(sample) {
        let t = Instant::now();
        if s.write_all(&request).is_err() || read_one_response(s).is_err() {
            continue;
        }
        lat.push(t.elapsed().as_micros() as u64);
    }
    lat.sort_unstable();
    println!(
        "RESULT p50_us={} p99_us={}",
        percentile(&lat, 50.0),
        percentile(&lat, 99.0)
    );
    std::io::stdout().flush().ok();
    std::process::exit(0);
}

fn parse_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("{key}=");
    let rest = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&marker))?;
    rest.parse().ok()
}

fn parse_field_f64(line: &str, key: &str) -> Option<f64> {
    let marker = format!("{key}=");
    let rest = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&marker))?;
    rest.parse().ok()
}

/// The thread-per-connection baseline: one blocking thread per
/// accepted connection, each running a keep-alive loop over the shared
/// codec and [`Router`]. It has no drain, deadlines or connection cap;
/// it exists only to price the pre-reactor serving model. Returns the
/// bound address and the live-connection count. Its threads are never
/// joined: the server subprocess exits right after printing its row.
fn launch_threaded(router: Router) -> std::io::Result<(SocketAddr, Arc<AtomicUsize>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let active = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&active);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let router = router.clone();
            let active = Arc::clone(&counted);
            active.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                serve_keep_alive(stream, &router);
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    Ok((addr, active))
}

/// Serve requests on one connection until the peer closes it or sends
/// something unparseable.
fn serve_keep_alive(mut stream: TcpStream, router: &Router) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut scan = HeadScan::new();
    loop {
        if let Some(body_start) = scan.find(&buf) {
            let Ok(total) = frame_len(&buf, body_start) else {
                return;
            };
            if buf.len() >= total {
                let Ok((request, used)) = parse_request(&buf[..total]) else {
                    return;
                };
                buf.drain(..used);
                scan.reset();
                let mut response = router.handle(&request);
                response.headers.set("Connection", "keep-alive");
                if stream.write_all(&encode_response(&response)).is_err() {
                    return;
                }
                continue;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Server subprocess body: launch the server in `mode_name` (the
/// reactor-backed [`TcpServer`] or the thread-per-connection baseline),
/// drive the client subprocess through the READY/GO/RESULT protocol,
/// and print a single `ROW ...` line for the orchestrator.
pub fn serve_mode(mode_name: &str, conns: usize, sample: usize) -> std::io::Result<E15Row> {
    let router = Router::new();
    router.deploy(
        "Echo",
        Arc::new(|_req: &Request| Response::ok("text/plain", "ok")),
    );
    let (addr, active_connections): (SocketAddr, Box<dyn Fn() -> usize>) = match mode_name {
        "reactor" => {
            // Default config: 4 handler workers, no connection cap.
            let server = TcpServer::launch(0, router)?;
            (server.addr(), Box::new(move || server.active_connections()))
        }
        "threaded" => {
            let (addr, active) = launch_threaded(router)?;
            (addr, Box::new(move || active.load(Ordering::SeqCst)))
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown mode {other:?}"),
            ))
        }
    };
    let addr = addr.to_string();

    let started = Instant::now();
    let rss_before_kb = rss_kb();

    let mut child = Command::new(std::env::current_exe()?)
        .args([
            "--e15-client",
            &addr,
            &conns.to_string(),
            &sample.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("client stdin");
    let mut lines = BufReader::new(child.stdout.take().expect("client stdout")).lines();

    let ready = lines
        .next()
        .transpose()?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    let wave_ok = parse_field(&ready, "ok").unwrap_or(0) as usize;
    // The client holds every connection open right now: this is the
    // density measurement.
    let held_conns = active_connections();
    let rss_after_kb = rss_kb();

    writeln!(stdin, "GO")?;
    stdin.flush()?;
    let result = lines
        .next()
        .transpose()?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    let p50_us = parse_field(&result, "p50_us").unwrap_or(0);
    let p99_us = parse_field(&result, "p99_us").unwrap_or(0);
    child.wait()?;

    let wall_ms = started.elapsed().as_millis() as u64;
    let kb_per_conn = rss_after_kb.saturating_sub(rss_before_kb) as f64 / held_conns.max(1) as f64;

    Ok(E15Row {
        mode: mode_name.to_owned(),
        target_conns: conns,
        held_conns,
        wave_ok,
        rss_before_kb,
        rss_after_kb,
        kb_per_conn,
        p50_us,
        p99_us,
        wall_ms,
    })
}

/// Serialise a row as the one-line wire format between the server
/// subprocess and the orchestrator.
pub fn row_to_line(row: &E15Row) -> String {
    format!(
        "ROW mode={} target_conns={} held_conns={} wave_ok={} rss_before_kb={} rss_after_kb={} kb_per_conn={:.2} p50_us={} p99_us={} wall_ms={}",
        row.mode,
        row.target_conns,
        row.held_conns,
        row.wave_ok,
        row.rss_before_kb,
        row.rss_after_kb,
        row.kb_per_conn,
        row.p50_us,
        row.p99_us,
        row.wall_ms,
    )
}

/// Parse the `ROW ...` line back into a row (orchestrator side).
pub fn row_from_line(line: &str) -> Option<E15Row> {
    let mode = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("mode="))?
        .to_owned();
    Some(E15Row {
        mode,
        target_conns: parse_field(line, "target_conns")? as usize,
        held_conns: parse_field(line, "held_conns")? as usize,
        wave_ok: parse_field(line, "wave_ok")? as usize,
        rss_before_kb: parse_field(line, "rss_before_kb")?,
        rss_after_kb: parse_field(line, "rss_after_kb")?,
        kb_per_conn: parse_field_f64(line, "kb_per_conn")?,
        p50_us: parse_field(line, "p50_us")?,
        p99_us: parse_field(line, "p99_us")?,
        wall_ms: parse_field(line, "wall_ms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_nonzero_on_linux() {
        assert!(rss_kb() > 0);
    }

    #[test]
    fn row_line_round_trips() {
        let row = E15Row {
            mode: "reactor".into(),
            target_conns: 10_000,
            held_conns: 10_000,
            wave_ok: 9_999,
            rss_before_kb: 5_000,
            rss_after_kb: 25_000,
            kb_per_conn: 2.0,
            p50_us: 120,
            p99_us: 900,
            wall_ms: 3_141,
        };
        let back = row_from_line(&row_to_line(&row)).expect("parse");
        assert_eq!(back.mode, "reactor");
        assert_eq!(back.target_conns, 10_000);
        assert_eq!(back.held_conns, 10_000);
        assert_eq!(back.wave_ok, 9_999);
        assert_eq!(back.rss_after_kb, 25_000);
        assert!((back.kb_per_conn - 2.0).abs() < 1e-9);
        assert_eq!(back.p99_us, 900);
        assert_eq!(back.wall_ms, 3_141);
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile::<u64>(&[], 99.0), 0);
    }
}
