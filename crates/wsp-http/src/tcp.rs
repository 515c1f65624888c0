//! Real-TCP driver: the container-less HTTP server and a blocking
//! client, over `std::net`.
//!
//! Per the paper, the server "is only launched once the application has
//! deployed a service" — [`TcpServer::launch`] is called lazily by the
//! WSPeer `Server` node on first deployment, binds an ephemeral port and
//! serves the shared [`Router`].
//!
//! One transport core serves every connection: the readiness-driven
//! epoll reactor ([`crate::reactor`]). The reactor thread parses
//! requests and flushes responses, a worker pool runs handlers, and
//! every per-connection decision is a pure [`ConnMachine`] transition
//! with header/body/idle deadlines on the shared [`EventWheel`]. One
//! thread + workers serve tens of thousands of keep-alive connections
//! (experiment E15). Lifecycle and slot accounting (overload and drain,
//! E11) live in the pure [`DrainMachine`].
//!
//! The client side has one request/response exchange,
//! [`ConnectionPool`]'s: pooled keep-alive calls and the one-shot
//! `http_call*` helpers both read their response through it.
//!
//! [`EventWheel`]: wsp_simnet::EventWheel

use crate::codec::{
    encode_request_into, encode_response, encode_response_into, frame_len, parse_request,
    parse_response, HeadScan, HttpError,
};
use crate::conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
use crate::drain::{DrainEffect, DrainEvent, DrainMachine, DrainState};
use crate::message::{Request, Response};
use crate::reactor::{Admit, ConnProtocol, Io, JobResult, Listener, Reactor, ReactorConfig};
use crate::router::Router;
use crate::uri::HttpUri;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_simnet::Machine;

/// Tunables for [`TcpServer`]. `Default` keeps the historical deadlines
/// (flat 10 s header/body read budgets, no connection cap).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Wall-clock budget for a connection to deliver a full request
    /// *head* (request line + headers), measured from its first byte.
    /// Breach → `408 Request Timeout` and close.
    pub header_read_deadline: Duration,
    /// Additional budget for the body once the head is complete.
    /// Breach → `408 Request Timeout` and close. Staging the two stops
    /// a drip-feeding client from holding a connection for the sum of
    /// both.
    pub body_read_deadline: Duration,
    /// Cap on concurrently served connections; accepts beyond it get an
    /// immediate `503` + `Retry-After` and are closed. `None` = no cap.
    pub max_connections: Option<usize>,
    /// How long [`TcpServer::shutdown`] waits for in-flight connections
    /// to finish before cutting off stragglers.
    pub drain_deadline: Duration,
    /// `Retry-After` hint attached to connection-cap and drain
    /// rejections (rounded up to whole seconds on the wire, with the
    /// exact value in `X-WSP-Retry-After-Ms`).
    pub retry_after: Duration,
    /// Handler worker threads (`0` = default of 4), mirroring the
    /// dispatcher worker pool as the execution layer.
    pub workers: usize,
    /// Reap keep-alive connections idle longer than this. `None`
    /// (default) keeps them until the peer closes or the server drains.
    pub idle_keepalive_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            header_read_deadline: Duration::from_secs(10),
            body_read_deadline: Duration::from_secs(10),
            max_connections: None,
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_secs(1),
            workers: 0,
            idle_keepalive_timeout: None,
        }
    }
}

/// Shared between the handle and the reactor's connection hooks.
///
/// All lifecycle and slot accounting lives in the pure
/// [`DrainMachine`] ([`crate::drain`]); this shell feeds it events
/// (accepts, connection exits, drain, stop) and executes the returned
/// effects. Flag reads (`stopped`, drain latch, active count) are
/// uncontended `Mutex` peeks, so the machine costs nothing observable.
struct ServerState {
    config: ServerConfig,
    machine: DrainMachine,
    drain: parking_lot::Mutex<DrainState>,
    /// Signalled on every drain-machine step, so
    /// [`TcpServer::shutdown`] can sleep on connection-count changes
    /// instead of busy-polling.
    cv: parking_lot::Condvar,
}

impl ServerState {
    fn step(&self, event: DrainEvent) -> Vec<DrainEffect> {
        let mut drain = self.drain.lock();
        let effects = wsp_simnet::step_mut(&self.machine, &mut drain, &event);
        self.cv.notify_all();
        effects
    }

    /// Hard stop observed: the reactor closes every connection, even
    /// mid-keep-alive.
    fn stopped(&self) -> bool {
        self.drain.lock().stopped()
    }

    /// Graceful drain observed (latched): new connections are
    /// rejected, idle keep-alive connections close, requests already
    /// being read or handled run to completion (their response carries
    /// `Connection: close`).
    fn drain_began(&self) -> bool {
        self.drain.lock().drain_began()
    }

    /// Live connections (accepted, not yet closed).
    fn active(&self) -> u64 {
        self.drain.lock().active
    }
}

/// A running lightweight HTTP server.
pub struct TcpServer {
    addr: SocketAddr,
    router: Router,
    state: Arc<ServerState>,
    reactor: Reactor,
}

impl TcpServer {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and start accepting, with
    /// default [`ServerConfig`].
    pub fn launch(port: u16, router: Router) -> std::io::Result<TcpServer> {
        TcpServer::launch_with(port, router, ServerConfig::default())
    }

    /// Bind and start accepting with explicit tunables.
    pub fn launch_with(
        port: u16,
        router: Router,
        config: ServerConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            4
        } else {
            config.workers
        };
        let machine = DrainMachine {
            max_connections: config.max_connections.map(|cap| cap as u64),
        };
        let state = Arc::new(ServerState {
            config,
            drain: parking_lot::Mutex::new(machine.initial()),
            machine,
            cv: parking_lot::Condvar::new(),
        });
        let hooks = Arc::new(HttpHooks {
            state: Arc::clone(&state),
            router: router.clone(),
        });
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks,
            }],
            ReactorConfig { workers },
        )?;
        Ok(TcpServer {
            addr,
            router,
            state,
            reactor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Base URI of a service deployed at `/name`.
    pub fn service_uri(&self, name: &str) -> String {
        format!("http://127.0.0.1:{}/{}", self.addr.port(), name)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active() as usize
    }

    /// True once [`shutdown`](TcpServer::shutdown) has begun draining.
    pub fn is_draining(&self) -> bool {
        self.state.drain_began()
    }

    /// Graceful drain: stop taking new connections (latecomers get a
    /// canned `503` + `Retry-After`), let requests already admitted run
    /// to completion with `Connection: close` on their final response,
    /// and wait up to [`ServerConfig::drain_deadline`] for the active
    /// count to reach zero. Returns `true` when every connection
    /// finished inside the deadline; on `false` the stragglers are cut
    /// off abruptly, exactly as [`shutdown_now`](TcpServer::shutdown_now)
    /// would.
    pub fn shutdown(&self) -> bool {
        self.state.step(DrainEvent::BeginDrain);
        // Wake the loop so idle keep-alive connections observe the
        // drain now, not at their next readiness event.
        self.reactor.wake();
        // Sleep on the drain condvar (signalled by every ConnClosed)
        // instead of spinning on 1 ms polls.
        let deadline = Instant::now() + self.state.config.drain_deadline;
        let drained = {
            let mut drain = self.state.drain.lock();
            loop {
                if drain.active == 0 {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                self.state.cv.wait_for(&mut drain, deadline - now);
            }
        };
        self.stop_accepting();
        drained
    }

    /// Abrupt stop: no drain. Live connections are cut off as soon as
    /// the reactor observes the stop flag; this is the only path that
    /// drops admitted work.
    pub fn shutdown_now(&self) {
        self.stop_accepting();
    }

    fn stop_accepting(&self) {
        // StopListening is the join below; a second Stop is a no-op and
        // returns no effects, so re-entry (shutdown → Drop) is safe.
        self.state.step(DrainEvent::Stop);
        self.reactor.wake();
        self.reactor.join();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// The canned `503` + `Retry-After` wire bytes for a shed connection.
fn reject_bytes(config: &ServerConfig, why: &str) -> Vec<u8> {
    let mut response = Response::unavailable(why);
    response.headers.set(
        "Retry-After",
        config.retry_after.as_secs().max(1).to_string(),
    );
    response.headers.set(
        "X-WSP-Retry-After-Ms",
        config.retry_after.as_millis().to_string(),
    );
    response.headers.set("Connection", "close");
    encode_response(&response)
}

/// Admission policy for the reactor core: one `Accept` event into the
/// drain machine decides serve/reject.
struct HttpHooks {
    state: Arc<ServerState>,
    router: Router,
}

impl crate::reactor::ServerHooks for HttpHooks {
    fn on_accept(&self) -> Admit {
        match self.state.step(DrainEvent::Accept).first() {
            Some(DrainEffect::Serve) => Admit::Serve {
                proto: Box::new(HttpProto::new(self.router.clone(), Arc::clone(&self.state))),
                counted: true,
            },
            Some(DrainEffect::RejectDraining) => {
                Admit::Reject(reject_bytes(&self.state.config, "server draining"))
            }
            Some(DrainEffect::RejectAtCapacity) => {
                Admit::Reject(reject_bytes(&self.state.config, "connection limit reached"))
            }
            // Stopped while this accept raced the flag: drop it.
            _ => Admit::Drop,
        }
    }

    fn on_conn_closed(&self) {
        let effects = self.state.step(DrainEvent::ConnClosed);
        debug_assert!(
            !effects.contains(&DrainEffect::SlotUnderflow),
            "reactor connection closed without a held slot"
        );
    }

    fn stopped(&self) -> bool {
        self.state.stopped()
    }

    fn drain_began(&self) -> bool {
        self.state.drain_began()
    }
}

/// A canned error response, always closing the connection.
fn canned_close(mut response: Response) -> Vec<u8> {
    response.headers.set("Connection", "close");
    encode_response(&response)
}

/// One reactor-served HTTP connection: the byte-level shell around the
/// pure [`ConnMachine`]. Readiness happenings become [`ConnEvent`]s;
/// the returned [`ConnEffect`]s become timer/dispatch/write/close calls
/// on the reactor [`Io`].
struct HttpProto {
    router: Router,
    state: Arc<ServerState>,
    conn: ConnState,
    /// Incremental head-terminator scanner (satellite: the old
    /// whole-buffer rescan made dripped headers O(n²)).
    scan: HeadScan,
    /// Body offset of the in-progress request, once scanned.
    body_start: Option<usize>,
    /// Total frame length (head + declared body), once known.
    expected: Option<usize>,
    /// Parsed request awaiting its `Dispatch` effect.
    pending: Option<(Request, bool)>,
}

impl HttpProto {
    fn new(router: Router, state: Arc<ServerState>) -> HttpProto {
        HttpProto {
            router,
            state,
            conn: ConnMachine.initial(),
            scan: HeadScan::new(),
            body_start: None,
            expected: None,
            pending: None,
        }
    }

    fn deadline(&self, kind: TimerKind) -> Option<Duration> {
        let config = &self.state.config;
        match kind {
            TimerKind::Head => Some(config.header_read_deadline),
            TimerKind::Body => Some(config.body_read_deadline),
            TimerKind::Idle => config.idle_keepalive_timeout,
        }
    }

    /// Feed one event through the machine and execute its effects.
    fn step(&mut self, io: &mut Io<'_>, event: ConnEvent) {
        let effects = wsp_simnet::step_mut(&ConnMachine, &mut self.conn, &event);
        for effect in effects {
            match effect {
                ConnEffect::ArmTimer(kind) => {
                    if let Some(after) = self.deadline(kind) {
                        io.arm_timer(kind, after);
                    }
                }
                ConnEffect::CancelTimer(kind) => io.cancel_timer(kind),
                ConnEffect::Dispatch => {
                    let (request, client_close) = self
                        .pending
                        .take()
                        .expect("Dispatch without a parsed request");
                    let router = self.router.clone();
                    let state = Arc::clone(&self.state);
                    io.dispatch(Box::new(move || {
                        run_handler(&router, &state, request, client_close)
                    }));
                }
                ConnEffect::SendTimeout => io.queue_write(&canned_close(
                    Response::request_timeout("request read deadline exceeded"),
                )),
                ConnEffect::SendBadRequest => {
                    io.queue_write(&canned_close(Response::bad_request("unparseable request")))
                }
                // The reactor flushes whenever bytes are queued; no
                // separate kick needed.
                ConnEffect::StartWrite => {}
                ConnEffect::Close => io.close(),
            }
        }
    }

    /// Drive the parse pipeline as far as the buffered bytes allow:
    /// Idle → ReadingHead → (ReadingBody →) Handling. Also resumes
    /// pipelined requests after a response flush.
    fn pump(&mut self, io: &mut Io<'_>) {
        loop {
            match self.conn.phase {
                Phase::Idle => {
                    if io.read_buf.is_empty() {
                        return;
                    }
                    self.step(io, ConnEvent::FirstByte);
                }
                Phase::ReadingHead => {
                    if self.body_start.is_none() {
                        self.body_start = self.scan.find(io.read_buf);
                    }
                    let Some(body_start) = self.body_start else {
                        return; // head still incomplete
                    };
                    match frame_len(io.read_buf, body_start) {
                        Ok(total) => {
                            self.expected = Some(total);
                            if io.read_buf.len() >= total {
                                // Whole frame in the buffer: skip the
                                // body stage (and its timer churn).
                                if !self.finish_request(io, total) {
                                    return;
                                }
                            } else {
                                self.step(io, ConnEvent::HeadDone);
                                return;
                            }
                        }
                        Err(_) => {
                            self.step(io, ConnEvent::BadRequest);
                            return;
                        }
                    }
                }
                Phase::ReadingBody => {
                    let total = self.expected.expect("frame length set with HeadDone");
                    if io.read_buf.len() < total {
                        return;
                    }
                    if !self.finish_request(io, total) {
                        return;
                    }
                }
                // Handling / Writing: pipelined bytes wait their turn.
                _ => return,
            }
        }
    }

    /// Parse the complete frame and step `RequestDone` (true) or
    /// `BadRequest` (false).
    fn finish_request(&mut self, io: &mut Io<'_>, total: usize) -> bool {
        match parse_request(&io.read_buf[..total]) {
            Ok((request, used)) => {
                io.read_buf.drain(..used);
                self.scan.reset();
                self.body_start = None;
                self.expected = None;
                let client_close = request
                    .headers
                    .get("connection")
                    .map(|v| v.eq_ignore_ascii_case("close"))
                    .unwrap_or(false);
                self.pending = Some((request, client_close));
                self.step(io, ConnEvent::RequestDone);
                true
            }
            Err(_) => {
                self.step(io, ConnEvent::BadRequest);
                false
            }
        }
    }
}

/// Worker-side handler execution: run the router, decide the
/// `Connection` header at encode time (drain may have begun while the
/// handler ran), serialise into a pooled buffer.
fn run_handler(
    router: &Router,
    state: &ServerState,
    request: Request,
    client_close: bool,
) -> JobResult {
    let mut response = router.handle(&request);
    let close = client_close || state.drain_began();
    response
        .headers
        .set("Connection", if close { "close" } else { "keep-alive" });
    let pool = wsp_xml::BufPool::global();
    let mut wire = pool.take();
    encode_response_into(&response, &mut wire);
    pool.put(std::mem::take(&mut response.body));
    JobResult { bytes: wire, close }
}

impl ConnProtocol for HttpProto {
    fn on_open(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::Open);
        if io.draining() {
            // Admission raced the drain flag: close like an idle conn.
            self.step(io, ConnEvent::DrainBegan);
        }
    }

    fn on_data(&mut self, io: &mut Io<'_>) {
        self.pump(io);
    }

    fn on_eof(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::Eof);
    }

    fn on_timer(&mut self, io: &mut Io<'_>, kind: TimerKind) {
        self.step(io, ConnEvent::Deadline(kind));
    }

    fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
        if self.conn.closed() {
            return; // late completion for a dead connection
        }
        io.queue_write(&result.bytes);
        wsp_xml::BufPool::global().put(result.bytes);
        self.step(
            io,
            ConnEvent::HandlerDone {
                close: result.close,
            },
        );
        if io.unflushed() == 0 {
            // Nothing to write (panicked handler): the flush edge will
            // never come from the reactor, so take it now.
            self.step(io, ConnEvent::WriteFlushed);
        }
    }

    fn on_write_flushed(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::WriteFlushed);
        // Back to Idle: a pipelined request may already be buffered.
        self.pump(io);
    }

    fn on_drain(&mut self, io: &mut Io<'_>) {
        self.step(io, ConnEvent::DrainBegan);
    }
}

/// Default client-side read timeout for one-shot calls and pooled
/// exchanges, matching the historical hard-coded 10 s.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Issue one blocking request to `host:port` over a fresh connection
/// (`Connection: close` semantics).
pub fn http_call(host: &str, port: u16, request: Request) -> Result<Response, HttpError> {
    http_call_with_timeout(host, port, request, DEFAULT_CLIENT_TIMEOUT)
}

/// [`http_call`] with an explicit read timeout — callers propagating a
/// deadline cap the wait at their remaining budget instead of the flat
/// default. Runs [`ConnectionPool`]'s exchange on a fresh connection
/// that is never pooled.
pub fn http_call_with_timeout(
    host: &str,
    port: u16,
    mut request: Request,
    timeout: Duration,
) -> Result<Response, HttpError> {
    request.headers.set("Host", format!("{host}:{port}"));
    request.headers.set("Connection", "close");
    let mut stream =
        TcpStream::connect((host, port)).map_err(|e| HttpError::Connect(e.to_string()))?;
    let result = ConnectionPool::exchange(&mut stream, &request, timeout);
    wsp_xml::BufPool::global().put(std::mem::take(&mut request.body));
    result
        .map(|(response, _)| response)
        .map_err(ExchangeError::into_inner)
}

/// Issue one request to an absolute `http://` URI over a fresh
/// connection.
pub fn http_call_uri(uri: &str, request: Request) -> Result<Response, HttpError> {
    let (uri, request) = resolve_uri(uri, request)?;
    http_call(&uri.host, uri.port, request)
}

/// Split an absolute URI into its authority and, when `request` targets
/// `/`, the URI's own path and query.
fn resolve_uri(uri: &str, mut request: Request) -> Result<(HttpUri, Request), HttpError> {
    let parsed = HttpUri::parse(uri).map_err(|e| HttpError::Connect(e.to_string()))?;
    if request.target == "/" || request.target.is_empty() {
        request.target = parsed.target.clone();
    }
    Ok((parsed, request))
}

/// Counter snapshot of a [`ConnectionPool`] (see
/// [`ConnectionPool::stats`]). All counts are since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls served over a reused pooled connection.
    pub hits: u64,
    /// Calls that had to open a fresh connection.
    pub misses: u64,
    /// Pooled connections found dead (or answered `Connection: close`)
    /// and dropped instead of being reused.
    pub retired: u64,
    /// Calls retried once on a fresh connection after a pooled one
    /// failed mid-exchange.
    pub retries: u64,
}

/// A keep-alive connection pool: reuses TCP connections per authority,
/// falling back to a fresh connection when a pooled one has gone stale.
///
/// A connection is never reused after the server replied
/// `Connection: close`, and a pooled socket that died while idle (the
/// peer closed or reset it) is detected by a non-blocking peek and
/// retired before any request bytes are written to it. A pooled
/// connection that fails *before the first response byte* gets exactly
/// one retry on a fresh connection.
///
/// This is the transport ablation of experiment E7: per-call connection
/// setup dominates small-payload HTTP round trips, and pooling removes
/// it.
pub struct ConnectionPool {
    idle: parking_lot::Mutex<std::collections::HashMap<String, Vec<TcpStream>>>,
    max_idle_per_host: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    retired: std::sync::atomic::AtomicU64,
    retries: std::sync::atomic::AtomicU64,
}

impl Default for ConnectionPool {
    fn default() -> Self {
        ConnectionPool::new()
    }
}

/// Has an idle pooled connection died behind our back? A healthy idle
/// keep-alive connection has nothing to read (`WouldBlock`); EOF, an
/// error, or unsolicited bytes all mean the stream cannot carry the
/// next request/response exchange.
fn idle_connection_is_dead(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let dead = !matches!(
        stream.peek(&mut probe),
        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    dead
}

impl ConnectionPool {
    pub fn new() -> Self {
        ConnectionPool {
            idle: parking_lot::Mutex::new(std::collections::HashMap::new()),
            max_idle_per_host: 4,
            hits: Default::default(),
            misses: Default::default(),
            retired: Default::default(),
            retries: Default::default(),
        }
    }

    /// Number of idle pooled connections (all hosts).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().values().map(Vec::len).sum()
    }

    /// Hit/miss/retire/retry counters.
    pub fn stats(&self) -> PoolStats {
        use std::sync::atomic::Ordering::Relaxed;
        PoolStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            retired: self.retired.load(Relaxed),
            retries: self.retries.load(Relaxed),
        }
    }

    /// Pop pooled connections until one passes the liveness probe;
    /// sockets that died while idle are retired, not returned.
    fn take(&self, authority: &str) -> Option<TcpStream> {
        use std::sync::atomic::Ordering::Relaxed;
        loop {
            let candidate = self.idle.lock().get_mut(authority).and_then(Vec::pop)?;
            if idle_connection_is_dead(&candidate) {
                self.retired.fetch_add(1, Relaxed);
                continue;
            }
            return Some(candidate);
        }
    }

    /// Return `stream` to the pool after an exchange, or retire it when
    /// the response said it cannot carry another.
    fn settle(&self, authority: &str, stream: TcpStream, reusable: bool) {
        if !reusable {
            self.retired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return;
        }
        let mut idle = self.idle.lock();
        let conns = idle.entry(authority.to_owned()).or_default();
        if conns.len() < self.max_idle_per_host {
            conns.push(stream);
        }
    }

    /// Issue a request over a pooled (or fresh) keep-alive connection,
    /// waiting at most [`DEFAULT_CLIENT_TIMEOUT`] for the response.
    pub fn call(&self, host: &str, port: u16, request: Request) -> Result<Response, HttpError> {
        self.call_within(host, port, request, DEFAULT_CLIENT_TIMEOUT)
    }

    /// [`call`](ConnectionPool::call) to an absolute `http://` URI; a
    /// request targeting `/` takes the URI's path and query.
    pub fn call_uri(&self, uri: &str, request: Request) -> Result<Response, HttpError> {
        let (uri, request) = resolve_uri(uri, request)?;
        self.call(&uri.host, uri.port, request)
    }

    /// [`call`](ConnectionPool::call) with a per-call read timeout, so a
    /// caller propagating a deadline never waits past its remaining
    /// budget.
    pub fn call_within(
        &self,
        host: &str,
        port: u16,
        mut request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        use std::sync::atomic::Ordering::Relaxed;
        request.headers.set("Host", format!("{host}:{port}"));
        request.headers.set("Connection", "keep-alive");
        let authority = format!("{host}:{port}");
        // A pooled connection may die between the liveness probe and
        // the exchange (the race is unavoidable). Retry exactly once on
        // a fresh connection — but only when the failure provably
        // happened *before any response byte arrived* (stale-socket
        // class). Once the server has started answering it may already
        // have executed the request, and resending would duplicate a
        // possibly non-idempotent call: those failures surface instead.
        if let Some(mut stream) = self.take(&authority) {
            match ConnectionPool::exchange(&mut stream, &request, timeout) {
                Ok((response, reusable)) => {
                    self.hits.fetch_add(1, Relaxed);
                    self.settle(&authority, stream, reusable);
                    return Ok(response);
                }
                Err(ExchangeError::Retriable(_)) => {
                    self.retired.fetch_add(1, Relaxed);
                    self.retries.fetch_add(1, Relaxed);
                }
                Err(ExchangeError::Fatal(e)) => {
                    self.retired.fetch_add(1, Relaxed);
                    return Err(e);
                }
            }
        }
        self.misses.fetch_add(1, Relaxed);
        let mut stream =
            TcpStream::connect((host, port)).map_err(|e| HttpError::Connect(e.to_string()))?;
        let (response, reusable) = ConnectionPool::exchange(&mut stream, &request, timeout)
            .map_err(ExchangeError::into_inner)?;
        self.settle(&authority, stream, reusable);
        Ok(response)
    }

    /// The client's one request/response exchange: write `request`,
    /// then read exactly one response frame, waiting at most `timeout`
    /// per read. Returns the response and whether the connection may
    /// carry another exchange. HTTP/1.1 defaults to persistent
    /// connections: an absent `Connection` header means reuse unless
    /// the peer speaks HTTP/1.0 (whose default is close). Explicit
    /// `close` — or any unrecognised token — retires it.
    fn exchange(
        stream: &mut TcpStream,
        request: &Request,
        timeout: Duration,
    ) -> Result<(Response, bool), ExchangeError> {
        stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| ExchangeError::Fatal(HttpError::Io(e.to_string())))?;
        let buf_pool = wsp_xml::BufPool::global();
        let mut wire = buf_pool.take();
        encode_request_into(request, &mut wire);
        let wrote = stream.write_all(&wire);
        buf_pool.put(wire);
        // A write failure means the server never got the full request:
        // always safe to retry on a fresh connection.
        wrote.map_err(|e| ExchangeError::Retriable(HttpError::Io(e.to_string())))?;
        let mut scan = HeadScan::new();
        let mut frame: Option<usize> = None;
        let mut buf = Vec::with_capacity(4096);
        loop {
            if frame.is_none() {
                if let Some(body_start) = scan.find(&buf) {
                    frame = Some(frame_len(&buf, body_start).map_err(ExchangeError::Fatal)?);
                }
            }
            if let Some(total) = frame {
                if buf.len() >= total {
                    let (response, _) =
                        parse_response(&buf[..total]).map_err(ExchangeError::Fatal)?;
                    let reusable = match response.headers.get("connection") {
                        Some(v) => v.eq_ignore_ascii_case("keep-alive"),
                        None => !buf.starts_with(b"HTTP/1.0"),
                    };
                    return Ok((response, reusable));
                }
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) if buf.is_empty() => {
                    // Clean EOF before any response byte: the pooled
                    // socket was already closed server-side.
                    return Err(ExchangeError::Retriable(HttpError::Incomplete));
                }
                Ok(0) => return Err(ExchangeError::Fatal(HttpError::Incomplete)),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if buf.is_empty() && is_stale_socket_error(&e) => {
                    return Err(ExchangeError::Retriable(HttpError::Io(e.to_string())));
                }
                // Mid-response failures and timeouts are not provably
                // pre-execution; surface them.
                Err(e) => return Err(ExchangeError::Fatal(HttpError::Io(e.to_string()))),
            }
        }
    }
}

/// A pooled-exchange failure, split by whether a retry on a fresh
/// connection could duplicate server-side work.
#[derive(Debug)]
enum ExchangeError {
    /// The request provably never reached handler execution (connect or
    /// write error, or EOF/reset before the first response byte).
    Retriable(HttpError),
    /// Anything after the first response byte — or a timeout, where the
    /// request may still be executing.
    Fatal(HttpError),
}

impl ExchangeError {
    fn into_inner(self) -> HttpError {
        match self {
            ExchangeError::Retriable(e) | ExchangeError::Fatal(e) => e,
        }
    }
}

/// Error kinds that mean the pooled socket died while idle — the
/// request never made it to the server.
fn is_stale_socket_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Method;
    use std::sync::atomic::Ordering;

    fn test_server() -> TcpServer {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        TcpServer::launch(0, router).expect("launch server")
    }

    #[test]
    fn round_trip_over_loopback() {
        let server = test_server();
        let request = Request::post("/Echo", "text/plain", "over the wire");
        let response = http_call("127.0.0.1", server.port(), request).unwrap();
        assert!(response.is_success());
        assert_eq!(response.body_str(), "over the wire");
        server.shutdown();
    }

    #[test]
    fn listing_and_404() {
        let server = test_server();
        let listing = http_call("127.0.0.1", server.port(), Request::get("/")).unwrap();
        assert_eq!(listing.body_str(), "Echo");
        let missing = http_call("127.0.0.1", server.port(), Request::get("/Nope")).unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn dynamic_deploy_visible_without_restart() {
        let server = test_server();
        server.router().deploy(
            "Late",
            Arc::new(|_req: &Request| Response::ok("text/plain", "late!")),
        );
        let response = http_call("127.0.0.1", server.port(), Request::get("/Late")).unwrap();
        assert_eq!(response.body_str(), "late!");
        server.router().undeploy("Late");
        let gone = http_call("127.0.0.1", server.port(), Request::get("/Late")).unwrap();
        assert_eq!(gone.status, 404);
        server.shutdown();
    }

    #[test]
    fn call_uri_helper() {
        let server = test_server();
        let uri = server.service_uri("Echo");
        let mut request = Request::new(Method::Post, "/");
        request.body = b"via uri".to_vec();
        let response = http_call_uri(&uri, request).unwrap();
        assert_eq!(response.body_str(), "via uri");
        server.shutdown();
    }

    #[test]
    fn connect_error_reported() {
        // Port 1 on loopback is essentially never listening.
        let err = http_call("127.0.0.1", 1, Request::get("/")).unwrap_err();
        assert!(matches!(err, HttpError::Connect(_)));
    }

    #[test]
    fn connection_cap_rejects_with_retry_after() {
        // Capacity 1, a handler slow enough to hold the only slot.
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("text/plain", "done")
            }),
        );
        let config = ServerConfig {
            max_connections: Some(1),
            retry_after: Duration::from_millis(1500),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let port = server.port();
        let holder = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        // Wait until the slot is taken, then the next accept must shed.
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shed = http_call("127.0.0.1", port, Request::get("/Slow")).unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.headers.get("retry-after"), Some("1"));
        assert_eq!(shed.headers.get("x-wsp-retry-after-ms"), Some("1500"));
        assert_eq!(shed.headers.get("connection"), Some("close"));
        assert!(holder.join().unwrap().is_success());
        server.shutdown();
    }

    #[test]
    fn graceful_drain_finishes_in_flight_and_rejects_new() {
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(200));
                Response::ok("text/plain", "finished")
            }),
        );
        let server = TcpServer::launch_with(
            0,
            router,
            ServerConfig {
                drain_deadline: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = server.shutdown();
        assert!(drained, "in-flight call must finish inside the deadline");
        // The admitted call completed, and its response closed the
        // connection because the server was draining behind it.
        let response = in_flight.join().unwrap();
        assert_eq!(response.body_str(), "finished");
        assert_eq!(response.headers.get("connection"), Some("close"));
        // New connections are refused once the server is gone.
        assert!(http_call("127.0.0.1", port, Request::get("/Slow")).is_err());
    }

    #[test]
    fn drain_rejects_new_connections_with_503() {
        let router = Router::new();
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = gate.clone();
        router.deploy(
            "Gate",
            Arc::new(move |_req: &Request| {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Response::ok("text/plain", "released")
            }),
        );
        let server = Arc::new(TcpServer::launch(0, router).unwrap());
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Gate")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Start the drain from another thread (it blocks until idle).
        let drainer = {
            let server = server.clone();
            std::thread::spawn(move || server.shutdown())
        };
        while !server.is_draining() {
            std::thread::sleep(Duration::from_millis(2));
        }
        // While draining, a new connection gets the busy rejection.
        let rejected = http_call("127.0.0.1", port, Request::get("/Gate")).unwrap();
        assert_eq!(rejected.status, 503);
        assert!(rejected.headers.get("retry-after").is_some());
        gate.store(true, Ordering::SeqCst);
        assert!(drainer.join().unwrap(), "drain completes once gate opens");
        assert_eq!(in_flight.join().unwrap().body_str(), "released");
    }

    #[test]
    fn slow_client_gets_408_on_header_deadline() {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        let config = ServerConfig {
            header_read_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Drip half a request line and stall: the head never completes.
        stream.write_all(b"GET /Ec").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let (response, _) = parse_response(&buf).expect("server answered before closing");
        assert_eq!(response.status, 408);
        server.shutdown();
    }

    #[test]
    fn slow_body_gets_408_on_body_deadline() {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        let config = ServerConfig {
            header_read_deadline: Duration::from_secs(5),
            body_read_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = TcpServer::launch_with(0, router, config).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Complete head promising a body that never arrives in full.
        stream
            .write_all(b"POST /Echo HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let (response, _) = parse_response(&buf).expect("server answered before closing");
        assert_eq!(response.status, 408);
        server.shutdown();
    }

    /// A declared length that overflows `body_start + length` is a bad
    /// request, not a reactor-thread panic: the next connection is
    /// still served.
    #[test]
    fn overflowing_content_length_gets_400_and_server_survives() {
        let server = test_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream
            .write_all(b"POST /Echo HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        let (response, _) = parse_response(&buf).expect("server answered before closing");
        assert_eq!(response.status, 400);
        let request = Request::post("/Echo", "text/plain", "still here");
        let response = http_call("127.0.0.1", server.port(), request).unwrap();
        assert_eq!(response.body_str(), "still here");
        server.shutdown();
    }

    #[test]
    fn shutdown_now_cuts_off_without_drain() {
        let server = test_server();
        // Idle keep-alive connection pinned open by a pool.
        let pool = ConnectionPool::new();
        pool.call("127.0.0.1", server.port(), Request::get("/Echo"))
            .unwrap();
        server.shutdown_now();
        // The server stops accepting immediately.
        assert!(http_call("127.0.0.1", server.port(), Request::get("/Echo")).is_err());
    }

    #[test]
    fn concurrent_clients() {
        let server = test_server();
        let port = server.port();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("client-{i}");
                    let resp = http_call(
                        "127.0.0.1",
                        port,
                        Request::post("/Echo", "text/plain", body.clone()),
                    )
                    .unwrap();
                    assert_eq!(resp.body_str(), body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    /// A request dripped one byte per write, then two whole requests
    /// pipelined in one write — the incremental head scan and the
    /// machine's Writing → Idle re-pump must handle both.
    #[test]
    fn dripped_then_pipelined_requests_on_one_connection() {
        let server = test_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = b"POST /Echo HTTP/1.1\r\nContent-Length: 5\r\n\r\ndrip!";
        for &byte in request.iter() {
            stream.write_all(&[byte]).unwrap();
            stream.flush().unwrap();
        }
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let first = loop {
            match parse_response(&buf) {
                Ok((response, used)) => {
                    buf.drain(..used);
                    break response;
                }
                Err(HttpError::Incomplete) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert_ne!(n, 0, "server closed before answering the dripped request");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(first.body_str(), "drip!");

        // Two requests in one TCP segment; two responses must come back
        // in order on the same connection.
        let pipelined = b"POST /Echo HTTP/1.1\r\nContent-Length: 3\r\n\r\none\
                          POST /Echo HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo";
        stream.write_all(pipelined).unwrap();
        let mut bodies = Vec::new();
        while bodies.len() < 2 {
            match parse_response(&buf) {
                Ok((response, used)) => {
                    buf.drain(..used);
                    bodies.push(response.body_str().into_owned());
                }
                Err(HttpError::Incomplete) => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert_ne!(n, 0, "server closed mid-pipeline");
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(bodies, ["one", "two"]);
        server.shutdown();
    }

    /// A client that reads its response slowly forces the reactor into
    /// `EPOLLOUT` backpressure; every byte must still arrive, and other
    /// connections must stay responsive meanwhile.
    #[test]
    fn slow_reader_gets_the_full_response_under_backpressure() {
        let body: Vec<u8> = std::iter::repeat(b"wsp".iter().copied())
            .flatten()
            .take(1 << 20)
            .collect();
        let router = Router::new();
        let served = body.clone();
        router.deploy(
            "Big",
            Arc::new(move |_req: &Request| {
                Response::ok("application/octet-stream", served.clone())
            }),
        );
        let server = TcpServer::launch(0, router).unwrap();
        let mut slow = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        slow.write_all(b"GET /Big HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        // Give the write buffer time to fill so EPOLLOUT interest is
        // genuinely exercised, then drain in small sips with pauses.
        std::thread::sleep(Duration::from_millis(100));
        let port = server.port();
        let mut received = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut sips = 0u32;
        loop {
            match slow.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    received.extend_from_slice(&chunk[..n]);
                    sips += 1;
                    if sips.is_multiple_of(8) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // The reactor thread must not be wedged behind the
                    // slow writer: a second client gets served mid-drain.
                    if sips == 16 {
                        let other = http_call("127.0.0.1", port, Request::get("/Big")).unwrap();
                        assert!(other.is_success());
                    }
                }
                Err(e) => panic!("read failed mid-backpressure: {e}"),
            }
        }
        let (response, _) = parse_response(&received).unwrap();
        assert_eq!(response.body.len(), body.len());
        assert_eq!(response.body, body);
        server.shutdown();
    }

    /// Drain completion is condvar-signalled: shutdown must return as
    /// soon as the last connection closes, well before the deadline.
    #[test]
    fn shutdown_returns_as_soon_as_drain_completes() {
        let router = Router::new();
        router.deploy(
            "Slow",
            Arc::new(|_req: &Request| {
                std::thread::sleep(Duration::from_millis(150));
                Response::ok("text/plain", "done")
            }),
        );
        let server = TcpServer::launch_with(
            0,
            router,
            ServerConfig {
                drain_deadline: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let port = server.port();
        let in_flight = std::thread::spawn(move || {
            http_call("127.0.0.1", port, Request::get("/Slow")).unwrap()
        });
        while server.active_connections() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let begun = Instant::now();
        let drained = server.shutdown();
        let waited = begun.elapsed();
        assert!(drained);
        assert!(
            waited < Duration::from_secs(10),
            "shutdown must track the connection close, not the 30 s deadline (took {waited:?})"
        );
        assert!(in_flight.join().unwrap().is_success());
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::sync::Arc;

    fn echo_server() -> TcpServer {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        TcpServer::launch(0, router).unwrap()
    }

    #[test]
    fn pool_reuses_connections() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        for i in 0..5 {
            let response = pool
                .call(
                    "127.0.0.1",
                    server.port(),
                    Request::post("/Echo", "text/plain", format!("r{i}")),
                )
                .unwrap();
            assert_eq!(response.body_str(), format!("r{i}"));
        }
        // After the first call the connection is pooled and reused.
        assert_eq!(pool.idle_count(), 1);
        server.shutdown();
    }

    #[test]
    fn pool_recovers_from_stale_connection() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        let port = server.port();
        pool.call("127.0.0.1", port, Request::get("/Echo")).unwrap();
        assert_eq!(pool.idle_count(), 1);
        // Restarting the server kills the pooled connection.
        server.shutdown();
        std::thread::sleep(Duration::from_millis(400));
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|_r: &Request| Response::ok("text/plain", "back")),
        );
        // Rebind on the same port (may need a few tries on busy CI).
        let server2 = (0..20)
            .find_map(|_| {
                std::thread::sleep(Duration::from_millis(25));
                TcpServer::launch(port, router.clone()).ok()
            })
            .expect("rebind same port");
        let response = pool.call("127.0.0.1", port, Request::get("/Echo")).unwrap();
        assert_eq!(response.body_str(), "back");
        server2.shutdown();
    }

    #[test]
    fn keep_alive_and_close_interoperate() {
        let server = echo_server();
        // A plain (close) client against the keep-alive server.
        let response = http_call("127.0.0.1", server.port(), Request::get("/Echo")).unwrap();
        assert!(response.is_success());
        assert_eq!(response.headers.get("connection"), Some("close"));
        // A pooled client sees keep-alive.
        let pool = ConnectionPool::new();
        let response = pool
            .call("127.0.0.1", server.port(), Request::get("/Echo"))
            .unwrap();
        assert_eq!(response.headers.get("connection"), Some("keep-alive"));
        server.shutdown();
    }

    /// A raw server that *advertises* keep-alive but closes the socket
    /// after every response — the lying-server case the pool must
    /// survive without ever writing a request onto a dead connection it
    /// could have probed first.
    fn lying_close_server() -> (std::net::TcpListener, u16, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let accept = listener.try_clone().unwrap();
        let join = std::thread::spawn(move || {
            while let Ok((mut conn, _)) = accept.accept() {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    match parse_request(&buf) {
                        Ok(_) => break,
                        Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                            Ok(0) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            Err(_) => return,
                        },
                        Err(_) => return,
                    }
                }
                let body = b"pong";
                let head = format!(
                    "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                let _ = conn.write_all(head.as_bytes());
                let _ = conn.write_all(body);
                // Close (drop) despite having advertised keep-alive.
            }
        });
        (listener, port, join)
    }

    #[test]
    fn pool_survives_server_that_closes_after_each_response() {
        let (listener, port, join) = lying_close_server();
        let pool = ConnectionPool::new();
        for i in 0..5 {
            let response = pool
                .call("127.0.0.1", port, Request::get("/ping"))
                .unwrap_or_else(|e| panic!("call {i}: {e}"));
            assert_eq!(response.body_str(), "pong");
        }
        let stats = pool.stats();
        // The lying keep-alive header pools each dead connection; every
        // later call must detect and retire it instead of reusing it.
        assert!(stats.retired >= 4, "{stats:?}");
        assert!(stats.misses >= 1, "{stats:?}");
        // The peek probe catches idle deaths before any bytes are sent,
        // so calls succeed without burning the single retry: hits only
        // happen if a probe raced the close, and then the retry covers
        // it — either way every call succeeded above.
        drop(listener); // unblocks accept
        drop(join);
    }

    #[test]
    fn pool_never_reuses_connection_after_explicit_close() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        let port = server.port();
        // Ask the server to close: its handler echoes our Connection
        // preference back, so sending `close` gets a close response.
        let mut request = Request::get("/Echo");
        request.headers.set("Host", format!("127.0.0.1:{port}"));
        request.headers.set("Connection", "close");
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let (response, reusable) =
            ConnectionPool::exchange(&mut stream, &request, DEFAULT_CLIENT_TIMEOUT).unwrap();
        assert_eq!(
            response.headers.get("connection"),
            Some("close"),
            "server honoured the close request"
        );
        assert!(!reusable);
        pool.settle(&format!("127.0.0.1:{port}"), stream, reusable);
        assert_eq!(pool.idle_count(), 0, "closed connection must not pool");
        assert_eq!(pool.stats().retired, 1);
        server.shutdown();
    }

    #[test]
    fn pool_counts_hits_and_misses() {
        let server = echo_server();
        let pool = ConnectionPool::new();
        for _ in 0..3 {
            pool.call("127.0.0.1", server.port(), Request::get("/Echo"))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.retired, 0, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn pool_is_shared_across_threads() {
        let server = echo_server();
        let pool = Arc::new(ConnectionPool::new());
        let port = server.port();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for j in 0..10 {
                        let body = format!("t{i}-{j}");
                        let r = pool
                            .call(
                                "127.0.0.1",
                                port,
                                Request::post("/Echo", "text/plain", body.clone()),
                            )
                            .unwrap();
                        assert_eq!(r.body_str(), body);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.idle_count() >= 1 && pool.idle_count() <= 4);
        server.shutdown();
    }

    /// A raw scripted server: answers each accepted connection with the
    /// given canned responses in order (reading one request before
    /// each), then closes. Returns the number of requests it received.
    fn scripted_server(
        scripts: Vec<Vec<&'static str>>,
    ) -> (
        u16,
        Arc<std::sync::atomic::AtomicUsize>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let requests = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = requests.clone();
        let join = std::thread::spawn(move || {
            for script in scripts {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                for response in script {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    loop {
                        match parse_request(&buf) {
                            Ok(_) => break,
                            Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                                Ok(0) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                Err(_) => return,
                            },
                            Err(_) => return,
                        }
                    }
                    seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let _ = conn.write_all(response.as_bytes());
                }
                // Drop the connection between scripts.
            }
        });
        (port, requests, join)
    }

    #[test]
    fn absent_connection_header_defaults_to_reuse_on_http11() {
        // HTTP/1.1 without any Connection header: persistent by
        // default, so the pool must reuse the socket.
        let (port, requests, join) = scripted_server(vec![vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]]);
        let pool = ConnectionPool::new();
        for _ in 0..2 {
            let response = pool.call("127.0.0.1", port, Request::get("/")).unwrap();
            assert_eq!(response.body_str(), "ok");
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "both calls on one connection: {stats:?}");
        assert_eq!(requests.load(std::sync::atomic::Ordering::SeqCst), 2);
        drop(join);
    }

    #[test]
    fn http10_response_without_keep_alive_is_retired() {
        // HTTP/1.0 defaults to close: absent header means retire.
        let (port, _requests, join) = scripted_server(vec![
            vec!["HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"],
            vec!["HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        for _ in 0..2 {
            let response = pool.call("127.0.0.1", port, Request::get("/")).unwrap();
            assert_eq!(response.body_str(), "ok");
        }
        let stats = pool.stats();
        assert_eq!(pool.idle_count(), 0, "HTTP/1.0 must not pool");
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.retired, 2, "{stats:?}");
        drop(join);
    }

    #[test]
    fn pool_does_not_resend_after_partial_response() {
        // First exchange pools the connection; the second gets a
        // truncated response (head bytes, then close). The server may
        // already have executed that request, so the pool must surface
        // the failure rather than resend it on a fresh connection.
        let (port, requests, join) = scripted_server(vec![
            vec![
                "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
                "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 99\r\n\r\ntruncated",
            ],
            // A third connection would only be opened by the buggy
            // retry; scripting it lets the duplicate show up in the
            // request count instead of a client-side connect error.
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        let timeout = Duration::from_millis(500);
        pool.call_within("127.0.0.1", port, Request::get("/"), timeout)
            .unwrap();
        let err = pool
            .call_within("127.0.0.1", port, Request::get("/"), timeout)
            .unwrap_err();
        assert!(
            matches!(err, HttpError::Incomplete | HttpError::Io(_)),
            "mid-response death must surface: {err:?}"
        );
        let stats = pool.stats();
        assert_eq!(stats.retries, 0, "no retry after response bytes: {stats:?}");
        assert_eq!(
            requests.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "the possibly-executed request must not be resent"
        );
        drop(join);
    }

    #[test]
    fn overflowing_response_length_is_an_error_not_a_panic() {
        const HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nx";
        let (port, _requests, join) = scripted_server(vec![vec![HEAD], vec![HEAD]]);
        let pool = ConnectionPool::new();
        let pooled = pool.call("127.0.0.1", port, Request::get("/")).unwrap_err();
        assert!(matches!(pooled, HttpError::Malformed(_)), "{pooled:?}");
        let fresh = http_call("127.0.0.1", port, Request::get("/")).unwrap_err();
        assert!(matches!(fresh, HttpError::Malformed(_)), "{fresh:?}");
        drop(join);
    }

    #[test]
    fn pool_retries_when_pooled_connection_dies_before_any_response_byte() {
        // The pooled socket is closed server-side after the first
        // exchange; the second write (or its first read) fails before
        // any response byte, which IS provably safe to retry.
        let (port, requests, join) = scripted_server(vec![
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
            vec!["HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"],
        ]);
        let pool = ConnectionPool::new();
        let timeout = Duration::from_millis(500);
        pool.call_within("127.0.0.1", port, Request::get("/"), timeout)
            .unwrap();
        // Let the server-side close land so the liveness probe (or the
        // exchange) sees a dead socket rather than a live one.
        std::thread::sleep(Duration::from_millis(100));
        let response = pool
            .call_within("127.0.0.1", port, Request::get("/"), timeout)
            .unwrap();
        assert_eq!(response.body_str(), "ok");
        assert_eq!(requests.load(std::sync::atomic::Ordering::SeqCst), 2);
        drop(join);
    }
}
