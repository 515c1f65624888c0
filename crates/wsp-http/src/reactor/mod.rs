//! The readiness-driven transport core: one epoll loop, many
//! connections, a worker pool for handler execution.
//!
//! ```text
//!                 ┌────────────────────────────────────────┐
//!                 │               reactor thread           │
//!   accept ──────►│ epoll_wait ─► read ─► ConnProtocol ────┼──► Job ──► worker pool
//!                 │     ▲                 (parse, decide)  │              │
//!                 │     │ eventfd waker                    │              │
//!                 │     └────────────────◄─────────────────┼── JobResult ┘
//!                 │ EventWheel: header/body/idle deadlines │   (queue write,
//!                 └────────────────────────────────────────┘    re-arm EPOLLOUT)
//! ```
//!
//! The reactor owns the sockets and the byte buffers; it knows nothing
//! about HTTP or P2PS. Each connection carries a [`ConnProtocol`] that
//! turns readiness happenings into decisions — the HTTP protocol
//! object drives the pure [`crate::conn::ConnMachine`], the P2PS pipe
//! protocol frames length-prefixed messages — and both hand handler
//! execution to the shared worker pool, keeping the reactor thread
//! parse-only. PR 7's [`EventWheel`] is the single timer structure:
//! header/body deadlines and idle keep-alive timeouts are wheel
//! entries, and the `epoll_wait` timeout is simply the wheel's next
//! due time.
//!
//! Listeners are admitted through [`ServerHooks`], which wraps the
//! drain lifecycle ([`crate::drain::DrainMachine`] for HTTP): accept →
//! serve / canned-reject / drop, close → slot release, plus the
//! stopped/drain flags the loop polls after every wake. Several
//! listeners (HTTP and P2PS) can share one reactor — one I/O core for
//! both bindings.

pub mod sys;

use crate::conn::TimerKind;
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use wsp_simnet::{Dur, EventKey, EventWheel, Time};

/// Work a protocol hands to the pool: runs on a worker thread, returns
/// the bytes to write (and whether to close after flushing them).
pub type Job = Box<dyn FnOnce() -> JobResult + Send + 'static>;

/// What a worker produced for its connection.
pub struct JobResult {
    /// Wire bytes to append to the connection's write buffer.
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes flush.
    pub close: bool,
}

/// What to do with a freshly accepted socket.
pub enum Admit {
    /// Serve it with this protocol. `counted` says the accept consumed
    /// a tracked slot, released through [`ServerHooks::on_conn_closed`].
    Serve {
        proto: Box<dyn ConnProtocol>,
        counted: bool,
    },
    /// Write these bytes, then close (canned rejection — 503s don't
    /// hold drain slots).
    Reject(Vec<u8>),
    /// Drop the socket silently (listener already stopped).
    Drop,
}

/// A listener's policy surface: admission, slot accounting and the
/// lifecycle flags the loop polls. For HTTP this wraps the
/// [`crate::drain::DrainMachine`].
pub trait ServerHooks: Send + Sync {
    fn on_accept(&self) -> Admit;
    /// A counted connection fully closed.
    fn on_conn_closed(&self);
    /// The loop exits once every listener's hooks report stopped.
    fn stopped(&self) -> bool;
    /// Latched graceful-drain flag; on the rising edge the loop calls
    /// [`ConnProtocol::on_drain`] on each of this listener's
    /// connections.
    fn drain_began(&self) -> bool;
}

/// Per-connection protocol logic, driven by the reactor with an [`Io`]
/// context for its decisions. Implementations keep their *decision*
/// state in a pure machine (explorable by `wsp-check`) and only the
/// byte-level bookkeeping here.
pub trait ConnProtocol: Send {
    /// The socket is registered; arm idle timers, send greetings.
    fn on_open(&mut self, _io: &mut Io<'_>) {}
    /// New bytes appended to `io.read_buf`. Consume what parses.
    fn on_data(&mut self, io: &mut Io<'_>);
    /// Peer closed its write side. Default: drop the connection.
    fn on_eof(&mut self, io: &mut Io<'_>) {
        io.abort();
    }
    /// A wheel deadline this protocol armed fired.
    fn on_timer(&mut self, _io: &mut Io<'_>, _kind: TimerKind) {}
    /// A dispatched job finished.
    fn on_job_done(&mut self, _io: &mut Io<'_>, _result: JobResult) {}
    /// The write buffer fully drained to the socket.
    fn on_write_flushed(&mut self, _io: &mut Io<'_>) {}
    /// This listener began a graceful drain.
    fn on_drain(&mut self, _io: &mut Io<'_>) {}
}

/// What a protocol may do when the reactor calls into it. Buffer
/// access is direct; everything with loop-global consequences (timers,
/// jobs, closing) is collected and applied after the callback returns.
pub struct Io<'a> {
    /// All buffered unconsumed inbound bytes. Drain what parses.
    pub read_buf: &'a mut Vec<u8>,
    write_buf: &'a mut Vec<u8>,
    write_pos: usize,
    draining: bool,
    actions: &'a mut Actions,
}

impl Io<'_> {
    /// Append response bytes; the reactor flushes and manages
    /// `EPOLLOUT` interest under backpressure.
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet on the wire.
    pub fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Hand work to the worker pool; the result comes back via
    /// [`ConnProtocol::on_job_done`] (or is dropped if the connection
    /// died meanwhile).
    pub fn dispatch(&mut self, job: Job) {
        self.actions.jobs.push(job);
    }

    /// Arm `kind`'s deadline `after` from now on the reactor wheel.
    pub fn arm_timer(&mut self, kind: TimerKind, after: Duration) {
        self.actions.timer_ops.push(TimerOp::Arm(kind, after));
    }

    /// Cancel `kind`'s deadline; a no-op if it is not armed.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.timer_ops.push(TimerOp::Cancel(kind));
    }

    /// Close once the write buffer drains (immediately if empty).
    pub fn close(&mut self) {
        self.actions.close = true;
    }

    /// Close now, discarding unflushed bytes.
    pub fn abort(&mut self) {
        self.actions.abort = true;
    }

    /// Has this listener begun a graceful drain?
    pub fn draining(&self) -> bool {
        self.draining
    }
}

/// Timer intents are kept in issue order: a protocol that arms and then
/// cancels the same kind within one callback must end up disarmed.
enum TimerOp {
    Arm(TimerKind, Duration),
    Cancel(TimerKind),
}

#[derive(Default)]
struct Actions {
    timer_ops: Vec<TimerOp>,
    jobs: Vec<Job>,
    close: bool,
    abort: bool,
}

/// One listening socket plus its admission policy.
pub struct Listener {
    pub socket: TcpListener,
    pub hooks: Arc<dyn ServerHooks>,
}

pub struct ReactorConfig {
    /// Handler worker threads (the execution layer). The reactor
    /// thread itself only parses and flushes.
    pub workers: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 4 }
    }
}

/// Handle to a spawned reactor: wake it (after flipping lifecycle
/// flags in the hooks) and join it once stopped.
pub struct Reactor {
    waker: Arc<EventFd>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    pub fn spawn(listeners: Vec<Listener>, config: ReactorConfig) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(EventFd::new()?);
        epoll.add(waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        for (k, l) in listeners.iter().enumerate() {
            l.socket.set_nonblocking(true)?;
            epoll.add(
                l.socket.as_raw_fd(),
                EPOLLIN,
                TOKEN_LISTENER_BASE + k as u64,
            )?;
        }

        let (jobs_tx, jobs_rx) = crossbeam_channel::unbounded::<Work>();
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<Done>();
        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let rx = jobs_rx.clone();
            let tx = done_tx.clone();
            let wake = Arc::clone(&waker);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wsp-reactor-worker-{i}"))
                    .spawn(move || worker_loop(rx, tx, wake))
                    .expect("spawn reactor worker"),
            );
        }
        drop(jobs_rx);
        drop(done_tx);

        let mut inner = Loop {
            epoll,
            waker: Arc::clone(&waker),
            listeners,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            wheel: EventWheel::new(),
            start: Instant::now(),
            jobs_tx: Some(jobs_tx),
            done_rx,
            workers,
            drained: Vec::new(),
        };
        inner.drained = vec![false; inner.listeners.len()];

        let thread = std::thread::Builder::new()
            .name("wsp-reactor".into())
            .spawn(move || inner.run())
            .expect("spawn reactor thread");

        Ok(Reactor {
            waker,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Wake the loop so it re-reads the hooks' lifecycle flags.
    pub fn wake(&self) {
        self.waker.notify();
    }

    /// Wait for the loop (and its workers) to exit. Call after the
    /// hooks report stopped and a [`Reactor::wake`].
    pub fn join(&self) {
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_LISTENER_BASE: u64 = u64::MAX - 1 - (MAX_LISTENERS as u64);
const MAX_LISTENERS: usize = 64;

/// Cap on read rounds per readiness so one firehose connection cannot
/// starve timers; level-triggered epoll re-reports leftover bytes.
const MAX_READ_ROUNDS: usize = 16;
const READ_CHUNK: usize = 16 * 1024;

/// Buffers above this capacity shrink after use so 10k mostly-idle
/// keep-alive connections don't pin peak-sized allocations.
const BUF_SHRINK_THRESHOLD: usize = 64 * 1024;
const BUF_SHRINK_TO: usize = 4 * 1024;

struct Work {
    conn: usize,
    gen: u64,
    job: Job,
}

struct Done {
    conn: usize,
    gen: u64,
    result: JobResult,
}

fn worker_loop(rx: Receiver<Work>, tx: Sender<Done>, wake: Arc<EventFd>) {
    while let Ok(work) = rx.recv() {
        // A panicking handler closes its connection without a response.
        let result = catch_unwind(AssertUnwindSafe(work.job)).unwrap_or(JobResult {
            bytes: Vec::new(),
            close: true,
        });
        if tx
            .send(Done {
                conn: work.conn,
                gen: work.gen,
                result,
            })
            .is_err()
        {
            break;
        }
        wake.notify();
    }
}

struct Slot {
    stream: TcpStream,
    /// Index into `Loop::listeners` — whose hooks govern this conn.
    owner: usize,
    /// Guards against stale timer/job deliveries after index reuse.
    gen: u64,
    /// `None` for canned-reject connections (write bytes, close).
    proto: Option<Box<dyn ConnProtocol>>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Registered epoll interest, to avoid redundant `EPOLL_CTL_MOD`s.
    interest: u32,
    saw_eof: bool,
    close_after_flush: bool,
    counted: bool,
    timers: [Option<EventKey>; 3],
}

fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Head => 0,
        TimerKind::Body => 1,
        TimerKind::Idle => 2,
    }
}

struct Loop {
    epoll: Epoll,
    waker: Arc<EventFd>,
    listeners: Vec<Listener>,
    conns: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_gen: u64,
    wheel: EventWheel<(usize, u64, TimerKind)>,
    start: Instant,
    jobs_tx: Option<Sender<Work>>,
    done_rx: Receiver<Done>,
    workers: Vec<JoinHandle<()>>,
    /// Per-listener: drain broadcast already delivered.
    drained: Vec<bool>,
}

impl Loop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        while !self.all_stopped() {
            let timeout = self.epoll_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.fire_due_timers();
            for ev in events.iter().copied().take(n) {
                if ev.data == TOKEN_WAKER {
                    self.waker.drain();
                } else if ev.data >= TOKEN_LISTENER_BASE {
                    self.accept_ready((ev.data - TOKEN_LISTENER_BASE) as usize);
                } else {
                    self.conn_ready(ev.data as usize, ev.events);
                }
            }
            self.drain_completions();
            self.check_drain_edges();
        }
        // Teardown: release every connection (counted slots notify
        // their hooks), stop the workers, join them.
        for idx in 0..self.conns.len() {
            self.remove(idx);
        }
        self.jobs_tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn all_stopped(&self) -> bool {
        self.listeners.iter().all(|l| l.hooks.stopped())
    }

    fn now(&self) -> Time {
        Time::micros(self.start.elapsed().as_micros() as u64)
    }

    fn epoll_timeout_ms(&mut self) -> i32 {
        match self.wheel.next_time() {
            None => -1,
            Some(t) => {
                let now = self.now();
                if t <= now {
                    0
                } else {
                    let us = (t - now).as_micros();
                    (us / 1000 + 1).min(60_000) as i32
                }
            }
        }
    }

    fn fire_due_timers(&mut self) {
        let now = self.now();
        loop {
            match self.wheel.next_time() {
                Some(t) if t <= now => {
                    let (_, (idx, gen, kind)) = self.wheel.pop().expect("due timer");
                    let live = matches!(
                        self.conns.get(idx),
                        Some(Some(slot)) if slot.gen == gen
                    );
                    if live {
                        if let Some(Some(slot)) = self.conns.get_mut(idx) {
                            slot.timers[timer_slot(kind)] = None;
                        }
                        self.with_proto(idx, |proto, io| proto.on_timer(io, kind));
                    }
                }
                _ => break,
            }
        }
    }

    fn accept_ready(&mut self, owner: usize) {
        // Bounded accepts per wake; level-triggering re-reports a
        // still-pending backlog.
        for _ in 0..64 {
            let accepted = match self.listeners.get(owner) {
                Some(l) => l.socket.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let admit = self.listeners[owner].hooks.on_accept();
                    match admit {
                        Admit::Serve { proto, counted } => {
                            let idx = self.install(stream, owner, Some(proto), counted);
                            self.with_proto(idx, |proto, io| proto.on_open(io));
                        }
                        Admit::Reject(bytes) => {
                            let idx = self.install(stream, owner, None, false);
                            if let Some(Some(slot)) = self.conns.get_mut(idx) {
                                slot.write_buf = bytes;
                                slot.close_after_flush = true;
                            }
                            self.flush(idx);
                        }
                        Admit::Drop => drop(stream),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept errors (ECONNABORTED etc): keep going.
                Err(_) => continue,
            }
        }
    }

    fn install(
        &mut self,
        stream: TcpStream,
        owner: usize,
        proto: Option<Box<dyn ConnProtocol>>,
        counted: bool,
    ) -> usize {
        self.next_gen += 1;
        let slot = Slot {
            stream,
            owner,
            gen: self.next_gen,
            proto,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            saw_eof: false,
            close_after_flush: false,
            counted,
            timers: [None; 3],
        };
        let fd = slot.stream.as_raw_fd();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(slot);
                idx
            }
            None => {
                self.conns.push(Some(slot));
                self.conns.len() - 1
            }
        };
        if self
            .epoll
            .add(fd, EPOLLIN | EPOLLRDHUP, idx as u64)
            .is_err()
        {
            self.remove(idx);
        }
        idx
    }

    fn remove(&mut self, idx: usize) {
        if let Some(slot) = self.conns.get_mut(idx).and_then(Option::take) {
            for key in slot.timers.into_iter().flatten() {
                self.wheel.cancel(key);
            }
            let _ = self.epoll.delete(slot.stream.as_raw_fd());
            if slot.counted {
                if let Some(l) = self.listeners.get(slot.owner) {
                    l.hooks.on_conn_closed();
                }
            }
            self.free.push(idx);
        }
    }

    fn conn_ready(&mut self, idx: usize, events: u32) {
        if self.conns.get(idx).map(Option::is_some) != Some(true) {
            return;
        }
        if events & EPOLLERR != 0 {
            self.remove(idx);
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.read_ready(idx);
        }
        if events & EPOLLOUT != 0 {
            self.flush(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut got_bytes = false;
        let mut got_eof = false;
        let mut io_error = false;
        {
            let Some(Some(slot)) = self.conns.get_mut(idx) else {
                return;
            };
            if slot.saw_eof {
                return;
            }
            for _ in 0..MAX_READ_ROUNDS {
                match slot.stream.read(&mut chunk) {
                    Ok(0) => {
                        got_eof = true;
                        slot.saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        slot.read_buf.extend_from_slice(&chunk[..n]);
                        got_bytes = true;
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        io_error = true;
                        break;
                    }
                }
            }
        }
        if io_error {
            self.remove(idx);
            return;
        }
        let has_proto = matches!(self.conns.get(idx), Some(Some(s)) if s.proto.is_some());
        if !has_proto {
            // Canned-reject conn: nothing to parse; EOF just ends it.
            if got_eof {
                self.remove(idx);
            } else {
                self.update_interest(idx);
            }
            return;
        }
        if got_bytes {
            self.with_proto(idx, |proto, io| proto.on_data(io));
        }
        if got_eof {
            self.with_proto(idx, |proto, io| proto.on_eof(io));
        }
        self.update_interest(idx);
    }

    /// Flush the write buffer as far as the socket allows; manages
    /// `EPOLLOUT` interest and fires `on_write_flushed` / close-after
    /// when it fully drains.
    fn flush(&mut self, idx: usize) {
        let mut flushed = false;
        let mut io_error = false;
        {
            let Some(Some(slot)) = self.conns.get_mut(idx) else {
                return;
            };
            if slot.write_pos >= slot.write_buf.len() {
                return;
            }
            loop {
                match slot.stream.write(&slot.write_buf[slot.write_pos..]) {
                    Ok(0) => {
                        io_error = true;
                        break;
                    }
                    Ok(n) => {
                        slot.write_pos += n;
                        if slot.write_pos >= slot.write_buf.len() {
                            slot.write_buf.clear();
                            slot.write_pos = 0;
                            if slot.write_buf.capacity() > BUF_SHRINK_THRESHOLD {
                                slot.write_buf.shrink_to(BUF_SHRINK_TO);
                            }
                            flushed = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        io_error = true;
                        break;
                    }
                }
            }
        }
        if io_error {
            self.remove(idx);
            return;
        }
        if flushed {
            let close = matches!(
                self.conns.get(idx),
                Some(Some(slot)) if slot.close_after_flush
            );
            if close {
                self.remove(idx);
                return;
            }
            self.with_proto(idx, |proto, io| proto.on_write_flushed(io));
        }
        self.update_interest(idx);
    }

    /// Recompute and apply this connection's epoll interest: read while
    /// the peer can still send, write only while bytes are queued.
    fn update_interest(&mut self, idx: usize) {
        let Some(Some(slot)) = self.conns.get_mut(idx) else {
            return;
        };
        let mut want = 0;
        if !slot.saw_eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if slot.write_pos < slot.write_buf.len() {
            want |= EPOLLOUT;
        }
        if want != slot.interest {
            slot.interest = want;
            let fd = slot.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, want, idx as u64);
        }
    }

    /// Run a protocol callback with an [`Io`] view of the slot, then
    /// apply whatever it decided.
    fn with_proto(&mut self, idx: usize, f: impl FnOnce(&mut dyn ConnProtocol, &mut Io<'_>)) {
        let mut actions = Actions::default();
        let Some(Some(slot)) = self.conns.get_mut(idx) else {
            return;
        };
        let Some(mut proto) = slot.proto.take() else {
            return;
        };
        let draining = self.drained.get(slot.owner).copied().unwrap_or(false);
        {
            let mut io = Io {
                read_buf: &mut slot.read_buf,
                write_buf: &mut slot.write_buf,
                write_pos: slot.write_pos,
                draining,
                actions: &mut actions,
            };
            f(proto.as_mut(), &mut io);
        }
        slot.proto = Some(proto);
        self.apply(idx, actions);
    }

    fn apply(&mut self, idx: usize, actions: Actions) {
        let now = self.now();
        let Some(Some(slot)) = self.conns.get_mut(idx) else {
            return;
        };
        let gen = slot.gen;
        for op in actions.timer_ops {
            match op {
                TimerOp::Cancel(kind) => {
                    if let Some(key) = slot.timers[timer_slot(kind)].take() {
                        self.wheel.cancel(key);
                    }
                }
                TimerOp::Arm(kind, after) => {
                    let at = now + Dur::micros(after.as_micros() as u64);
                    let key = self.wheel.schedule_at(at, (idx, gen, kind));
                    if let Some(old) = slot.timers[timer_slot(kind)].replace(key) {
                        self.wheel.cancel(old);
                    }
                }
            }
        }
        if !actions.jobs.is_empty() {
            if let Some(tx) = &self.jobs_tx {
                for job in actions.jobs {
                    let _ = tx.send(Work {
                        conn: idx,
                        gen,
                        job,
                    });
                }
            }
        }
        if actions.abort {
            self.remove(idx);
            return;
        }
        if actions.close {
            slot.close_after_flush = true;
        }
        let has_pending_write = slot.write_pos < slot.write_buf.len();
        let close_now = slot.close_after_flush && !has_pending_write;
        if close_now {
            self.remove(idx);
        } else if has_pending_write {
            self.flush(idx);
        } else {
            self.update_interest(idx);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let live = matches!(
                self.conns.get(done.conn),
                Some(Some(slot)) if slot.gen == done.gen
            );
            if live {
                let idx = done.conn;
                let result = done.result;
                self.with_proto(idx, move |proto, io| proto.on_job_done(io, result));
            }
        }
    }

    /// Detect rising drain edges and broadcast them to the affected
    /// listener's connections (idle keep-alives close, in-flight work
    /// finishes behind a `Connection: close`).
    fn check_drain_edges(&mut self) {
        for k in 0..self.listeners.len() {
            if self.drained[k] || !self.listeners[k].hooks.drain_began() {
                continue;
            }
            self.drained[k] = true;
            for idx in 0..self.conns.len() {
                let owned = matches!(
                    self.conns.get(idx),
                    Some(Some(slot)) if slot.owner == k && slot.proto.is_some()
                );
                if owned {
                    self.with_proto(idx, |proto, io| proto.on_drain(io));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream as StdTcpStream;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    struct TestHooks {
        stopped: AtomicBool,
        draining: AtomicBool,
        open: AtomicUsize,
        closed: AtomicUsize,
    }

    impl TestHooks {
        fn new() -> Arc<TestHooks> {
            Arc::new(TestHooks {
                stopped: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                open: AtomicUsize::new(0),
                closed: AtomicUsize::new(0),
            })
        }
    }

    struct EchoHooks {
        hooks: Arc<TestHooks>,
        idle: Option<Duration>,
    }

    impl ServerHooks for EchoHooks {
        fn on_accept(&self) -> Admit {
            self.hooks.open.fetch_add(1, Ordering::SeqCst);
            Admit::Serve {
                proto: Box::new(EchoProto { idle: self.idle }),
                counted: true,
            }
        }
        fn on_conn_closed(&self) {
            self.hooks.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn stopped(&self) -> bool {
            self.hooks.stopped.load(Ordering::SeqCst)
        }
        fn drain_began(&self) -> bool {
            self.hooks.draining.load(Ordering::SeqCst)
        }
    }

    /// Newline-framed echo: each line is dispatched to the worker pool,
    /// which uppercases it.
    struct EchoProto {
        idle: Option<Duration>,
    }

    impl ConnProtocol for EchoProto {
        fn on_open(&mut self, io: &mut Io<'_>) {
            if let Some(after) = self.idle {
                io.arm_timer(TimerKind::Idle, after);
            }
        }
        fn on_data(&mut self, io: &mut Io<'_>) {
            while let Some(nl) = io.read_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = io.read_buf.drain(..=nl).collect();
                io.dispatch(Box::new(move || JobResult {
                    bytes: line.to_ascii_uppercase(),
                    close: false,
                }));
            }
        }
        fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
            io.queue_write(&result.bytes);
            if result.close {
                io.close();
            }
        }
        fn on_timer(&mut self, io: &mut Io<'_>, kind: TimerKind) {
            if kind == TimerKind::Idle {
                io.abort();
            }
        }
    }

    fn spawn_echo(idle: Option<Duration>) -> (Reactor, Arc<TestHooks>, u16) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let hooks = TestHooks::new();
        let reactor = Reactor::spawn(
            vec![Listener {
                socket: listener,
                hooks: Arc::new(EchoHooks {
                    hooks: Arc::clone(&hooks),
                    idle,
                }),
            }],
            ReactorConfig { workers: 2 },
        )
        .unwrap();
        (reactor, hooks, port)
    }

    fn stop(reactor: &Reactor, hooks: &TestHooks) {
        hooks.stopped.store(true, Ordering::SeqCst);
        reactor.wake();
        reactor.join();
    }

    #[test]
    fn echo_round_trip_through_worker_pool() {
        let (reactor, hooks, port) = spawn_echo(None);
        let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
        c.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 16];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"HELLO\n");
        // Keep-alive: a second frame on the same connection works.
        c.write_all(b"again\n").unwrap();
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"AGAIN\n");
        stop(&reactor, &hooks);
        assert_eq!(hooks.open.load(Ordering::SeqCst), 1);
        assert_eq!(
            hooks.closed.load(Ordering::SeqCst),
            1,
            "teardown released the slot"
        );
    }

    #[test]
    fn idle_timer_reaps_quiet_connections() {
        let (reactor, hooks, port) = spawn_echo(Some(Duration::from_millis(50)));
        let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        // The reactor reaps us via the wheel; read returns EOF.
        assert_eq!(c.read(&mut buf).unwrap(), 0);
        stop(&reactor, &hooks);
        assert_eq!(hooks.closed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_listeners_share_one_reactor() {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (p1, p2) = (
            l1.local_addr().unwrap().port(),
            l2.local_addr().unwrap().port(),
        );
        let hooks = TestHooks::new();
        let reactor = Reactor::spawn(
            vec![
                Listener {
                    socket: l1,
                    hooks: Arc::new(EchoHooks {
                        hooks: Arc::clone(&hooks),
                        idle: None,
                    }),
                },
                Listener {
                    socket: l2,
                    hooks: Arc::new(EchoHooks {
                        hooks: Arc::clone(&hooks),
                        idle: None,
                    }),
                },
            ],
            ReactorConfig { workers: 2 },
        )
        .unwrap();
        for port in [p1, p2] {
            let mut c = StdTcpStream::connect(("127.0.0.1", port)).unwrap();
            c.write_all(b"ping\n").unwrap();
            let mut buf = [0u8; 8];
            let n = c.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"PING\n");
        }
        stop(&reactor, &hooks);
        assert_eq!(hooks.open.load(Ordering::SeqCst), 2);
        assert_eq!(hooks.closed.load(Ordering::SeqCst), 2);
    }
}
