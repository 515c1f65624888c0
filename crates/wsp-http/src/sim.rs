//! Simulator driver: HTTP exchanges as simnet messages.
//!
//! The wire format is the real byte-level HTTP encoding rendered to a
//! `String` message, so the simulated path exercises the same codec as
//! the TCP path. One request/response pair models one short-lived
//! connection; an `X-Sim-Correlation` header stands in for the
//! connection identity so a client may keep several requests in flight.
//!
//! The server behaviour models *service capacity*: requests queue and
//! are served by `workers` virtual workers each taking `service_time`.
//! That queueing is what produces the registry-saturation curve of
//! experiment E1 — without it a simulated server is infinitely fast and
//! the client/server bottleneck the paper argues about cannot appear.

use crate::codec::{encode_request, encode_response, parse_request, parse_response};
use crate::message::{Request, Response};
use crate::router::Router;
use std::collections::{HashMap, VecDeque};
use wsp_simnet::{
    CallEnd, Context, Dur, Node, NodeEvent, NodeId, RetryCalls, RetryEvent, SimRetry,
};

/// Correlation header echoed by the sim server.
pub const CORRELATION_HEADER: &str = "X-Sim-Correlation";

/// A simulated HTTP server node: a [`Router`] behind a bounded-capacity
/// work queue.
pub struct HttpSimServer {
    router: Router,
    /// Virtual time to process one request.
    service_time: Dur,
    /// Number of requests processed concurrently.
    workers: u32,
    /// Requests *waiting* beyond this are answered `503` immediately
    /// (in-service requests do not count against the limit).
    queue_limit: usize,
    queue: VecDeque<(NodeId, Request)>,
    in_flight: VecDeque<(NodeId, Request)>,
    busy: u32,
}

impl HttpSimServer {
    pub fn new(router: Router, service_time: Dur, workers: u32) -> Self {
        HttpSimServer {
            router,
            service_time,
            workers: workers.max(1),
            queue_limit: usize::MAX,
            queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            busy: 0,
        }
    }

    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    fn try_start_work(&mut self, ctx: &mut Context<'_, String>) {
        while self.busy < self.workers {
            let Some(work) = self.queue.pop_front() else {
                break;
            };
            self.in_flight.push_back(work);
            self.busy += 1;
            ctx.set_timer(self.service_time, 0);
        }
    }

    fn finish_one(&mut self, ctx: &mut Context<'_, String>) {
        self.busy = self.busy.saturating_sub(1);
        if let Some((client, request)) = self.in_flight.pop_front() {
            let mut response = self.router.handle(&request);
            if let Some(corr) = request.headers.get(CORRELATION_HEADER) {
                response.headers.set(CORRELATION_HEADER, corr);
            }
            ctx.count("http.served");
            ctx.send(
                client,
                String::from_utf8_lossy(&encode_response(&response)).into_owned(),
            );
        }
        self.try_start_work(ctx);
    }
}

impl Node<String> for HttpSimServer {
    fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
        match event {
            NodeEvent::Message { from, msg } => {
                let Ok((request, _)) = parse_request(msg.as_bytes()) else {
                    ctx.count("http.unparseable");
                    return;
                };
                if self.queue.len() >= self.queue_limit {
                    ctx.count("http.rejected");
                    let mut response = Response::unavailable("queue full");
                    if let Some(corr) = request.headers.get(CORRELATION_HEADER) {
                        response.headers.set(CORRELATION_HEADER, corr);
                    }
                    ctx.send(
                        from,
                        String::from_utf8_lossy(&encode_response(&response)).into_owned(),
                    );
                    return;
                }
                ctx.count("http.accepted");
                self.queue.push_back((from, request));
                self.try_start_work(ctx);
            }
            NodeEvent::Timer { .. } => self.finish_one(ctx),
            NodeEvent::WentDown => {
                // A crash loses queued and in-flight work.
                self.queue.clear();
                self.in_flight.clear();
                self.busy = 0;
            }
            _ => {}
        }
    }
}

/// Client-side bookkeeping for request/response matching over simnet.
///
/// Embed one of these in a client behaviour: call [`SimHttpClient::send`]
/// to issue a request and [`SimHttpClient::accept`] on every incoming
/// message to claim responses.
#[derive(Debug, Default)]
pub struct SimHttpClient {
    next_correlation: u64,
}

impl SimHttpClient {
    pub fn new() -> Self {
        SimHttpClient::default()
    }

    /// Send `request` to `server`, returning the correlation id that the
    /// response will carry.
    pub fn send(
        &mut self,
        ctx: &mut Context<'_, String>,
        server: NodeId,
        mut request: Request,
    ) -> u64 {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        request
            .headers
            .set(CORRELATION_HEADER, correlation.to_string());
        ctx.send(
            server,
            String::from_utf8_lossy(&encode_request(&request)).into_owned(),
        );
        correlation
    }

    /// Try to interpret an incoming message as an HTTP response; returns
    /// the correlation id and the parsed response.
    pub fn accept(&self, msg: &str) -> Option<(u64, Response)> {
        let (response, _) = parse_response(msg.as_bytes()).ok()?;
        let correlation = response.headers.get(CORRELATION_HEADER)?.parse().ok()?;
        Some((correlation, response))
    }
}

// --- resilient client --------------------------------------------------------

/// Terminal outcome of one logical call made through
/// [`ResilientSimClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimCallOutcome {
    /// A (2xx) response arrived within the attempt budget.
    Completed {
        call: u64,
        attempts: u32,
        response: Response,
    },
    /// Every attempt timed out or was rejected.
    Exhausted { call: u64, attempts: u32 },
}

#[derive(Debug)]
struct PendingCall {
    server: NodeId,
    request: Request,
    /// Every correlation id this call has put on the wire.
    correlations: Vec<u64>,
}

/// [`SimHttpClient`] under the [`RetryMachine`](wsp_simnet::RetryMachine):
/// one *logical call* may span several wire attempts. The embedding
/// behaviour forwards its [`NodeEvent::Timer`]s (tags in the
/// [`RetryCalls`] namespaces) and messages, and reacts to the returned
/// [`SimCallOutcome`]s. A reply to any attempt of a live call counts;
/// when the call ends all its correlation ids are dropped, so replies
/// that arrive later are ignored.
#[derive(Debug)]
pub struct ResilientSimClient {
    retry: SimRetry,
    calls: RetryCalls<PendingCall>,
    wire: Wire,
}

/// The attempt sender: correlation ids on the wire, mapped back to the
/// live calls that sent them.
#[derive(Debug, Default)]
struct Wire {
    client: SimHttpClient,
    by_correlation: HashMap<u64, u64>,
}

impl Wire {
    fn send(&mut self, ctx: &mut Context<'_, String>, call: u64, pending: &mut PendingCall) {
        ctx.count("http.retry_attempt");
        let request = pending.request.clone();
        let correlation = self.client.send(ctx, pending.server, request);
        self.by_correlation.insert(correlation, call);
        pending.correlations.push(correlation);
    }
}

impl ResilientSimClient {
    pub fn new(retry: SimRetry) -> Self {
        ResilientSimClient {
            retry,
            calls: RetryCalls::default(),
            wire: Wire::default(),
        }
    }

    /// Start a logical call: sends attempt 1 now and arms its timeout.
    /// Returns the call id carried by the eventual [`SimCallOutcome`].
    pub fn begin(
        &mut self,
        ctx: &mut Context<'_, String>,
        server: NodeId,
        request: Request,
    ) -> u64 {
        let pending = PendingCall {
            server,
            request,
            correlations: Vec::new(),
        };
        let retry = self.retry.clone();
        let wire = &mut self.wire;
        self.calls
            .begin(ctx, retry, pending, |ctx, call, p| wire.send(ctx, call, p))
    }

    /// Feed a fired timer through; `None` for foreign tags and
    /// non-terminal progress.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, String>, tag: u64) -> Option<SimCallOutcome> {
        if self.calls.is_attempt_timeout(tag) {
            ctx.count("http.attempt_timeout");
        }
        let wire = &mut self.wire;
        let end = self
            .calls
            .on_timer(ctx, tag, |ctx, call, p| wire.send(ctx, call, p))?;
        Some(self.finish(ctx, end, None))
    }

    /// Feed an incoming message through; returns an outcome when the
    /// message terminates one of our calls.
    pub fn on_message(
        &mut self,
        ctx: &mut Context<'_, String>,
        msg: &str,
    ) -> Option<SimCallOutcome> {
        let (correlation, response) = self.wire.client.accept(msg)?;
        let call = *self.wire.by_correlation.get(&correlation)?;
        let event = if response.is_success() {
            RetryEvent::Succeeded
        } else {
            // A definitive rejection (503 queue-full, …) counts as a
            // failed attempt, just faster than a timeout.
            ctx.count("http.attempt_rejected");
            RetryEvent::Failed {
                now: ctx.now().as_micros(),
                retryable: true,
                may_have_executed: false,
                retry_after: None,
            }
        };
        let wire = &mut self.wire;
        let end = self
            .calls
            .step(ctx, call, event, |ctx, call, p| wire.send(ctx, call, p))?;
        Some(self.finish(ctx, end, Some(response)))
    }

    /// Drop every correlation id of the ended call and report it.
    fn finish(
        &mut self,
        ctx: &mut Context<'_, String>,
        end: CallEnd<PendingCall>,
        response: Option<Response>,
    ) -> SimCallOutcome {
        for correlation in &end.data.correlations {
            self.wire.by_correlation.remove(correlation);
        }
        match response.filter(|_| end.gave_up.is_none()) {
            Some(response) => SimCallOutcome::Completed {
                call: end.call,
                attempts: end.attempts,
                response,
            },
            None => {
                ctx.count("http.retry_exhausted");
                SimCallOutcome::Exhausted {
                    call: end.call,
                    attempts: end.attempts,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wsp_simnet::{LinkSpec, SimNet, Time};

    fn echo_router() -> Router {
        let router = Router::new();
        router.deploy(
            "Echo",
            Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone())),
        );
        router
    }

    /// A client that fires `n` requests at `Start` and records response
    /// arrival times.
    struct Burst {
        server: NodeId,
        n: usize,
        client: SimHttpClient,
        responses: Rc<RefCell<Vec<(Time, u16)>>>,
    }

    impl Node<String> for Burst {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            match event {
                NodeEvent::Start => {
                    for _ in 0..self.n {
                        self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "hi"),
                        );
                    }
                }
                NodeEvent::Message { msg, .. } => {
                    if let Some((_corr, response)) = self.client.accept(&msg) {
                        self.responses
                            .borrow_mut()
                            .push((ctx.now(), response.status));
                    }
                }
                _ => {}
            }
        }
    }

    fn run_burst(n: usize, workers: u32, queue_limit: usize) -> Vec<(Time, u16)> {
        let mut net: SimNet<String> = SimNet::new(5);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
            per_byte: Dur::ZERO,
        });
        let server = net.add_node(Box::new(
            HttpSimServer::new(echo_router(), Dur::millis(10), workers)
                .with_queue_limit(queue_limit),
        ));
        let responses = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(Burst {
            server,
            n,
            client: SimHttpClient::new(),
            responses: responses.clone(),
        }));
        net.run_to_quiescence();
        let out = responses.borrow().clone();
        out
    }

    #[test]
    fn single_request_round_trips() {
        let responses = run_burst(1, 1, usize::MAX);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1, 200);
        // 1ms there + 10ms service + 1ms back.
        assert_eq!(responses[0].0, Time::millis(12));
    }

    #[test]
    fn queueing_serialises_service_times() {
        let responses = run_burst(3, 1, usize::MAX);
        let times: Vec<_> = responses.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![Time::millis(12), Time::millis(22), Time::millis(32)]
        );
    }

    #[test]
    fn more_workers_raise_throughput() {
        let one = run_burst(4, 1, usize::MAX);
        let four = run_burst(4, 4, usize::MAX);
        let last_one = one.iter().map(|(t, _)| *t).max().unwrap();
        let last_four = four.iter().map(|(t, _)| *t).max().unwrap();
        assert!(last_four < last_one, "{last_four} !< {last_one}");
    }

    #[test]
    fn queue_limit_rejects_with_503() {
        let responses = run_burst(5, 1, 2);
        let rejected = responses.iter().filter(|(_, s)| *s == 503).count();
        let served = responses.iter().filter(|(_, s)| *s == 200).count();
        // 1 in service + 2 queued = 3 served; the rest bounce.
        assert_eq!(served, 3);
        assert_eq!(rejected, 2);
    }

    #[test]
    fn correlation_ids_distinguish_responses() {
        let mut net: SimNet<String> = SimNet::new(7);
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(1),
            1,
        )));
        let seen = Rc::new(RefCell::new(Vec::new()));
        struct TwoBodies {
            server: NodeId,
            client: SimHttpClient,
            seen: Rc<RefCell<Vec<(u64, String)>>>,
        }
        impl Node<String> for TwoBodies {
            fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
                match event {
                    NodeEvent::Start => {
                        let a = self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "first"),
                        );
                        let b = self.client.send(
                            ctx,
                            self.server,
                            Request::post("/Echo", "text/plain", "second"),
                        );
                        assert_ne!(a, b);
                    }
                    NodeEvent::Message { msg, .. } => {
                        if let Some((corr, resp)) = self.client.accept(&msg) {
                            self.seen
                                .borrow_mut()
                                .push((corr, resp.body_str().into_owned()));
                        }
                    }
                    _ => {}
                }
            }
        }
        net.add_node(Box::new(TwoBodies {
            server,
            client: SimHttpClient::new(),
            seen: seen.clone(),
        }));
        net.run_to_quiescence();
        let mut got = seen.borrow().clone();
        got.sort();
        assert_eq!(got, vec![(0, "first".into()), (1, "second".into())]);
    }

    /// Starts one resilient call at `Start` and records its outcome.
    struct RetryDriver {
        server: NodeId,
        client: ResilientSimClient,
        outcomes: Rc<RefCell<Vec<SimCallOutcome>>>,
    }

    impl Node<String> for RetryDriver {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            let outcome = match event {
                NodeEvent::Start => {
                    self.client
                        .begin(ctx, self.server, Request::post("/Echo", "text/plain", "hi"));
                    None
                }
                NodeEvent::Timer { tag } => self.client.on_timer(ctx, tag),
                NodeEvent::Message { msg, .. } => self.client.on_message(ctx, &msg),
                _ => None,
            };
            if let Some(outcome) = outcome {
                self.outcomes.borrow_mut().push(outcome);
            }
        }
    }

    fn retry_net(
        seed: u64,
        loss: f64,
        retry: SimRetry,
    ) -> (SimNet<String>, NodeId, Rc<RefCell<Vec<SimCallOutcome>>>) {
        let mut net: SimNet<String> = SimNet::new(seed);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss,
            per_byte: Dur::ZERO,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(5),
            1,
        )));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(RetryDriver {
            server,
            client: ResilientSimClient::new(retry),
            outcomes: outcomes.clone(),
        }));
        (net, server, outcomes)
    }

    #[test]
    fn clean_network_completes_on_first_attempt() {
        let retry = SimRetry::fixed(Dur::millis(100), Dur::millis(10), 3);
        let (mut net, _, outcomes) = retry_net(11, 0.0, retry);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1);
        assert!(matches!(
            got[0],
            SimCallOutcome::Completed { attempts: 1, .. }
        ));
    }

    #[test]
    fn blackout_is_survived_by_retry() {
        // The link is black until t = 50ms: attempt 1 (t = 0) is lost,
        // its timeout fires at 100ms, and attempt 2 sails through.
        let retry = SimRetry::fixed(Dur::millis(100), Dur::millis(10), 3);
        let (mut net, server, outcomes) = retry_net(13, 0.0, retry);
        let client = server + 1; // the driver is added right after the server
        wsp_simnet::FaultPlan::new(13)
            .blackout(client, server, Time::ZERO, Time::millis(50))
            .apply(&mut net);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1);
        assert!(
            matches!(got[0], SimCallOutcome::Completed { attempts: 2, .. }),
            "got {:?}",
            got[0]
        );
    }

    #[test]
    fn total_loss_exhausts_the_attempt_budget() {
        let retry = SimRetry::fixed(Dur::millis(20), Dur::millis(5), 2);
        let (mut net, _, outcomes) = retry_net(17, 1.0, retry);
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert_eq!(got.len(), 1, "a call never hangs — it exhausts");
        assert!(matches!(
            got[0],
            SimCallOutcome::Exhausted { attempts: 3, .. }
        ));
        assert_eq!(net.metrics().counter("http.attempt_timeout"), 3);
    }

    #[test]
    fn rejection_counts_as_a_failed_attempt() {
        // queue_limit 0 bounces everything with 503 immediately: the
        // call exhausts via fast rejections, not slow timeouts.
        let retry = SimRetry::fixed(Dur::millis(100), Dur::millis(5), 1);
        let mut net: SimNet<String> = SimNet::new(19);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
            per_byte: Dur::ZERO,
        });
        let server = net.add_node(Box::new(
            HttpSimServer::new(echo_router(), Dur::millis(5), 1).with_queue_limit(0),
        ));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(RetryDriver {
            server,
            client: ResilientSimClient::new(retry),
            outcomes: outcomes.clone(),
        }));
        net.run_to_quiescence();
        let got = outcomes.borrow();
        assert!(matches!(
            got[0],
            SimCallOutcome::Exhausted { attempts: 2, .. }
        ));
        assert_eq!(net.metrics().counter("http.attempt_rejected"), 2);
        assert_eq!(
            net.metrics().counter("http.attempt_timeout"),
            0,
            "rejections resolve attempts before their timeouts fire"
        );
    }

    #[test]
    fn lossy_run_is_reproducible_per_seed() {
        let run = |seed| {
            let retry = SimRetry::fixed(Dur::millis(30), Dur::millis(10), 5);
            let (mut net, _, outcomes) = retry_net(seed, 0.4, retry);
            let end = net.run_to_quiescence();
            let got = outcomes.borrow().clone();
            (end, got)
        };
        let (end_a, a) = run(23);
        let (end_b, b) = run(23);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(end_a, end_b);
        assert_eq!(a.len(), 1);
    }

    /// Fires `n` resilient calls at `Start` and keeps the client so the
    /// test can inspect it after the run.
    struct LossyBurst {
        server: NodeId,
        n: usize,
        client: Rc<RefCell<ResilientSimClient>>,
    }

    impl Node<String> for LossyBurst {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            let mut client = self.client.borrow_mut();
            match event {
                NodeEvent::Start => {
                    for _ in 0..self.n {
                        client.begin(ctx, self.server, Request::post("/Echo", "text/plain", "hi"));
                    }
                }
                NodeEvent::Timer { tag } => {
                    client.on_timer(ctx, tag);
                }
                NodeEvent::Message { msg, .. } => {
                    client.on_message(ctx, &msg);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn finished_calls_leave_no_correlations_behind() {
        // Lost attempts never get a reply, and attempts overtaken by a
        // later success reply after their call ended: neither may keep
        // a correlation entry once the burst has settled.
        let retry = SimRetry::fixed(Dur::millis(8), Dur::millis(2), 6);
        let mut net: SimNet<String> = SimNet::new(29);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(3),
            jitter: Dur::millis(3),
            loss: 0.3,
            per_byte: Dur::ZERO,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(1),
            4,
        )));
        let client = Rc::new(RefCell::new(ResilientSimClient::new(retry)));
        net.add_node(Box::new(LossyBurst {
            server,
            n: 50,
            client: client.clone(),
        }));
        net.run_to_quiescence();
        let client = client.borrow();
        assert!(
            net.metrics().counter("http.attempt_timeout") > 0,
            "the burst lost attempts"
        );
        assert!(client.calls.is_empty());
        let leaked = client.wire.by_correlation.len();
        assert_eq!(leaked, 0, "{leaked} correlations outlived their calls");
    }

    #[test]
    fn crash_loses_queued_work() {
        let mut net: SimNet<String> = SimNet::new(9);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
            per_byte: Dur::ZERO,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(
            echo_router(),
            Dur::millis(50),
            1,
        )));
        let responses = Rc::new(RefCell::new(Vec::new()));
        net.add_node(Box::new(Burst {
            server,
            n: 3,
            client: SimHttpClient::new(),
            responses: responses.clone(),
        }));
        net.schedule_down(server, Time::millis(10));
        net.run_to_quiescence();
        assert!(
            responses.borrow().is_empty(),
            "crash should lose all queued work"
        );
    }
}
