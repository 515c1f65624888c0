//! `gateway_mix`: mediated calls into a `Gateway` over both of its
//! fronts. The registry is an in-process `RegistryCluster` and the
//! backend a zero-work `TcpServer` echo, so gateway cost is not hidden
//! behind backend work.

use crate::runner::{self, metric, Metric, Outcome, Workload};
use crate::trace::{self, Analysis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::overload::TENANT_HEADER;
use wsp_core::telemetry;
use wsp_gateway::{fnv1a, Gateway, GatewayConfig};
use wsp_http::tcp::PoolStats;
use wsp_http::{encode_request, ConnectionPool, Request, Response, Router, TcpServer};
use wsp_p2ps::pipe_tcp::encode_frame;
use wsp_p2ps::{pipe_call, P2psMessage, PeerId, PipeAdvertisement, PipeTcpServer};
use wsp_registry::{RegistryCluster, ShardedUddiClient};
use wsp_soap::{constants::CONTENT_TYPE, Envelope, HeaderBlock};
use wsp_uddi::{BindingTemplate, BusinessService};
use wsp_xml::Element;

pub const SERVICE: &str = "Bulk";
const NS: &str = "urn:perfbench:bulk";
/// Distinct `ask` bodies: four times the default 256-entry response
/// cache, drawn with a Zipf(1) skew, so asks both hit and miss.
pub const HOT_SET: usize = 1024;
/// Asks per ten requests; the rest are unique `put`s.
pub const ASKS_PER_TEN: u32 = 7;
/// One request in this many goes to the P2PS front.
pub const PIPE_ONE_IN: u32 = 4;
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Requests kept for the replays of a traced pass.
const CAPTURED: usize = 4096;
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An idempotent question from the hot set (by rank).
    Ask(usize),
    /// A unique, non-idempotent update.
    Put(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    Http,
    Pipe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GwRequest {
    pub op: Op,
    pub front: Front,
    pub tenant: usize,
}

/// The request sequence: a pure function of the seed.
pub struct Stream {
    rng: StdRng,
    cdf: Vec<f64>,
    seq: u64,
    tenant_phase: u64,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let weights: Vec<f64> = (1..=HOT_SET).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x6A7E_0001),
            cdf,
            seq: 0,
            tenant_phase: seed & 1,
        }
    }

    pub fn next_request(&mut self) -> GwRequest {
        let op = if self.rng.random_range(0..10u32) < ASKS_PER_TEN {
            let u: f64 = self.rng.random();
            Op::Ask(self.cdf.partition_point(|&c| c < u).min(HOT_SET - 1))
        } else {
            Op::Put(self.seq)
        };
        let front = if self.rng.random_range(0..PIPE_ONE_IN) == 0 {
            Front::Pipe
        } else {
            Front::Http
        };
        // The two tenants alternate; the seed picks which goes first.
        let tenant = ((self.seq + self.tenant_phase) % 2) as usize;
        self.seq += 1;
        GwRequest { op, front, tenant }
    }
}

/// The backend's reply to a request body: deterministic in the exact
/// request bytes, so any reply can be checked against it.
pub fn backend_reply(request: &[u8]) -> String {
    Envelope::request(
        Element::build(NS, "reply")
            .text(format!("ack-{:016x}", fnv1a(request)))
            .finish(),
    )
    .to_xml()
}

fn request_envelope(seed: u64, op: Op) -> Envelope {
    let (name, text) = match op {
        Op::Ask(rank) => ("ask", format!("q-{seed:x}-{rank}")),
        Op::Put(seq) => ("put", format!("p-{seed:x}-{seq}")),
    };
    Envelope::request(Element::build(NS, name).text(text).finish())
}

/// The envelope text as a front carries it: the P2PS front reads the
/// tenant from a SOAP header, the HTTP front from an HTTP header.
fn body_for(seed: u64, op: Op, front: Front, tenant: usize) -> String {
    let mut envelope = request_envelope(seed, op);
    if front == Front::Pipe {
        envelope.add_header(HeaderBlock::new(
            Element::build("", "Tenant").text(TENANTS[tenant]).finish(),
        ));
    }
    envelope.to_xml()
}

fn build_gateway(cluster: &RegistryCluster) -> Result<Gateway, String> {
    let registry = ShardedUddiClient::for_cluster(cluster).map_err(|e| e.to_string())?;
    Ok(Gateway::new(
        registry,
        GatewayConfig::default().idempotent(SERVICE, "ask"),
    ))
}

/// Counter readings at the start of a traced pass.
#[derive(Default)]
struct Counters {
    pool: PoolStats,
    backend_calls: u64,
    response_hit: u64,
    response_miss: u64,
    locate_hit: u64,
    locate_miss: u64,
    shed: u64,
    backend_errors: u64,
}

fn read_counters(pool: &ConnectionPool, backend_calls: &AtomicU64) -> Counters {
    let t = telemetry::global();
    let c = |name: &str| t.counter(name).get();
    Counters {
        pool: pool.stats(),
        backend_calls: backend_calls.load(Ordering::SeqCst),
        response_hit: c("gateway.cache.response.hit"),
        response_miss: c("gateway.cache.response.miss"),
        locate_hit: c("gateway.cache.locate.hit"),
        locate_miss: c("gateway.cache.locate.miss"),
        shed: TENANTS
            .iter()
            .chain(std::iter::once(&"anonymous"))
            .map(|tenant| c(&format!("gateway.tenant.{tenant}.shed")))
            .sum(),
        backend_errors: c("gateway.backend.errors"),
    }
}

pub struct GatewayMix {
    seed: u64,
    stream: Stream,
    /// Precomputed ask bodies: HTTP (tenant-free) and per-tenant pipe.
    ask_http: Vec<Vec<u8>>,
    ask_pipe: [Vec<String>; 2],
    pool: ConnectionPool,
    http_port: u16,
    pipe_addr: SocketAddr,
    advert: PipeAdvertisement,
    backend_calls: Arc<AtomicU64>,
    // Field order is drop order: fronts before the gateway's backend.
    _pipe_front: PipeTcpServer,
    _http_front: TcpServer,
    _gateway: Gateway,
    _backend: TcpServer,
    cluster: RegistryCluster,
    // Traced-pass observations.
    start: Counters,
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    captured: Vec<(usize, Vec<u8>)>,
    captured_pipe: Vec<P2psMessage>,
}

pub fn setup(seed: u64) -> Result<GatewayMix, String> {
    let cluster = RegistryCluster::new(Default::default());
    let backend_calls = Arc::new(AtomicU64::new(0));
    let router = Router::new();
    let calls = Arc::clone(&backend_calls);
    router.deploy(
        SERVICE,
        Arc::new(move |req: &Request| {
            trace::span("gateway.backend", || {
                calls.fetch_add(1, Ordering::SeqCst);
                Response::ok(CONTENT_TYPE, backend_reply(&req.body))
            })
        }),
    );
    let backend = TcpServer::launch(0, router).map_err(|e| format!("launch backend: {e}"))?;
    ShardedUddiClient::for_cluster(&cluster)
        .map_err(|e| e.to_string())?
        .publish(
            &BusinessService::new("", "uddi:perfbench", SERVICE).with_binding(
                BindingTemplate::new("binding-0", backend.service_uri(SERVICE)),
            ),
        )
        .map_err(|e| format!("publish backend: {e}"))?;
    let gateway = build_gateway(&cluster)?;
    let http_front = gateway
        .launch_http(0)
        .map_err(|e| format!("launch HTTP front: {e}"))?;
    let pipe_front = gateway
        .launch_pipe("127.0.0.1:0")
        .map_err(|e| format!("launch P2PS front: {e}"))?;
    let ask = |front, tenant| -> Vec<String> {
        (0..HOT_SET)
            .map(|rank| body_for(seed, Op::Ask(rank), front, tenant))
            .collect()
    };
    Ok(GatewayMix {
        seed,
        stream: Stream::new(seed),
        ask_http: ask(Front::Http, 0)
            .into_iter()
            .map(String::into_bytes)
            .collect(),
        ask_pipe: [ask(Front::Pipe, 0), ask(Front::Pipe, 1)],
        pool: ConnectionPool::new(),
        http_port: http_front.port(),
        pipe_addr: pipe_front.addr(),
        advert: PipeAdvertisement::new(PeerId(1), Some(SERVICE.to_owned()), SERVICE),
        backend_calls,
        _pipe_front: pipe_front,
        _http_front: http_front,
        _gateway: gateway,
        _backend: backend,
        cluster,
        start: Counters::default(),
        hit_ns: Vec::new(),
        miss_ns: Vec::new(),
        captured: Vec::new(),
        captured_pipe: Vec::new(),
    })
}

impl GatewayMix {
    fn call_http(&mut self, body: Vec<u8>, tenant: usize) -> (Outcome, Duration) {
        let tracing = trace::tracing();
        if tracing && self.captured.len() < CAPTURED {
            self.captured.push((tenant, body.clone()));
        }
        let expected = backend_reply(&body);
        let mut request = Request::post(format!("/{SERVICE}"), CONTENT_TYPE, body);
        request.headers.set(TENANT_HEADER, TENANTS[tenant]);
        let (reply, took) = runner::timed("http.pool_call", || {
            self.pool.call("127.0.0.1", self.http_port, request)
        });
        let response = match reply {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                let why = format!("HTTP front answered {}", r.status);
                return (Outcome::Failed(why), took);
            }
            Err(e) => return (Outcome::Failed(e.to_string()), took),
        };
        if tracing {
            let ns = took.as_nanos() as u64;
            if response.headers.get("X-WSP-Cache") == Some("hit") {
                self.hit_ns.push(ns);
            } else {
                self.miss_ns.push(ns);
            }
        }
        let outcome = if response.body == expected.as_bytes() {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!(
                "HTTP front reply differs from the backend's: {:.120}",
                response.body_str()
            ))
        };
        (outcome, took)
    }

    fn call_pipe(&mut self, payload: String) -> (Outcome, Duration) {
        let expected = backend_reply(payload.as_bytes());
        let message = P2psMessage::PipeData {
            to: self.advert.clone(),
            payload,
        };
        let (reply, took) = runner::timed("p2ps.pipe_call", || {
            pipe_call(self.pipe_addr, &message, CALL_TIMEOUT)
        });
        if trace::tracing() && self.captured_pipe.len() < CAPTURED {
            self.captured_pipe.push(message);
        }
        let outcome = match reply {
            Ok(P2psMessage::PipeData { payload, .. }) if payload == expected => Outcome::Ok,
            Ok(P2psMessage::PipeData { payload, .. }) => {
                match Envelope::from_xml(&payload)
                    .ok()
                    .and_then(|e| e.fault_body().cloned())
                {
                    Some(fault) => Outcome::Failed(format!("P2PS front fault: {}", fault.reason)),
                    None => Outcome::Wrong(format!(
                        "P2PS front reply differs from the backend's: {payload:.120}"
                    )),
                }
            }
            Ok(other) => Outcome::Wrong(format!("P2PS front answered {other:.80?}")),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        (outcome, took)
    }
}

impl Workload for GatewayMix {
    fn name(&self) -> &'static str {
        "gateway_mix"
    }

    fn call(&mut self) -> (Outcome, Duration) {
        let req = self.stream.next_request();
        match (req.op, req.front) {
            (Op::Ask(rank), Front::Http) => self.call_http(self.ask_http[rank].clone(), req.tenant),
            (Op::Ask(rank), Front::Pipe) => self.call_pipe(self.ask_pipe[req.tenant][rank].clone()),
            (op @ Op::Put(_), Front::Http) => {
                let body = body_for(self.seed, op, Front::Http, req.tenant).into_bytes();
                self.call_http(body, req.tenant)
            }
            (op @ Op::Put(_), Front::Pipe) => {
                self.call_pipe(body_for(self.seed, op, Front::Pipe, req.tenant))
            }
        }
    }

    fn begin_traced(&mut self) {
        self.start = read_counters(&self.pool, &self.backend_calls);
        self.hit_ns.clear();
        self.miss_ns.clear();
        self.captured.clear();
        self.captured_pipe.clear();
    }

    fn layer_metrics(&mut self, analysis: &Analysis, calls: u64) -> Vec<Metric> {
        let end = read_counters(&self.pool, &self.backend_calls);
        let s = &self.start;
        let hits = end.response_hit - s.response_hit;
        let backend_calls = end.backend_calls - s.backend_calls;
        let pool_hits = end.pool.hits - s.pool.hits;
        let pool_total = pool_hits + end.pool.misses - s.pool.misses;
        let mut out = vec![
            metric(
                "http.pool_call_us",
                analysis.median_us("http.pool_call").unwrap_or(0.0),
                "us",
            ),
            metric(
                "http.pool_reuse_ratio",
                runner::ratio(pool_hits, pool_total),
                "ratio",
            ),
            metric(
                "p2ps.pipe_call_us",
                analysis.median_us("p2ps.pipe_call").unwrap_or(0.0),
                "us",
            ),
            metric(
                "gateway.hit_us",
                crate::stats::median_us(&self.hit_ns),
                "us",
            ),
            metric(
                "gateway.miss_us",
                crate::stats::median_us(&self.miss_ns),
                "us",
            ),
            metric(
                "gateway.backend_us",
                analysis.median_us("gateway.backend").unwrap_or(0.0),
                "us",
            ),
            metric(
                "gateway.backend_calls_per_miss",
                runner::ratio(backend_calls, calls - hits),
                "ratio",
            ),
            metric(
                "gateway.response_hit_ratio",
                runner::ratio(hits, hits + end.response_miss - s.response_miss),
                "ratio",
            ),
            metric(
                "gateway.locate_hit_ratio",
                runner::ratio(
                    end.locate_hit - s.locate_hit,
                    end.locate_hit - s.locate_hit + end.locate_miss - s.locate_miss,
                ),
                "ratio",
            ),
            metric("gateway.shed", (end.shed - s.shed) as f64, "count"),
            metric(
                "gateway.backend_errors",
                (end.backend_errors - s.backend_errors) as f64,
                "count",
            ),
        ];

        // The P2PS framing of the captured pipe messages: encode, then
        // the length check and parse that decoding a frame performs.
        let frames = &self.captured_pipe;
        let budget = Duration::from_millis(150);
        out.push(metric(
            "p2ps.frame_codec_us",
            runner::replay_us(frames.len(), budget, |i| {
                let frame = encode_frame(black_box(&frames[i]));
                let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
                let xml = std::str::from_utf8(&frame[4..4 + len]).expect("UTF-8 frame");
                black_box(P2psMessage::from_xml(xml).expect("frame decodes"));
            }),
            "us",
        ));

        // The same HTTP request stream straight into `Gateway::invoke`
        // on an identically built gateway: pipeline cost, no front.
        let (hit_us, miss_us) = self.replay_invoke();
        out.push(metric("gateway.invoke_us.hit", hit_us, "us"));
        out.push(metric("gateway.invoke_us.miss", miss_us, "us"));
        out
    }

    fn http_exchanges(&self) -> Vec<(Vec<u8>, Response)> {
        let mut stream = Stream::new(self.seed);
        (0..100)
            .map(|_| {
                let req = stream.next_request();
                let body = body_for(self.seed, req.op, Front::Http, req.tenant).into_bytes();
                let reply = backend_reply(&body);
                let mut request = Request::post(format!("/{SERVICE}"), CONTENT_TYPE, body);
                request.headers.set("Host", "127.0.0.1:80");
                request.headers.set("Connection", "keep-alive");
                request.headers.set(TENANT_HEADER, TENANTS[req.tenant]);
                (encode_request(&request), Response::ok(CONTENT_TYPE, reply))
            })
            .collect()
    }
}

impl GatewayMix {
    /// Median `Gateway::invoke` time of replayed hits and misses; every
    /// reply is checked against the backend's.
    fn replay_invoke(&self) -> (f64, f64) {
        let gateway = build_gateway(&self.cluster).expect("replay gateway");
        let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
        for (tenant, body) in &self.captured {
            let started = Instant::now();
            let reply = gateway.invoke(TENANTS[*tenant], SERVICE, body, None);
            let ns = started.elapsed().as_nanos() as u64;
            let reply = reply.unwrap_or_else(|e| panic!("replayed invoke failed: {e:?}"));
            assert!(
                reply.body == backend_reply(body).as_bytes(),
                "replayed invoke answered other bytes than the backend"
            );
            if reply.cached {
                hit_ns.push(ns);
            } else {
                miss_ns.push(ns);
            }
        }
        (
            crate::stats::median_us(&hit_ns),
            crate::stats::median_us(&miss_ns),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64) -> Vec<GwRequest> {
        let mut s = Stream::new(seed);
        (0..2000).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(requests(9), requests(9));
        assert_ne!(requests(9), requests(10));
        assert_eq!(
            body_for(9, Op::Put(3), Front::Pipe, 1),
            body_for(9, Op::Put(3), Front::Pipe, 1)
        );
        assert_ne!(
            body_for(9, Op::Ask(3), Front::Http, 0),
            body_for(10, Op::Ask(3), Front::Http, 0)
        );
    }

    #[test]
    fn mix_shape() {
        let reqs = requests(1);
        let asks = reqs.iter().filter(|r| matches!(r.op, Op::Ask(_))).count();
        let pipes = reqs.iter().filter(|r| r.front == Front::Pipe).count();
        assert!((1250..1550).contains(&asks), "about 70% asks: {asks}");
        assert!(
            (400..600).contains(&pipes),
            "about 25% on the pipe: {pipes}"
        );
        // Tenants alternate request by request.
        assert!(reqs.windows(2).all(|w| w[0].tenant != w[1].tenant));
        // The skew puts more than half the asks on the top 256 ranks,
        // yet the tail beyond the cache size is used too.
        let ranks: Vec<usize> = reqs
            .iter()
            .filter_map(|r| match r.op {
                Op::Ask(rank) => Some(rank),
                Op::Put(_) => None,
            })
            .collect();
        assert!(ranks.iter().filter(|&&r| r < 256).count() * 2 > ranks.len());
        assert!(ranks.iter().any(|&r| r >= 512));
    }
}
