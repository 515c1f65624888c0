//! `invoke_keepalive`: the paper's core path. `Peer` → keep-alive
//! `HttpUddiBinding` → container-less `TcpServer` reactor → `wsp-core`
//! dispatch → `wsp-wsdl` engine → an echo handler, and back.

use crate::runner::{self, metric, Metric, Outcome, Workload};
use crate::trace::{self, Analysis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig};
use wsp_core::{telemetry, EventBus, LocatedService, Peer, ServiceQuery};
use wsp_http::{encode_request, Request, Response};
use wsp_soap::{constants::CONTENT_TYPE, Envelope};
use wsp_uddi::{Registry, UddiClient};
use wsp_wsdl::{MessageEngine, ServiceDescriptor, ServiceProxy, Value};

/// Small strings, where per-message cost dominates.
pub const SMALL_BYTES: usize = 64;
/// Large strings, where XML bytes dominate.
pub const LARGE_BYTES: usize = 16 * 1024;
/// One request in this many carries a large string.
pub const LARGE_ONE_IN: u32 = 10;
const SMALL_SET: usize = 64;
const LARGE_SET: usize = 8;
/// Includes the characters XML must escape.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.&<>";
/// Requests replayed through single functions in a traced pass.
const REPLAYED: usize = 100;

/// Which seeded payload a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub large: bool,
    pub index: usize,
}

/// The request sequence: a pure function of the seed.
pub struct Stream {
    rng: StdRng,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x1A7E_0001),
        }
    }

    pub fn next_pick(&mut self) -> Pick {
        let large = self.rng.random_range(0..LARGE_ONE_IN) == 0;
        let set = if large { LARGE_SET } else { SMALL_SET };
        Pick {
            large,
            index: self.rng.random_range(0..set),
        }
    }
}

/// The seeded payload strings the picks index.
pub struct Payloads {
    small: Vec<String>,
    large: Vec<String>,
}

impl Payloads {
    pub fn new(seed: u64) -> Payloads {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_0002);
        let mut text = |len: usize| -> String {
            (0..len)
                .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
                .collect()
        };
        Payloads {
            small: (0..SMALL_SET).map(|_| text(SMALL_BYTES)).collect(),
            large: (0..LARGE_SET).map(|_| text(LARGE_BYTES)).collect(),
        }
    }

    pub fn get(&self, pick: Pick) -> &str {
        if pick.large {
            &self.large[pick.index]
        } else {
            &self.small[pick.index]
        }
    }
}

fn echo_handler() -> Arc<dyn wsp_wsdl::ServiceHandler> {
    Arc::new(|_op: &str, args: &[Value]| trace::span("core.handler", || Ok(args[0].clone())))
}

pub struct InvokeKeepalive {
    seed: u64,
    // Field order is drop order: the consumer goes before the host.
    consumer: Peer,
    _consumer_binding: HttpUddiBinding,
    _provider: Peer,
    _provider_binding: HttpUddiBinding,
    service: LocatedService,
    payloads: Payloads,
    stream: Stream,
    dispatch_wait: telemetry::HistogramSnapshot,
    serve: telemetry::HistogramSnapshot,
}

pub fn setup(seed: u64) -> Result<InvokeKeepalive, String> {
    let registry = Registry::new();
    let binding = |keep_alive: bool| {
        HttpUddiBinding::new(
            UddiClient::direct(registry.clone()),
            EventBus::new(),
            HttpUddiConfig {
                keep_alive,
                ..HttpUddiConfig::default()
            },
        )
    };
    let provider_binding = binding(false);
    let provider = Peer::with_binding(&provider_binding);
    provider
        .server()
        .deploy_and_publish(ServiceDescriptor::echo(), echo_handler())
        .map_err(|e| format!("deploy Echo: {e}"))?;
    let consumer_binding = binding(true);
    let consumer = Peer::with_binding(&consumer_binding);
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo"))
        .map_err(|e| format!("locate Echo: {e}"))?;
    Ok(InvokeKeepalive {
        seed,
        consumer,
        _consumer_binding: consumer_binding,
        _provider: provider,
        _provider_binding: provider_binding,
        service,
        payloads: Payloads::new(seed),
        stream: Stream::new(seed),
        dispatch_wait: Default::default(),
        serve: Default::default(),
    })
}

impl InvokeKeepalive {
    /// The first requests of the stream as the client encodes them.
    fn replayed_requests(&self) -> Vec<(Pick, Envelope)> {
        let proxy = ServiceProxy::new(ServiceDescriptor::echo(), self.service.endpoint.clone());
        let mut stream = Stream::new(self.seed);
        (0..REPLAYED)
            .map(|_| {
                let pick = stream.next_pick();
                let text = self.payloads.get(pick).to_owned();
                let envelope = proxy
                    .encode_request("echoString", &[Value::string(text)])
                    .expect("echoString request");
                (pick, envelope)
            })
            .collect()
    }
}

/// Mean of the samples a histogram gained between two snapshots.
fn histogram_mean_since(
    before: &telemetry::HistogramSnapshot,
    after: &telemetry::HistogramSnapshot,
) -> f64 {
    runner::ratio(after.sum - before.sum, after.count - before.count)
}

impl Workload for InvokeKeepalive {
    fn name(&self) -> &'static str {
        "invoke_keepalive"
    }

    fn call(&mut self) -> (Outcome, Duration) {
        let pick = self.stream.next_pick();
        let text = self.payloads.get(pick);
        let (reply, took) = runner::timed("core.invoke", || {
            self.consumer.client().invoke(
                &self.service,
                "echoString",
                &[Value::string(text.to_owned())],
            )
        });
        let outcome = match reply {
            Ok(value) if value.as_str() == Some(text) => Outcome::Ok,
            Ok(value) => Outcome::Wrong(format!(
                "echo of a {}-byte string answered {:.80?}",
                text.len(),
                value
            )),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        (outcome, took)
    }

    fn begin_traced(&mut self) {
        let t = telemetry::global();
        self.dispatch_wait = t.histogram("dispatch.queue_wait_us").snapshot();
        self.serve = t.histogram("server.serve_us").snapshot();
    }

    fn layer_metrics(&mut self, analysis: &Analysis, _calls: u64) -> Vec<Metric> {
        let t = telemetry::global();
        let dispatch_wait = histogram_mean_since(
            &self.dispatch_wait,
            &t.histogram("dispatch.queue_wait_us").snapshot(),
        );
        let serve = histogram_mean_since(&self.serve, &t.histogram("server.serve_us").snapshot());

        let requests = self.replayed_requests();
        let engine = MessageEngine::new(ServiceDescriptor::echo(), echo_handler());
        let budget = Duration::from_millis(150);
        let engine_us = runner::replay_us(requests.len(), budget, |i| {
            black_box(engine.process(black_box(&requests[i].1)));
        });
        let sized = |large: bool| -> Vec<(String, Envelope)> {
            requests
                .iter()
                .filter(|(pick, _)| pick.large == large)
                .map(|(_, env)| (env.to_xml(), env.clone()))
                .collect()
        };
        let mut out = vec![
            metric(
                "core.invoke_us",
                analysis.median_us("core.invoke").unwrap_or(0.0),
                "us",
            ),
            metric("core.dispatch_wait_us", dispatch_wait, "us"),
            metric(
                "core.handler_us",
                analysis.median_us("core.handler").unwrap_or(0.0),
                "us",
            ),
            metric("http.serve_us", serve, "us"),
            metric("wsdl.engine_us", engine_us, "us"),
        ];
        for (large, decode, encode) in [
            (false, "soap.decode_us.small", "soap.encode_us.small"),
            (true, "soap.decode_us.large", "soap.encode_us.large"),
        ] {
            let msgs = sized(large);
            let decode_us = runner::replay_us(msgs.len(), budget, |i| {
                black_box(Envelope::from_xml(black_box(&msgs[i].0)).expect("request decodes"));
            });
            let encode_us = runner::replay_us(msgs.len(), budget, |i| {
                black_box(black_box(&msgs[i].1).to_xml_bytes());
            });
            out.push(metric(decode, decode_us, "us"));
            out.push(metric(encode, encode_us, "us"));
        }
        out
    }

    fn http_exchanges(&self) -> Vec<(Vec<u8>, Response)> {
        let engine = MessageEngine::new(ServiceDescriptor::echo(), echo_handler());
        self.replayed_requests()
            .into_iter()
            .map(|(_, envelope)| {
                let mut request = Request::post("/Echo", CONTENT_TYPE, envelope.to_xml_bytes());
                request.headers.set("Host", "127.0.0.1:80");
                request.headers.set("Connection", "keep-alive");
                let reply = engine.process(&envelope).expect("echo answers");
                let mut response = Response::new(200, "OK");
                response.headers.set("Content-Type", CONTENT_TYPE);
                response.body = reply.to_xml_bytes();
                (encode_request(&request), response)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let picks = |seed| {
            let mut s = Stream::new(seed);
            (0..1000).map(|_| s.next_pick()).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
        assert_eq!(Payloads::new(5).small, Payloads::new(5).small);
        assert_ne!(Payloads::new(5).large, Payloads::new(6).large);
        let large = picks(5).iter().filter(|p| p.large).count();
        assert!(
            (50..150).contains(&large),
            "about one in ten is large: {large}"
        );
    }

    #[test]
    fn payload_sizes() {
        let p = Payloads::new(1);
        assert!(p.small.iter().all(|s| s.len() == SMALL_BYTES));
        assert!(p.large.iter().all(|s| s.len() == LARGE_BYTES));
    }
}
