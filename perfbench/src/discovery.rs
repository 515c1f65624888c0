//! `discovery_rw`: a `ShardedUddiClient` over real HTTP against a
//! 3-node, 4-shard, replication-3 `RegistryCluster`, every node's
//! handler behind one `TcpServer`. Reads (exact-name locates) run
//! beside writes (republishes under the key the first publish
//! returned), so a read-path gain that costs publishes shows.

use crate::runner::{self, metric, Metric, Outcome, Workload};
use crate::trace::{self, Analysis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use wsp_core::telemetry;
use wsp_http::{encode_request, Request, Response, Router, TcpServer};
use wsp_registry::cluster::stamp_epoch;
use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
use wsp_soap::{constants::CONTENT_TYPE, Envelope};
use wsp_uddi::{
    http_transport, BindingTemplate, BusinessService, ServiceQuery, SoapTransport, UDDI_NS,
};
use wsp_xml::Element;

/// Services published before the measured window.
pub const PRELOAD: usize = 300;
/// Locates per ten requests; the rest republish.
pub const LOCATES_PER_TEN: u32 = 8;
const CLUSTER: ClusterConfig = ClusterConfig {
    nodes: 3,
    shard_count: 4,
    replication: 3,
    default_ttl: None,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscRequest {
    Locate(usize),
    Republish(usize),
}

/// The request sequence: a pure function of the seed.
pub struct Stream {
    rng: StdRng,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0xD15C_0001),
        }
    }

    pub fn next_request(&mut self) -> DiscRequest {
        let locate = self.rng.random_range(0..10u32) < LOCATES_PER_TEN;
        let index = self.rng.random_range(0..PRELOAD);
        if locate {
            DiscRequest::Locate(index)
        } else {
            DiscRequest::Republish(index)
        }
    }
}

pub fn service_name(seed: u64, index: usize) -> String {
    format!("Svc-{seed:x}-{index:03}")
}

fn access_point(seed: u64, index: usize) -> String {
    format!("http://127.0.0.1:1/svc/{seed:x}/{index}")
}

fn retry_count() -> u64 {
    let t = telemetry::global();
    t.counter("registry.publish.failovers").get() + t.counter("registry.publish.redirects").get()
}

pub struct DiscoveryRw {
    seed: u64,
    stream: Stream,
    client: ShardedUddiClient,
    /// The records the preload's publishes returned, keys included.
    published: Vec<BusinessService>,
    _server: TcpServer,
    cluster: RegistryCluster,
    retries_at_start: u64,
}

pub fn setup(seed: u64) -> Result<DiscoveryRw, String> {
    let cluster = RegistryCluster::new(CLUSTER);
    let router = Router::new();
    for node in 0..CLUSTER.nodes {
        let handler = cluster.node_http_handler(node);
        router.deploy(
            &format!("node{node}"),
            Arc::new(move |req: &Request| trace::span("registry.node", || handler(req))),
        );
    }
    let server = TcpServer::launch(0, router).map_err(|e| format!("launch registry host: {e}"))?;
    let transports: Vec<SoapTransport> = (0..CLUSTER.nodes)
        .map(|node| {
            let inner = http_transport(server.service_uri(&format!("node{node}")));
            let wrapped: SoapTransport =
                Arc::new(move |env: &Envelope| trace::span("http.fresh_call", || inner(env)));
            wrapped
        })
        .collect();
    let client = ShardedUddiClient::connect(transports).map_err(|e| e.to_string())?;
    let mut published = Vec::with_capacity(PRELOAD);
    for index in 0..PRELOAD {
        let name = service_name(seed, index);
        let record = BusinessService::new("", "uddi:perfbench", name.clone())
            .with_binding(BindingTemplate::new("", access_point(seed, index)));
        let saved = client
            .publish(&record)
            .map_err(|e| format!("preload {name}: {e}"))?;
        if saved.name != name || saved.key.is_empty() {
            return Err(format!("preload {name} returned {saved:?}"));
        }
        published.push(saved);
    }
    Ok(DiscoveryRw {
        seed,
        stream: Stream::new(seed),
        client,
        published,
        _server: server,
        cluster,
        retries_at_start: 0,
    })
}

impl DiscoveryRw {
    fn locate(&self, index: usize) -> (Outcome, Duration) {
        let want = &self.published[index];
        let query = ServiceQuery::by_name(want.name.clone());
        let (reply, took) = runner::timed("registry.locate", || self.client.locate(&query));
        let found = match reply {
            Ok(found) => found,
            Err(e) => return (Outcome::Failed(e.to_string()), took),
        };
        let ap = access_point(self.seed, index);
        let outcome = match found.as_slice() {
            [one]
                if one.name == want.name
                    && one.key == want.key
                    && one.bindings.iter().any(|b| b.access_point == ap) =>
            {
                Outcome::Ok
            }
            _ => Outcome::Wrong(format!(
                "locate {} answered {} record(s): {:.200?}",
                want.name,
                found.len(),
                found
            )),
        };
        (outcome, took)
    }

    fn republish(&self, index: usize) -> (Outcome, Duration) {
        let record = &self.published[index];
        let (reply, took) = runner::timed("registry.publish", || self.client.publish(record));
        let outcome = match reply {
            Ok(saved) if saved.key == record.key => Outcome::Ok,
            Ok(saved) => Outcome::Wrong(format!(
                "republish of {} under {} returned key {}",
                record.name, record.key, saved.key
            )),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        (outcome, took)
    }
}

impl Workload for DiscoveryRw {
    fn name(&self) -> &'static str {
        "discovery_rw"
    }

    fn call(&mut self) -> (Outcome, Duration) {
        match self.stream.next_request() {
            DiscRequest::Locate(index) => self.locate(index),
            DiscRequest::Republish(index) => self.republish(index),
        }
    }

    /// Republishes append to the registry's replication log, which is
    /// never compacted and is cloned on every replication step, so
    /// writes slow as a run goes on. Counting a fixed prefix of calls
    /// keeps a faster or slower run from measuring a different log.
    fn counted_slices(&self) -> usize {
        12
    }

    fn begin_traced(&mut self) {
        self.retries_at_start = retry_count();
    }

    fn layer_metrics(&mut self, analysis: &Analysis, _calls: u64) -> Vec<Metric> {
        let locates = analysis.count("registry.locate") as u64;
        let fan_out = analysis
            .edges
            .get(&("registry.locate", "http.fresh_call"))
            .copied()
            .unwrap_or(0);
        let median = |layer| analysis.median_us(layer).unwrap_or(0.0);
        vec![
            metric("registry.locate_us", median("registry.locate"), "us"),
            metric("registry.publish_us", median("registry.publish"), "us"),
            metric("registry.node_us", median("registry.node"), "us"),
            metric("http.fresh_call_us", median("http.fresh_call"), "us"),
            metric(
                "registry.transport_calls_per_locate",
                runner::ratio(fan_out, locates),
                "ratio",
            ),
            metric(
                "registry.retries",
                (retry_count() - self.retries_at_start) as f64,
                "count",
            ),
        ]
    }

    fn http_exchanges(&self) -> Vec<(Vec<u8>, Response)> {
        let epoch = self.cluster.shard_map().epoch();
        let mut stream = Stream::new(self.seed);
        (0..100)
            .map(|_| {
                let payload = match stream.next_request() {
                    DiscRequest::Locate(index) => {
                        let mut find =
                            ServiceQuery::by_name(service_name(self.seed, index)).to_element();
                        stamp_epoch(&mut find, epoch);
                        find
                    }
                    DiscRequest::Republish(index) => {
                        let mut save = Element::new(UDDI_NS, "save_service");
                        stamp_epoch(&mut save, epoch);
                        save.push_element(self.published[index].to_element());
                        save
                    }
                };
                let envelope = Envelope::request(payload);
                let reply = self.cluster.process(0, &envelope);
                let mut request = Request::post("/node0", CONTENT_TYPE, envelope.to_xml_bytes());
                request.headers.set("Host", "127.0.0.1:80");
                request.headers.set("Connection", "close");
                (
                    encode_request(&request),
                    Response::ok(CONTENT_TYPE, reply.to_xml()),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let reqs = |seed| {
            let mut s = Stream::new(seed);
            (0..1000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(reqs(3), reqs(3));
        assert_ne!(reqs(3), reqs(4));
        let locates = reqs(3)
            .iter()
            .filter(|r| matches!(r, DiscRequest::Locate(_)))
            .count();
        assert!(
            (720..880).contains(&locates),
            "about 80% locates: {locates}"
        );
        assert_ne!(service_name(3, 1), service_name(4, 1));
    }
}
