//! The mediation gateway end-to-end: real backends behind real TCP
//! servers, the sharded registry cluster as the discovery plane, and
//! the gateway fronting both — caching, fair-share admission, routing
//! and failover driven through the public bindings.
//!
//! The fault scenarios are seeded (`WSP_FAULT_SEED`, default 2005) so
//! CI replays the same crash/flood schedule bit-identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsp_core::overload::{LoadShedPolicy, RETRY_AFTER_MS_HEADER, TENANT_HEADER};
use wsp_core::telemetry;
use wsp_gateway::{Gateway, GatewayCacheConfig, GatewayConfig, GatewayError};
use wsp_http::{http_call_uri, Request, Response, Router, TcpServer};
use wsp_p2ps::{pipe_call, P2psMessage, PeerId, PipeAdvertisement};
use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
use wsp_soap::{Envelope, HeaderBlock};
use wsp_uddi::{BindingTemplate, BusinessService};
use wsp_xml::Element;

fn fault_seed() -> u64 {
    std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005)
}

fn test_cluster() -> RegistryCluster {
    RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    })
}

fn eager_client(cluster: &RegistryCluster) -> ShardedUddiClient {
    ShardedUddiClient::connect((0..6).map(|n| cluster.node_transport(n)).collect())
        .expect("bootstrap shard map")
        .with_breaker_config(wsp_core::health::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::ZERO,
        })
}

/// A backend serving `service`: answers any POST with a SOAP envelope
/// wrapping `marker`, counting hits. Returns the server and the access
/// point to register.
fn backend(service: &str, marker: &str) -> (TcpServer, String, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let marker = marker.to_owned();
    let counted = Arc::clone(&hits);
    let router = Router::new();
    router.deploy(
        service,
        Arc::new(move |_req: &Request| {
            counted.fetch_add(1, Ordering::SeqCst);
            let reply = Envelope::request(
                Element::build("urn:itest", "reply")
                    .text(marker.clone())
                    .finish(),
            );
            Response::ok("application/soap+xml; charset=utf-8", reply.to_xml())
        }),
    );
    let server = TcpServer::launch(0, router).expect("launch backend");
    let uri = server.service_uri(service);
    (server, uri, hits)
}

fn publish(client: &ShardedUddiClient, service: &str, access_points: &[&str]) -> BusinessService {
    let mut svc = BusinessService::new("", "uddi:wspeer:gwtest", service);
    for (i, ap) in access_points.iter().enumerate() {
        svc = svc.with_binding(BindingTemplate::new(format!("binding-{i}"), *ap));
    }
    client.publish(&svc).expect("publish backend bindings")
}

fn soap_request(text: &str) -> Vec<u8> {
    Envelope::request(Element::build("urn:itest", "ask").text(text).finish())
        .to_xml()
        .into_bytes()
}

fn reply_text(body: &[u8]) -> String {
    let envelope = Envelope::from_xml(std::str::from_utf8(body).unwrap()).unwrap();
    envelope.payload().map(|p| p.text()).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------------

/// An idempotent operation is served from the response cache on the
/// second byte-equal request — byte-identical to the first reply, with
/// the backend untouched.
#[test]
fn idempotent_responses_replay_byte_identically_without_the_backend() {
    let cluster = test_cluster();
    let (server, uri, hits) = backend("EchoCache", "cached-v1");
    publish(&eager_client(&cluster), "EchoCache", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().idempotent("EchoCache", "*"),
    );
    let request = soap_request("same-bytes");
    let first = gateway
        .invoke("tenant-a", "EchoCache", &request, None)
        .expect("first call reaches the backend");
    assert!(!first.cached);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    let second = gateway
        .invoke("tenant-a", "EchoCache", &request, None)
        .expect("second call");
    assert!(second.cached, "byte-equal request must hit the cache");
    assert_eq!(
        second.body, first.body,
        "cache hits are byte-identical to the backend reply"
    );
    assert_eq!(hits.load(Ordering::SeqCst), 1, "the backend saw one call");

    // A different request body is a different cache identity.
    let other = soap_request("different-bytes");
    let third = gateway
        .invoke("tenant-a", "EchoCache", &other, None)
        .expect("third call");
    assert!(!third.cached);
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

/// TTL expiry backstops the response cache: after the TTL the same
/// bytes go back to the backend.
#[test]
fn response_ttl_expiry_returns_to_the_backend() {
    let cluster = test_cluster();
    let (server, uri, hits) = backend("EchoTtl", "ttl-v1");
    publish(&eager_client(&cluster), "EchoTtl", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default()
            .idempotent("EchoTtl", "*")
            .with_cache(GatewayCacheConfig {
                response_ttl: Duration::from_millis(40),
                ..GatewayCacheConfig::default()
            }),
    );
    let request = soap_request("ttl-bytes");
    gateway
        .invoke("t", "EchoTtl", &request, None)
        .expect("fill the cache");
    assert!(
        gateway
            .invoke("t", "EchoTtl", &request, None)
            .expect("hit")
            .cached
    );
    std::thread::sleep(Duration::from_millis(80));
    let after = gateway
        .invoke("t", "EchoTtl", &request, None)
        .expect("after TTL");
    assert!(!after.cached, "the TTL must expire the entry");
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    server.shutdown();
}

/// The acceptance bar for invalidation-on-republish: with TTLs far
/// longer than the test, a republish that moves the service to a new
/// backend reaches gateway clients on the next data-version probe —
/// the cached route is dropped without waiting out any TTL.
#[test]
fn republish_reaches_gateway_clients_without_waiting_out_the_ttl() {
    let cluster = test_cluster();
    let (old_server, old_uri, old_hits) = backend("Movable", "v1");
    let (new_server, new_uri, new_hits) = backend("Movable", "v2");
    let writer = eager_client(&cluster);
    let mut record = publish(&writer, "Movable", &[&old_uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default()
            // Hour-long TTLs: if invalidation relied on expiry, this
            // test could never pass.
            .with_cache(GatewayCacheConfig {
                locate_ttl: Duration::from_secs(3600),
                wsdl_ttl: Duration::from_secs(3600),
                response_ttl: Duration::from_secs(3600),
                response_capacity: 64,
            })
            .with_revalidate_interval(Duration::ZERO),
    );
    let request = soap_request("which-backend");
    let first = gateway
        .invoke("t", "Movable", &request, None)
        .expect("route to the original backend");
    assert_eq!(reply_text(&first.body), "v1");
    assert_eq!(gateway.caches().locate_entries(), 1, "route cached");

    // Republish: the same record, rebound to the new backend. The
    // registry bumps the owning shard's data version on commit.
    record.bindings = vec![BindingTemplate::new("binding-0", new_uri.clone())];
    writer
        .publish(&record)
        .expect("republish onto the new backend");

    let second = gateway
        .invoke("t", "Movable", &request, None)
        .expect("route after republish");
    assert_eq!(
        reply_text(&second.body),
        "v2",
        "the republished binding must be served without waiting out the TTL"
    );
    assert_eq!(old_hits.load(Ordering::SeqCst), 1);
    assert_eq!(new_hits.load(Ordering::SeqCst), 1);
    old_server.shutdown();
    new_server.shutdown();
}

// ---------------------------------------------------------------------------
// Routing and failover
// ---------------------------------------------------------------------------

/// Seeded backend-crash matrix: one of the registered backends dies;
/// the gateway's failover loop records the breaker outcome and answers
/// from the survivor on the same request.
#[test]
fn backend_crash_fails_over_to_the_survivor() {
    let _seed = fault_seed(); // one deterministic schedule; no randomness needed here
    let cluster = test_cluster();
    let (doomed, doomed_uri, _) = backend("Calc", "doomed");
    let (survivor, survivor_uri, survivor_hits) = backend("Calc", "survivor");
    publish(
        &eager_client(&cluster),
        "Calc",
        &[&doomed_uri, &survivor_uri],
    );

    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());
    let failovers_before = telemetry::global()
        .counter("gateway.backend.failovers")
        .get();

    // Crash the first backend before any traffic: the first pick (tie
    // on load, so candidate order) hits the corpse and must fail over.
    doomed.shutdown();
    let reply = gateway
        .invoke("t", "Calc", &soap_request("2+2"), None)
        .expect("failover must answer from the survivor");
    assert_eq!(reply_text(&reply.body), "survivor");
    assert_eq!(survivor_hits.load(Ordering::SeqCst), 1);
    assert!(
        telemetry::global()
            .counter("gateway.backend.failovers")
            .get()
            > failovers_before,
        "the failover counter must record the retried attempt"
    );

    // With the breaker now open on the corpse, the next call goes
    // straight to the survivor — no second failover.
    let reply = gateway
        .invoke("t", "Calc", &soap_request("3+3"), None)
        .expect("survivor keeps answering");
    assert_eq!(reply_text(&reply.body), "survivor");
    survivor.shutdown();
}

/// When every backend is gone the gateway reports Unavailable and
/// drops the (now suspect) cached route, so recovery re-locates.
#[test]
fn total_backend_loss_is_unavailable_and_invalidates_the_route() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Gone", "gone");
    publish(&eager_client(&cluster), "Gone", &[&uri]);
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());

    gateway
        .invoke("t", "Gone", &soap_request("hello"), None)
        .expect("backend up");
    assert_eq!(gateway.caches().locate_entries(), 1);
    server.shutdown();
    match gateway.invoke("t", "Gone", &soap_request("hello"), None) {
        Err(GatewayError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(
        gateway.caches().locate_entries(),
        0,
        "an all-backends-down route must be invalidated"
    );
}

/// A raw-socket backend that reads one request per connection, counts
/// it, answers `200` with a body cut off mid-way and closes: the
/// request ran, but the gateway cannot tell from the wire.
fn truncating_backend(service: &str) -> (String, Arc<AtomicU64>) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let uri = format!("http://{}/{service}", listener.local_addr().unwrap());
    let hits = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&hits);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut request = Vec::new();
            let mut chunk = [0u8; 4096];
            // Read the head and the declared body before answering.
            let complete = |buf: &[u8]| {
                let text = String::from_utf8_lossy(buf);
                let Some(head_end) = text.find("\r\n\r\n") else {
                    return false;
                };
                let length = text[..head_end]
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .unwrap_or(0);
                buf.len() >= head_end + 4 + length
            };
            while !complete(&request) {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&chunk[..n]),
                }
            }
            counted.fetch_add(1, Ordering::SeqCst);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 400\r\n\r\n<partial");
        }
    });
    (uri, hits)
}

/// A request that may already have run on one backend is not resent to
/// another unless its operation is declared idempotent: the cut-off
/// reply fails the call as Unavailable, with the breaker failure and
/// the route invalidation of an exhausted failover. An idempotent
/// operation still fails over.
#[test]
fn a_non_idempotent_request_is_not_resent_after_it_may_have_run() {
    let cluster = test_cluster();
    let (cut_uri, cut_hits) = truncating_backend("Ledger");
    let (standby, standby_uri, standby_hits) = backend("Ledger", "standby");
    publish(&eager_client(&cluster), "Ledger", &[&cut_uri, &standby_uri]);
    let gateway = Gateway::new(eager_client(&cluster), GatewayConfig::default());

    match gateway.invoke("t", "Ledger", &soap_request("credit 10"), None) {
        Err(GatewayError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(cut_hits.load(Ordering::SeqCst), 1, "the put ran once");
    assert_eq!(
        standby_hits.load(Ordering::SeqCst),
        0,
        "and was not resent to the standby"
    );
    assert_eq!(
        gateway
            .pools()
            .health()
            .breaker(&cut_uri)
            .consecutive_failures(),
        1,
        "the cut-off reply counts against the backend"
    );
    assert_eq!(
        gateway.caches().locate_entries(),
        0,
        "the suspect route is invalidated"
    );

    let (cut_uri, cut_hits) = truncating_backend("Audit");
    let (standby_too, standby_uri, standby_hits) = backend("Audit", "standby");
    publish(&eager_client(&cluster), "Audit", &[&cut_uri, &standby_uri]);
    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().idempotent("Audit", "ask"),
    );
    let reply = gateway
        .invoke("t", "Audit", &soap_request("balance"), None)
        .expect("an idempotent operation fails over");
    assert_eq!(reply_text(&reply.body), "standby");
    assert_eq!(cut_hits.load(Ordering::SeqCst), 1);
    assert_eq!(standby_hits.load(Ordering::SeqCst), 1);
    standby.shutdown();
    standby_too.shutdown();
}

/// Seeded registry-failover matrix: the shard primary crashes while the
/// gateway holds cached routes filled under the old epoch. The view
/// change bumps the map epoch; the gateway's next probe flushes the
/// routing cache, and the request still completes through the degraded
/// discovery plane.
#[test]
fn registry_failover_under_cached_maps_flushes_and_recovers() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Durable", "still-here");
    let writer = eager_client(&cluster);
    let record = publish(&writer, "Durable", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_revalidate_interval(Duration::ZERO),
    );
    gateway
        .invoke("t", "Durable", &soap_request("pre-crash"), None)
        .expect("pre-crash call");
    assert_eq!(gateway.caches().locate_entries(), 1);
    let epoch_before = gateway.caches().epoch();

    // Crash the owning shard's primary and drive the view change with a
    // write (exactly what a live deployer would be doing).
    let map = cluster.shard_map();
    let shard = map.shard_of("Durable");
    cluster.crash(map.shard(shard).primary());
    writer
        .publish(&record)
        .expect("failover publish drives the view change");
    assert!(cluster.shard_map().epoch() > epoch_before);

    let reply = gateway
        .invoke("t", "Durable", &soap_request("post-crash"), None)
        .expect("mediation must survive the registry failover");
    assert_eq!(reply_text(&reply.body), "still-here");
    assert!(
        gateway.caches().epoch() > epoch_before,
        "the probe must adopt the post-failover epoch"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Fair-share admission across the fronts
// ---------------------------------------------------------------------------

/// Seeded hot-tenant flood: the hot tenant saturates its guaranteed
/// share plus everything borrowable, and is shed with a per-tenant
/// retry hint — while the cold tenant's requests keep flowing
/// end-to-end through the HTTP front.
#[test]
fn hot_tenant_flood_cannot_starve_the_cold_tenant() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Shared", "ok");
    publish(&eager_client(&cluster), "Shared", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_admission(
            LoadShedPolicy::fair(4)
                .with_weight("hot", 1)
                .with_weight("cold", 1)
                .with_counter_prefix("gateway.tenant"),
        ),
    );
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let gw_uri = front.service_uri("Shared");

    // The flood: hold the hot tenant's entire admissible budget open
    // (its guaranteed share; borrowing is blocked by the cold tenant's
    // reserve).
    let mut held = Vec::new();
    while let Ok(permit) = gateway.admission().try_admit("hot", 0, None) {
        held.push(permit);
        assert!(held.len() <= 4, "admission must be bounded");
    }
    assert_eq!(
        held.len(),
        gateway.admission().guaranteed_share("hot"),
        "the hot tenant can fill exactly its guaranteed share"
    );

    // Hot is shed at the edge with the retry hint…
    let mut hot_req = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("flood"),
    );
    hot_req.headers.set(TENANT_HEADER, "hot");
    let shed = http_call_uri(&gw_uri, hot_req).expect("transport ok");
    assert_eq!(shed.status, 503);
    assert!(shed.headers.get("Retry-After").is_some());
    assert!(shed.headers.get(RETRY_AFTER_MS_HEADER).is_some());

    // …while the cold tenant sails through the same front.
    let mut cold_req = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("calm"),
    );
    cold_req.headers.set(TENANT_HEADER, "cold");
    let ok = http_call_uri(&gw_uri, cold_req).expect("transport ok");
    assert_eq!(ok.status, 200, "the cold tenant must not be starved");
    assert_eq!(reply_text(&ok.body), "ok");

    // Releasing the flood restores the hot tenant.
    held.clear();
    let mut retry = Request::post(
        "/",
        "application/soap+xml; charset=utf-8",
        soap_request("after-flood"),
    );
    retry.headers.set(TENANT_HEADER, "hot");
    assert_eq!(http_call_uri(&gw_uri, retry).expect("ok").status, 200);
    front.shutdown();
    server.shutdown();
}

/// The P2PS front runs the same pipeline: tenant from the `Tenant`
/// SOAP header, mediated reply on the same pipe, and a busy fault with
/// the retry hint when the tenant is shed.
#[test]
fn p2ps_front_mediates_and_sheds_with_busy_faults() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Piped", "via-pipe");
    publish(&eager_client(&cluster), "Piped", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().with_admission(
            LoadShedPolicy::fair(2)
                .with_weight("pipe-hot", 1)
                .with_weight("pipe-cold", 1)
                .with_counter_prefix("gateway.tenant"),
        ),
    );
    let front = gateway
        .launch_pipe("127.0.0.1:0")
        .expect("launch pipe front");
    let addr = front.addr();
    let advert = PipeAdvertisement::new(PeerId(0xC0), Some("Piped".into()), "gw-in");

    let call = |tenant: &str| -> Envelope {
        let mut envelope = Envelope::request(
            Element::build("urn:itest", "ask")
                .text("over-pipe")
                .finish(),
        );
        envelope.add_header(HeaderBlock::new(
            Element::build("", "Tenant").text(tenant).finish(),
        ));
        let message = P2psMessage::PipeData {
            to: advert.clone(),
            payload: envelope.to_xml(),
        };
        match pipe_call(addr, &message, Duration::from_secs(2)).expect("pipe call") {
            P2psMessage::PipeData { payload, .. } => Envelope::from_xml(&payload).expect("reply"),
            other => panic!("unexpected pipe reply: {other:?}"),
        }
    };

    let reply = call("pipe-cold");
    assert_eq!(
        reply.payload().map(|p| p.text()).as_deref(),
        Some("via-pipe"),
        "the pipe front must mediate to the HTTP backend"
    );

    // Flood the hot tenant's share, then observe the busy fault.
    let _held: Vec<_> =
        std::iter::from_fn(|| gateway.admission().try_admit("pipe-hot", 0, None).ok()).collect();
    let fault = call("pipe-hot");
    let fault = fault.fault_body().expect("a shed surfaces as a SOAP fault");
    assert!(
        fault.reason.contains("wsp:overloaded"),
        "busy fault with the machine-readable prefix, got: {}",
        fault.reason
    );
    front.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// `/metrics` on the gateway front reports the cache counters, the
/// per-tenant gauges, and the advert-cache lines from the shared
/// telemetry splice.
#[test]
fn metrics_report_cache_counters_and_tenant_gauges() {
    let cluster = test_cluster();
    let (server, uri, _) = backend("Metered", "m");
    publish(&eager_client(&cluster), "Metered", &[&uri]);

    let gateway = Gateway::new(
        eager_client(&cluster),
        GatewayConfig::default().idempotent("Metered", "*"),
    );
    let front = gateway.launch_http(0).expect("launch gateway http front");
    let request = soap_request("metered");
    gateway
        .invoke("acme", "Metered", &request, None)
        .expect("miss");
    gateway
        .invoke("acme", "Metered", &request, None)
        .expect("hit");

    let metrics = http_call_uri(&front.service_uri("metrics"), Request::get("/"))
        .expect("metrics endpoint")
        .body;
    let text = String::from_utf8(metrics).expect("utf-8 metrics");
    for needle in [
        "gateway.cache.locate.miss",
        "gateway.cache.response.hit",
        "gateway.cache.response.miss",
        "gateway_locate_entries",
        "gateway_response_entries",
        "gateway_in_flight_total",
        "gateway_tenant_in_flight{tenant=\"acme\"}",
        "advert_cache_hits",
        "advert_cache_misses",
        "bufpool_hits",
    ] {
        assert!(
            text.contains(needle),
            "metrics must report {needle}\n{text}"
        );
    }
    front.shutdown();
    server.shutdown();
}
