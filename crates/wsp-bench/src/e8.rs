//! E8 — binding composition (claim C6): locate through UDDI, invoke
//! over P2PS pipes, versus each pure mode.
//!
//! A provider is dual-homed: its P2PS endpoint is published into both
//! worlds (an advert in the overlay, a record in the registry). We
//! measure the full locate+invoke path three ways.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::{HttpUddiBinding, P2psBinding, P2psConfig};
use wsp_core::{Binding, BindingKind, EventBus, LocatedService, Peer, ServiceQuery};
use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork};
use wsp_uddi::Registry;
use wsp_wsdl::{OperationDef, ServiceDescriptor, Value, XsdType};

/// One mode's locate+invoke timing.
#[derive(Debug, Clone)]
pub struct E8Row {
    pub mode: &'static str,
    pub locate_ms: f64,
    pub invoke_ms: f64,
    pub ok: bool,
}

fn descriptor() -> ServiceDescriptor {
    ServiceDescriptor::new("MixBench", "urn:bench:mix").operation(
        OperationDef::new("echo")
            .input("data", XsdType::String)
            .returns(XsdType::String),
    )
}

/// Set up the dual-homed world and run all three modes.
pub fn run() -> Vec<E8Row> {
    let registry = Registry::new();
    let network = ThreadNetwork::new();
    let rv = network.spawn(PeerConfig::rendezvous(PeerId(0xE800)));
    let provider_peer = network.spawn(PeerConfig::ordinary(PeerId(0xE801)));
    let consumer_peer = network.spawn(PeerConfig::ordinary(PeerId(0xE802)));
    for p in [&provider_peer, &consumer_peer] {
        p.add_neighbour(rv.id(), true);
        rv.add_neighbour(p.id(), false);
    }

    // P2PS provider.
    let p2ps_binding = P2psBinding::new(provider_peer, EventBus::new(), P2psConfig::default());
    let p2ps_provider = Peer::with_binding(&p2ps_binding);
    let deployed = p2ps_provider
        .server()
        .deploy_and_publish(
            descriptor(),
            Arc::new(|_: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .expect("deploy p2ps");
    // Same service additionally registered in UDDI with its p2ps://
    // access point (the paper's "P2PS Server could use the UDDI
    // conversant ServicePublisher").
    let uddi = wsp_uddi::UddiClient::direct(registry.clone());
    uddi.save_service(
        &wsp_uddi::BusinessService::new("", "bench", "MixBench").with_binding(
            wsp_uddi::BindingTemplate::new("", deployed.primary_endpoint().unwrap()),
        ),
    )
    .expect("register in uddi");

    // An HTTP provider of the same contract for the pure-HTTP row.
    let http_provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry.clone(),
        EventBus::new(),
    ));
    http_provider
        .server()
        .deploy_and_publish(
            ServiceDescriptor::new("MixBenchHttp", "urn:bench:mix").operation(
                OperationDef::new("echo")
                    .input("data", XsdType::String)
                    .returns(XsdType::String),
            ),
            Arc::new(|_: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .expect("deploy http");

    std::thread::sleep(Duration::from_millis(200));

    let consumer_binding = P2psBinding::new(
        consumer_peer,
        EventBus::new(),
        P2psConfig {
            discovery_window: Duration::from_millis(400),
            ..P2psConfig::default()
        },
    );
    let consumer = Peer::with_binding(&consumer_binding);
    let http_binding = HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
    // Give the consumer the HTTP invoker too (dual stack client).
    consumer.client().add_invoker(http_binding.invoker());

    let payload = Value::string("mixed-mode payload");
    let mut rows = Vec::new();

    // Mode 1: pure P2PS — locate by flooding, invoke over pipes.
    {
        let start = Instant::now();
        let service = consumer
            .client()
            .locate_one(&ServiceQuery::by_name("MixBench"))
            .expect("p2ps locate");
        let locate_ms = start.elapsed().as_secs_f64() * 1000.0;
        let start = Instant::now();
        let out = consumer
            .client()
            .invoke(&service, "echo", std::slice::from_ref(&payload));
        rows.push(E8Row {
            mode: "pure p2ps (flood locate, pipe invoke)",
            locate_ms,
            invoke_ms: start.elapsed().as_secs_f64() * 1000.0,
            ok: out.is_ok(),
        });
    }

    // Mode 2: mixed — UDDI locator answers instantly with the p2ps
    // endpoint; invoke over pipes.
    {
        let start = Instant::now();
        let records = uddi
            .locate(&ServiceQuery::by_name("MixBench").to_uddi())
            .expect("uddi locate");
        let endpoint = records[0].bindings[0].access_point.clone();
        let service = LocatedService::new(deployed.wsdl.clone(), endpoint, BindingKind::P2ps);
        let locate_ms = start.elapsed().as_secs_f64() * 1000.0;
        let start = Instant::now();
        let out = consumer
            .client()
            .invoke(&service, "echo", std::slice::from_ref(&payload));
        rows.push(E8Row {
            mode: "mixed (UDDI locate, pipe invoke)",
            locate_ms,
            invoke_ms: start.elapsed().as_secs_f64() * 1000.0,
            ok: out.is_ok(),
        });
    }

    // Mode 3: pure HTTP — UDDI locate + HTTP invoke.
    {
        let http_consumer = Peer::with_binding(&HttpUddiBinding::with_local_registry(
            registry,
            EventBus::new(),
        ));
        let start = Instant::now();
        let service = http_consumer
            .client()
            .locate_one(&ServiceQuery::by_name("MixBenchHttp"))
            .expect("http locate");
        let locate_ms = start.elapsed().as_secs_f64() * 1000.0;
        let start = Instant::now();
        let out = http_consumer
            .client()
            .invoke(&service, "echo", std::slice::from_ref(&payload));
        rows.push(E8Row {
            mode: "pure http (UDDI locate, HTTP invoke)",
            locate_ms,
            invoke_ms: start.elapsed().as_secs_f64() * 1000.0,
            ok: out.is_ok(),
        });
    }

    drop(rv);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_modes_succeed() {
        let _serial = crate::serial_guard();
        let rows = run();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ok, "{row:?}");
        }
    }

    #[test]
    fn mixed_locate_beats_flood_locate() {
        let _serial = crate::serial_guard();
        let rows = run();
        let pure_p2ps = rows
            .iter()
            .find(|r| r.mode.starts_with("pure p2ps"))
            .unwrap();
        let mixed = rows.iter().find(|r| r.mode.starts_with("mixed")).unwrap();
        // Flood locate waits out the discovery window; a registry
        // lookup doesn't.
        assert!(
            mixed.locate_ms < pure_p2ps.locate_ms,
            "mixed {mixed:?} vs pure {pure_p2ps:?}"
        );
    }
}
