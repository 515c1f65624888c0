//! Figure 3 over a real network registry: deploy / publish / locate /
//! invoke with every piece on the wire, plus fault paths, dynamic
//! undeploy and the HTTPG authenticated transport.

use std::sync::Arc;
use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig};
use wsp_core::{EventBus, Peer, ServiceQuery, WspError};
use wsp_http::HttpgCredential;
use wsp_integration_tests::{calc_descriptor, calc_handler};
use wsp_uddi::{RegistryServer, UddiClient};
use wsp_wsdl::Value;

fn networked_pair() -> (RegistryServer, Peer, Peer) {
    let registry = RegistryServer::launch(0).unwrap();
    let provider = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    let consumer = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    (registry, provider, consumer)
}

#[test]
fn full_lifecycle_over_network_registry() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert!(service.endpoint.starts_with("http://127.0.0.1:"));
    // The WSDL fetched over the wire carries the full contract.
    assert_eq!(service.wsdl.descriptor.operations.len(), 4);

    let sum = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(40.0), Value::Double(2.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(42.0));
    registry.shutdown();
}

#[test]
fn service_fault_crosses_the_wire() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let err = consumer.client().invoke(&service, "fail", &[]).unwrap_err();
    match err {
        WspError::Fault(fault) => assert_eq!(fault.reason, "deliberate failure"),
        other => panic!("expected fault, got {other:?}"),
    }
    registry.shutdown();
}

#[test]
fn one_way_operation_returns_immediately() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let out = consumer
        .client()
        .invoke(&service, "log", &[Value::string("note")])
        .unwrap();
    assert_eq!(out, Value::Null);
    registry.shutdown();
}

#[test]
fn undeploy_yields_404_and_unpublish_removes_record() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();

    assert!(provider.server().undeploy("Calc"));
    // Registry record is gone: fresh discovery finds nothing.
    assert!(consumer
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap()
        .is_empty());
    // And the old endpoint no longer answers.
    let err = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
        .unwrap_err();
    assert!(matches!(err, WspError::Invoke(_)), "{err:?}");
    registry.shutdown();
}

#[test]
fn redeploy_at_runtime_updates_behaviour() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(
        consumer
            .client()
            .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
            .unwrap(),
        Value::Double(2.0)
    );
    // Hot-swap the implementation (no restart — the container-less
    // host just replaces the route).
    provider
        .server()
        .deploy(
            calc_descriptor(),
            Arc::new(|_op: &str, _args: &[Value]| Ok(Value::Double(-1.0))),
        )
        .unwrap();
    assert_eq!(
        consumer
            .client()
            .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
            .unwrap(),
        Value::Double(-1.0)
    );
    registry.shutdown();
}

#[test]
fn discovery_by_property_category() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let hits = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "integration"))
        .unwrap();
    assert_eq!(hits.len(), 1);
    let misses = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "production"))
        .unwrap();
    assert!(misses.is_empty());
    registry.shutdown();
}

#[test]
fn httpg_transport_requires_credentials() {
    let registry = RegistryServer::launch(0).unwrap();
    let credential = HttpgCredential::new("grid-secret", "/O=Grid/CN=wspeer-test");

    let provider_binding = HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(credential.clone()),
            ..HttpUddiConfig::default()
        },
    );
    let provider = Peer::with_binding(&provider_binding);
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let deployed = provider.server().deployed_service("Calc").unwrap();
    assert!(deployed.primary_endpoint().unwrap().starts_with("httpg://"));

    // A consumer with the right credential succeeds.
    let good = Peer::with_binding(&HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(credential),
            ..HttpUddiConfig::default()
        },
    ));
    let service = good
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let sum = good
        .client()
        .invoke(&service, "add", &[Value::Double(2.0), Value::Double(3.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(5.0));

    // A consumer with the wrong credential is rejected at the transport.
    let bad = Peer::with_binding(&HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(HttpgCredential::new("wrong-secret", "/CN=mallory")),
            ..HttpUddiConfig::default()
        },
    ));
    // Discovery already fails: the WSDL fetch is guarded too.
    assert!(bad
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap()
        .is_empty());
    // Direct invocation with a stale LocatedService fails as well.
    let err = bad
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)]);
    assert!(err.is_err());
    registry.shutdown();
}

#[test]
fn two_providers_same_name_both_located() {
    let registry = RegistryServer::launch(0).unwrap();
    for _ in 0..2 {
        let provider = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
            &registry.uri(),
            EventBus::new(),
        ));
        provider
            .server()
            .deploy_and_publish(calc_descriptor(), calc_handler())
            .unwrap();
        std::mem::forget(provider); // keep hosts alive for the assertion
    }
    let consumer = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    let hits = consumer
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(hits.len(), 2);
    let endpoints: std::collections::HashSet<_> = hits.iter().map(|h| h.endpoint.clone()).collect();
    assert_eq!(endpoints.len(), 2, "distinct providers");
    registry.shutdown();
}

/// Registry retries run under the binding's policy deadline: against an
/// unreachable registry, five attempts 50 ms apart (doubling) would
/// sleep 750 ms, but a 60 ms deadline ends the call after the first
/// backoff.
#[test]
fn registry_retries_stop_at_the_policy_deadline() {
    use std::time::{Duration, Instant};
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let policy = wsp_core::ResiliencePolicy::retrying(5)
        .with_backoff(Duration::from_millis(50), 2.0, Duration::from_secs(1))
        .with_deadline(Duration::from_millis(60));
    let binding = HttpUddiBinding::new(
        UddiClient::http(format!("http://127.0.0.1:{port}/uddi")),
        EventBus::new(),
        HttpUddiConfig {
            registry_policy: policy,
            ..HttpUddiConfig::default()
        },
    );
    let peer = Peer::with_binding(&binding);
    let started = Instant::now();
    let result = peer.client().locate(&ServiceQuery::by_name("Nowhere"));
    let took = started.elapsed();
    assert!(
        matches!(result, Err(WspError::Locate(_))),
        "an unreachable registry fails discovery: {result:?}"
    );
    assert!(
        took < Duration::from_millis(200),
        "the 60 ms deadline must cut the 750 ms backoff schedule short, took {took:?}"
    );
}
