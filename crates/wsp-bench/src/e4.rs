//! E4 — asynchronous vs synchronous invocation (claim C2).
//!
//! Real threads, real HTTP: a consumer fans work out to N slow services.
//! The blocking client pays the sum of all service times; the
//! event-driven client overlaps them and pays roughly the slowest one.
//! This is why "asynchronicity allows for P2P style interactions with
//! unreliable nodes".

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{
    ClientMessageEvent, Dispatcher, DispatcherConfig, EventBus, Peer, PeerMessageListener,
    ServiceQuery,
};
use wsp_uddi::Registry;
use wsp_wsdl::{OperationDef, ServiceDescriptor, Value, XsdType};

/// Results of one comparison, including the consumer dispatcher's own
/// counters — the async numbers are produced by the real shared
/// dispatch core (worker pool + correlation table), not by ad-hoc
/// threads.
#[derive(Debug, Clone)]
pub struct E4Row {
    pub services: usize,
    pub service_delay_ms: u64,
    pub sync_total_ms: f64,
    pub async_total_ms: f64,
    pub speedup: f64,
    /// Pool size of the consumer's dispatcher during the run.
    pub dispatcher_workers: usize,
    /// Jobs the consumer's dispatcher accepted (locate + sync + async).
    pub dispatcher_submitted: u64,
    /// Jobs completed; equal to submitted after the final flush.
    pub dispatcher_completed: u64,
    /// Jobs that panicked — must be zero.
    pub dispatcher_failed: u64,
}

struct Completions {
    done: parking_lot::Mutex<usize>,
}

impl PeerMessageListener for Completions {
    fn on_client_message(&self, event: &ClientMessageEvent) {
        assert!(event.result.is_ok(), "bench invocations must succeed");
        *self.done.lock() += 1;
    }
}

fn slow_descriptor(name: &str) -> ServiceDescriptor {
    ServiceDescriptor::new(name, format!("urn:bench:{name}")).operation(
        OperationDef::new("work")
            .input("x", XsdType::Int)
            .returns(XsdType::Int),
    )
}

/// Run one comparison: `services` providers each taking
/// `service_delay_ms` per call.
pub fn run(services: usize, service_delay_ms: u64) -> E4Row {
    let registry = Registry::new();
    let delay = Duration::from_millis(service_delay_ms);

    let mut providers = Vec::new();
    for i in 0..services {
        let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
            registry.clone(),
            EventBus::new(),
        ));
        provider
            .server()
            .deploy_and_publish(
                slow_descriptor(&format!("Slow{i}")),
                Arc::new(move |_op: &str, args: &[Value]| {
                    std::thread::sleep(delay);
                    Ok(args[0].clone())
                }),
            )
            .expect("deploy");
        providers.push(provider);
    }

    let events = EventBus::new();
    let listener = Arc::new(Completions {
        done: parking_lot::Mutex::new(0),
    });
    events.add_listener(listener.clone());
    let binding = HttpUddiBinding::with_local_registry(registry, events.clone());
    // Size the pool to the fan-out so the async run can overlap every
    // call; the sync run uses the very same dispatcher one job at a
    // time (there is only one pipeline).
    let dispatcher = Dispatcher::new(DispatcherConfig {
        workers: services.max(4),
        queue_capacity: 256,
    });
    let consumer = Peer::with_parts(events, dispatcher);
    consumer.attach(&binding);

    let targets = consumer
        .client()
        .locate(&ServiceQuery::by_name("Slow%"))
        .expect("locate");
    assert_eq!(targets.len(), services);

    // Synchronous: one after another.
    let start = Instant::now();
    for service in &targets {
        consumer
            .client()
            .invoke(service, "work", &[Value::Int(1)])
            .expect("sync invoke");
    }
    let sync_total_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Asynchronous: all in flight at once on the worker pool;
    // completion via events, flush() as the barrier.
    *listener.done.lock() = 0;
    let start = Instant::now();
    let handles: Vec<_> = targets
        .iter()
        .map(|service| {
            consumer
                .client()
                .invoke_async(service.clone(), "work", vec![Value::Int(1)])
        })
        .collect();
    consumer.dispatcher().flush();
    let async_total_ms = start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        *listener.done.lock(),
        services,
        "every completion reported via events"
    );
    for handle in handles {
        handle.wait().expect("async invoke");
    }

    let stats = consumer.dispatcher().stats();
    E4Row {
        services,
        service_delay_ms,
        sync_total_ms,
        async_total_ms,
        speedup: sync_total_ms / async_total_ms,
        dispatcher_workers: stats.workers,
        dispatcher_submitted: stats.submitted,
        dispatcher_completed: stats.completed,
        dispatcher_failed: stats.failed,
    }
}

/// The published sweep.
pub fn sweep() -> Vec<E4Row> {
    [(2, 50), (4, 50), (8, 50), (8, 100)]
        .into_iter()
        .map(|(n, d)| run(n, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_overlaps_slow_services() {
        let _serial = crate::serial_guard();
        let row = run(4, 40);
        // Sync pays ~4x40ms, async pays ~40ms + overhead. Demand a
        // conservative 2x to stay robust on loaded CI machines.
        assert!(row.speedup > 2.0, "{row:?}");
        assert!(row.sync_total_ms >= 4.0 * 40.0, "{row:?}");
        // Every call went through the one dispatcher: 1 locate + 4 sync
        // + 4 async jobs at minimum, all completed, none panicked.
        assert!(row.dispatcher_submitted >= 9, "{row:?}");
        assert_eq!(
            row.dispatcher_submitted, row.dispatcher_completed,
            "{row:?}"
        );
        assert_eq!(row.dispatcher_failed, 0, "{row:?}");
        assert_eq!(row.dispatcher_workers, 4, "{row:?}");
    }
}
