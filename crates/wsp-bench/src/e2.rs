//! E2 — P2P discovery scales (claim C5, P2P side).
//!
//! One leaf publishes; seekers scattered across a rendezvous overlay
//! query at staggered times. We sweep network size and report success
//! rate, discovery latency and per-node message load: latency should
//! grow slowly (the rendezvous mesh keeps hop counts low) and per-node
//! load should stay flat — the scalability property the paper credits
//! P2P systems with.

use crate::common::{mean, percentile_f64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{LinkSpec, SimNet, Time, Topology};

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct E2Row {
    pub peers: usize,
    pub groups: usize,
    pub queries: usize,
    pub success_rate: f64,
    pub mean_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub msgs_per_peer: f64,
}

/// Run one network size.
pub fn run(groups: usize, group_size: usize, queries: usize, seed: u64) -> E2Row {
    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::wan());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let (topology, rendezvous) = Topology::rendezvous_groups(groups, group_size, 4, &mut rng);
    let peers = topology.node_count();
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

    // Publisher: first leaf of group 0.
    let publisher = &handles[1];
    let advert = ServiceAdvertisement::new("Echo", publisher.peer()).with_pipe("in");
    publisher.enqueue_at(&mut net, Time::ZERO, PeerCommand::Publish(advert));

    // Seekers: random leaves (never the publisher), staggered queries.
    let mut seekers = Vec::new();
    for q in 0..queries {
        let slot = loop {
            let g = rng.random_range(0..groups);
            let m = rng.random_range(1..group_size);
            let slot = g * group_size + m;
            if slot != 1 {
                break slot;
            }
        };
        let at = Time::secs(2) + wsp_simnet::Dur::millis(200 * q as u64);
        handles[slot].enqueue_at(
            &mut net,
            at,
            PeerCommand::Query {
                token: q as u64,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
        seekers.push((slot, q as u64, at));
    }
    net.run_until(Time::secs(60));

    let mut latencies = Vec::new();
    let mut successes = 0usize;
    for (slot, token, at) in &seekers {
        let first_hit = handles[*slot].events().iter().find_map(|(t, e)| match e {
            PeerEvent::QueryResult { token: tk, adverts } if tk == token && !adverts.is_empty() => {
                Some(*t)
            }
            _ => None,
        });
        if let Some(t) = first_hit {
            successes += 1;
            latencies.push((t - *at).as_micros() as f64 / 1000.0);
        }
    }
    E2Row {
        peers,
        groups,
        queries,
        success_rate: successes as f64 / queries as f64,
        mean_latency_ms: mean(&latencies),
        p99_latency_ms: percentile_f64(&latencies, 99.0),
        msgs_per_peer: net.metrics().counter("simnet.sent") as f64 / peers as f64,
    }
}

/// The published sweep: 50 → 2000 peers.
pub fn sweep(seed: u64) -> Vec<E2Row> {
    [(5, 10), (10, 10), (20, 10), (50, 10), (100, 10), (200, 10)]
        .into_iter()
        .map(|(groups, size)| run(groups, size, 20, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_reliable_at_small_and_medium_scale() {
        let _serial = crate::serial_guard();
        for (groups, size) in [(4, 8), (16, 8)] {
            let row = run(groups, size, 10, 3);
            assert!(row.success_rate >= 0.9, "{row:?}");
        }
    }

    #[test]
    fn per_peer_load_stays_flat_as_network_grows() {
        let _serial = crate::serial_guard();
        let small = run(5, 10, 10, 3);
        let large = run(40, 10, 10, 3);
        // 8x the peers must not mean 8x the per-peer load; allow 3x.
        assert!(
            large.msgs_per_peer < small.msgs_per_peer * 3.0,
            "small {small:?} vs large {large:?}"
        );
    }

    #[test]
    fn latency_grows_sublinearly() {
        let _serial = crate::serial_guard();
        let small = run(5, 10, 10, 3);
        let large = run(40, 10, 10, 3);
        assert!(
            large.mean_latency_ms < small.mean_latency_ms * 4.0,
            "{small:?} vs {large:?}"
        );
    }
}
