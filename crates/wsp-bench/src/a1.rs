//! A1 (ablation) — the discovery design knobs: rendezvous mesh degree
//! and query TTL.
//!
//! The paper's P2PS binding floods queries across rendezvous peers with
//! a hop budget. This ablation quantifies the trade-off those two knobs
//! control: fan-out buys success and latency at the price of message
//! load; an under-provisioned TTL partitions discovery.

use crate::common::mean;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{Dur, LinkSpec, SimNet, Time, Topology};

/// One ablation cell.
#[derive(Debug, Clone)]
pub struct A1Row {
    pub rv_degree: usize,
    pub query_ttl: u8,
    pub success_rate: f64,
    pub mean_latency_ms: f64,
    pub msgs_per_peer: f64,
}

/// Run one (degree, ttl) cell on a fixed 30-group overlay.
pub fn run(rv_degree: usize, query_ttl: u8, seed: u64) -> A1Row {
    let groups = 30usize;
    let group_size = 8usize;
    let queries = 20usize;

    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::wan());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1);
    let (topology, rendezvous) =
        Topology::rendezvous_groups(groups, group_size, rv_degree, &mut rng);
    let peers = topology.node_count();
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

    let publisher = &handles[1];
    let advert = ServiceAdvertisement::new("Echo", publisher.peer()).with_pipe("in");
    publisher.enqueue_at(&mut net, Time::ZERO, PeerCommand::Publish(advert));

    let mut asked = Vec::new();
    for q in 0..queries {
        let slot = loop {
            let g = rng.random_range(0..groups);
            let m = rng.random_range(1..group_size);
            let slot = g * group_size + m;
            if slot != 1 {
                break slot;
            }
        };
        let at = Time::secs(2) + Dur::millis(200 * q as u64);
        handles[slot].enqueue_at(
            &mut net,
            at,
            PeerCommand::Query {
                token: q as u64,
                query: P2psQuery::by_name("Echo"),
                ttl: Some(query_ttl),
            },
        );
        asked.push((slot, q as u64, at));
    }
    net.run_until(Time::secs(60));

    let mut latencies = Vec::new();
    let mut ok = 0usize;
    for (slot, token, at) in &asked {
        let hit = handles[*slot].events().iter().find_map(|(t, e)| match e {
            PeerEvent::QueryResult { token: tk, adverts } if tk == token && !adverts.is_empty() => {
                Some(*t)
            }
            _ => None,
        });
        if let Some(t) = hit {
            ok += 1;
            latencies.push((t - *at).as_micros() as f64 / 1000.0);
        }
    }
    A1Row {
        rv_degree,
        query_ttl,
        success_rate: ok as f64 / queries as f64,
        mean_latency_ms: mean(&latencies),
        msgs_per_peer: net.metrics().counter("simnet.sent") as f64 / peers as f64,
    }
}

/// The published grid.
pub fn sweep(seed: u64) -> Vec<A1Row> {
    let mut rows = Vec::new();
    for rv_degree in [1usize, 2, 4, 8] {
        for ttl in [2u8, 4, 7] {
            rows.push(run(rv_degree, ttl, seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starved_ttl_fails_where_generous_ttl_succeeds() {
        let _serial = crate::serial_guard();
        // Degree 1 = ring of 30 rendezvous: diameter 15. TTL 2 cannot
        // reach most of it; TTL 16+ would. We compare 2 vs 7.
        let starved = run(1, 2, 9);
        let generous = run(8, 7, 9);
        assert!(
            starved.success_rate < generous.success_rate,
            "starved {starved:?} vs generous {generous:?}"
        );
        assert!(generous.success_rate >= 0.9, "{generous:?}");
    }

    #[test]
    fn single_cell_produces_sane_numbers() {
        let _serial = crate::serial_guard();
        let row = run(4, 7, 9);
        assert!(row.mean_latency_ms >= 0.0);
        assert!(row.msgs_per_peer > 0.0);
    }
}
