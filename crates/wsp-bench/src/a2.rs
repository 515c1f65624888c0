//! A2 (ablation) — soft-state refresh under churn.
//!
//! P2PS adverts are soft state: rendezvous caches expire them, and
//! publishers re-broadcast periodically. This ablation fixes the churn
//! level (80 % rendezvous availability) and sweeps the refresh
//! interval, showing that refresh — not luck — is what E3's P2P
//! resilience comes from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{ChurnModel, Dur, LinkSpec, SimNet, Time, Topology};

/// One ablation cell.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// `None` = publish once, never refresh.
    pub refresh_secs: Option<u64>,
    pub success_rate: f64,
}

/// Run one refresh setting at 80 % rendezvous availability.
pub fn run(refresh_secs: Option<u64>, seed: u64) -> A2Row {
    let groups = 8usize;
    let group_size = 6usize;
    let queries = 30usize;

    let mut net: SimNet<String> = SimNet::new(seed);
    net.set_default_link(LinkSpec::lan());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA2);
    let (topology, rendezvous) = Topology::rendezvous_groups(groups, group_size, 3, &mut rng);
    let refresh = refresh_secs.map(Dur::secs);
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, refresh);

    let publisher = &handles[1];
    let advert = ServiceAdvertisement::new("Echo", publisher.peer()).with_pipe("in");
    publisher.enqueue_at(&mut net, Time::ZERO, PeerCommand::Publish(advert));

    // 80% availability: mean 24s up / 6s down.
    ChurnModel::new(Dur::secs(24), Dur::secs(6)).apply(
        &mut net,
        &rendezvous,
        Time::secs(300),
        seed ^ 0xA3,
    );

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
        let at = Time::millis(rng.random_range(30_000..290_000));
        asked.push((slot, q as u64, at));
    }
    asked.sort_by_key(|(_, _, at)| *at);
    for (slot, token, at) in &asked {
        handles[*slot].enqueue_at(
            &mut net,
            *at,
            PeerCommand::Query {
                token: *token,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
    }
    net.run_until(Time::secs(310));

    let mut ok = 0usize;
    for (slot, token, at) in &asked {
        let hit = handles[*slot].events().iter().any(|(t, e)| {
            matches!(e, PeerEvent::QueryResult { token: tk, adverts }
                if tk == token && !adverts.is_empty() && t.since(*at) <= Dur::secs(5))
        });
        if hit {
            ok += 1;
        }
    }
    A2Row {
        refresh_secs,
        success_rate: ok as f64 / queries as f64,
    }
}

/// The published sweep.
pub fn sweep(seed: u64) -> Vec<A2Row> {
    [None, Some(60), Some(30), Some(10), Some(5)]
        .into_iter()
        .map(|r| run(r, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_beats_publish_once_under_churn() {
        let _serial = crate::serial_guard();
        // Without refresh the advert ages out of every cache within its
        // 60s TTL and late queries all fail; aggressive refresh keeps
        // the mesh warm.
        let never = run(None, 5);
        let fast = run(Some(5), 5);
        assert!(
            fast.success_rate > never.success_rate + 0.3,
            "never {never:?} vs fast {fast:?}"
        );
    }
}
