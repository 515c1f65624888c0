//! Experiment metrics: named counters and sample sets with percentile
//! summaries.

use std::collections::BTreeMap;

/// Counters and samples accumulated during a simulation run.
///
/// Keys are `&'static str` so hot-path recording never allocates.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn incr(&mut self, key: &'static str, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    pub fn record(&mut self, key: &'static str, value: u64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn samples(&self, key: &str) -> &[u64] {
        self.samples.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Summary statistics of a sample set, or `None` if empty.
    pub fn summary(&self, key: &str) -> Option<Summary> {
        Summary::of(self.samples(key))
    }

    /// Merge another metrics set into this one (used when aggregating
    /// over seeds).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.samples {
            self.samples.entry(k).or_default().extend_from_slice(v);
        }
    }
}

/// Order statistics over one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl Summary {
    /// Compute from raw samples. Sorts a copy; intended for end-of-run
    /// reporting, not hot paths.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: sum as f64 / count as f64,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
        })
    }
}

/// Nearest-rank percentile (`p` in 0–100) of a pre-sorted slice; the
/// default value (zero for numbers) when the slice is empty. The one
/// percentile rule of the simulator and the bench harness.
pub fn percentile<T: Copy + PartialOrd + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("sent", 2);
        m.incr("sent", 3);
        assert_eq!(m.counter("sent"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn summary_statistics() {
        let mut m = Metrics::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            m.record("lat", v);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 100);
        assert!((s.mean - 55.0).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Metrics::new().summary("none").is_none());
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.incr("x", 1);
        a.record("s", 5);
        let mut b = Metrics::new();
        b.incr("x", 2);
        b.record("s", 7);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.samples("s"), &[5, 7]);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut populated = Metrics::new();
        populated.incr("x", 3);
        populated.record("s", 5);
        let before_counters: Vec<_> = populated.counters().collect();
        let before_samples = populated.samples("s").to_vec();

        // Empty into populated: nothing changes.
        populated.merge(&Metrics::new());
        assert_eq!(populated.counters().collect::<Vec<_>>(), before_counters);
        assert_eq!(populated.samples("s"), before_samples.as_slice());

        // Populated into empty: everything copies.
        let mut empty = Metrics::new();
        empty.merge(&populated);
        assert_eq!(empty.counter("x"), 3);
        assert_eq!(empty.samples("s"), &[5]);
        assert!(empty.summary("missing").is_none(), "still no phantom keys");
    }

    #[test]
    fn merge_of_two_empties_stays_empty() {
        let mut a = Metrics::new();
        a.merge(&Metrics::new());
        assert_eq!(a.counters().count(), 0);
        assert!(a.samples("anything").is_empty());
        assert!(a.summary("anything").is_none());
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let mut m = Metrics::new();
        m.record("one", 42);
        let s = m.summary("one").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (42, 42));
        assert_eq!((s.p50, s.p90, s.p99), (42, 42, 42));
        assert!((s.mean - 42.0).abs() < 1e-9);
    }

    #[test]
    fn cross_seed_merge_order_does_not_change_summary() {
        // Aggregating per-seed runs must be order-insensitive: the
        // summary sorts, so A.merge(B) and B.merge(A) agree even though
        // the underlying sample vectors differ in order.
        let mut seed_a = Metrics::new();
        for v in [100, 7, 93, 2, 55] {
            seed_a.record("lat", v);
        }
        let mut seed_b = Metrics::new();
        for v in [60, 1, 88, 42] {
            seed_b.record("lat", v);
        }
        let mut ab = seed_a.clone();
        ab.merge(&seed_b);
        let mut ba = seed_b.clone();
        ba.merge(&seed_a);
        assert_ne!(ab.samples("lat"), ba.samples("lat"), "orders differ");
        assert_eq!(ab.summary("lat"), ba.summary("lat"), "summaries agree");
        assert_eq!(ab.summary("lat").unwrap().count, 9);
    }

    #[test]
    fn counters_iterated_in_key_order() {
        let mut m = Metrics::new();
        m.incr("b", 1);
        m.incr("a", 1);
        let keys: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
