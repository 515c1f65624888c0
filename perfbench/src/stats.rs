//! Sample statistics: percentiles under the ten-samples-beyond rule,
//! medians, and the interval arithmetic behind span self time.

/// Percentiles the benchmark may report, lowest first.
pub const REPORTED_PERCENTILES: [f64; 2] = [50.0, 99.0];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Samples strictly above the nearest-rank position of `p`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(p, n)
}

/// A percentile may be reported only when at least ten samples lie
/// beyond it; below that one outlier decides the figure.
pub fn percentile_supported(p: f64, n: usize) -> bool {
    samples_beyond(p, n) >= 10
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len())])
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond durations, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1_000.0).collect();
    median(&v)
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children are clipped to the parent first).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    (pe - ps).saturating_sub(union_len(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th: ten samples lie beyond it.
        assert_eq!(samples_beyond(99.0, 1000), 10);
        assert!(percentile_supported(99.0, 1000));
        assert!(!percentile_supported(99.0, 999));
        assert!(!percentile_supported(99.0, 100));
        assert!(percentile_supported(50.0, 20));
        assert!(!percentile_supported(50.0, 19));
        assert!(!percentile_supported(50.0, 0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_us(&[1_500, 2_500, 500]), 1.5);
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        // Parent 0..100 with children 10..30 and 50..60: self = 70.
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // A child reaching past the parent is clipped to it.
        assert_eq!(self_time((0, 100), &[(90, 130)]), 90);
        // A child wholly outside covers nothing.
        assert_eq!(self_time((0, 100), &[(200, 300)]), 100);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((5, 10), &[(0, 20)]), 0);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(0, 50), (10, 20)]), 50);
        assert_eq!(union_len(&[(30, 40), (0, 10)]), 20);
        assert_eq!(union_len(&[(5, 5)]), 0);
    }
}
