//! Order statistics and ratios for the benchmark's reports.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the highest percentile that has
//! that many is reported instead, under its own label.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, with the
/// number of samples strictly beyond its rank. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Nearest rank: the smallest 1-based rank r with r ≥ p/100 · n (the
    // epsilon keeps 0.999 · 10,000 from rounding up to 9,991).
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// Median of unsorted `values` (mean of the middle pair for even
/// counts); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency summary: median, p90, and the highest tail percentile up to
/// p99 that has [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 90th percentile (0 when empty).
    pub p90: f64,
    /// The tail percentile reported (e.g. 99.0), `None` when even p75
    /// has too few samples beyond it.
    pub tail_p: Option<f64>,
    /// Its value (the maximum when `tail_p` is `None`).
    pub tail: f64,
}

impl Summary {
    /// Summarises unsorted `samples`.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = median(&v);
        let tail_pick = TAILS.iter().find_map(|&p| {
            percentile(&v, p).and_then(|(x, beyond)| (beyond >= MIN_BEYOND).then_some((p, x)))
        });
        let (tail_p, tail) = match tail_pick {
            Some((p, x)) => (Some(p), x),
            None => (None, v.last().copied().unwrap_or(0.0)),
        };
        Summary {
            n: v.len(),
            p50,
            p90: percentile(&v, 90.0).map_or(0.0, |(x, _)| x),
            tail_p,
            tail,
        }
    }

    /// `"p99"`, `"p95"`, … or `"max"` for the reported tail.
    #[must_use]
    pub fn tail_label(&self) -> String {
        match self.tail_p {
            Some(p) => format!("p{p}"),
            None => "max".to_string(),
        }
    }
}

/// A ratio that keeps its base, so a report can say "0.93 of 4,812".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: u64,
    /// Denominator (the base).
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or 0 for an empty base.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1,000 samples: rank 990, ten beyond → p99 is reported.
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        // 999 samples: rank 990, nine beyond → falls back to p95.
        let s = Summary::of(&ramp(999));
        assert_eq!(s.tail_p, Some(95.0));
        assert_eq!(s.tail_label(), "p95");
    }

    #[test]
    fn the_tail_stops_at_p99_and_p90_is_exact() {
        let s = Summary::of(&ramp(10_000));
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(s.tail, 9900.0);
        assert_eq!(s.p90, 9000.0);
        // The epsilon keeps 0.999 · 10,000 at rank 9,990 exactly.
        assert_eq!(percentile(&ramp(10_000), 99.9), Some((9990.0, 10)));
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.tail_p, None);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.tail_label(), "max");
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn percentile_counts_beyond_its_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&v, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio { part: 3, base: 4 };
        assert_eq!(r.value(), 0.75);
        assert_eq!(Ratio { part: 0, base: 0 }.value(), 0.0);
        assert_eq!(Ratio { part: 5, base: 5 }.value(), 1.0);
    }
}
