//! Order statistics: the tail-percentile selection rule, medians, and
//! the quartiles the acceptance check uses.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The 1-based rank of the tail sample to report out of `n` ascending
/// samples when quantile `wanted` (0.99 for `p99_us`) is asked for: the
/// nearest rank of `wanted` when at least [`MIN_TAIL_SAMPLES`] samples lie
/// beyond it, otherwise the highest rank that still has that many beyond
/// it. With too few samples for any tail the median is all that can
/// honestly be said. The quantile actually reported is `rank / n`.
pub fn tail_rank(n: usize, wanted: f64) -> usize {
    if n <= 2 * MIN_TAIL_SAMPLES {
        return n.div_ceil(2).max(1);
    }
    // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    let want = (wanted * n as f64 - 1e-9).ceil() as usize;
    want.clamp(1, n - MIN_TAIL_SAMPLES)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance check's definition of spread. Fewer
/// than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// bounds in `BENCHMARK.json` are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Latency samples of one run, in nanoseconds, with the percentile rule
/// applied on read-out.
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u32>,
    sorted: bool,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample; anything past ~4.29 s saturates, which no
    /// workload here approaches and which still reads as "very slow".
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns.min(u32::MAX as u64) as u32);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.sort();
        quantile_sorted(&self.ns, q) as f64 / 1000.0
    }

    /// The reported tail: `(quantile actually used, value in µs)`.
    pub fn tail_us(&mut self, wanted: f64) -> (f64, f64) {
        self.sort();
        let rank = tail_rank(self.ns.len(), wanted);
        (
            rank as f64 / self.ns.len() as f64,
            self.ns[rank - 1] as f64 / 1000.0,
        )
    }

    pub fn mean_us(&self) -> f64 {
        let sum: u64 = self.ns.iter().map(|&n| n as u64).sum();
        sum as f64 / self.ns.len().max(1) as f64 / 1000.0
    }
}

/// Width of the sub-windows latency percentiles are taken over.
pub const LATENCY_SLICE: Duration = Duration::from_secs(1);

/// Latency samples bucketed by the one-second sub-window they completed
/// in. The reported `p50_us`/`p99_us` are the *median over sub-windows*
/// of each sub-window's percentile: one scheduler hiccup on a shared
/// two-core machine lands in one sub-window and moves its tail by 10×,
/// but it does not move the median of ten tails — whereas it alone can
/// set the p99 of the pooled samples.
#[derive(Default)]
pub struct SlicedLatencies {
    start: Option<Instant>,
    slices: Vec<Latencies>,
}

impl SlicedLatencies {
    /// Sub-windows covering `[start, start + window)`; `expected` samples
    /// in total are pre-allocated so recording never reallocates.
    pub fn new(start: Instant, window: Duration, expected: usize) -> Self {
        let n = window.as_nanos().div_ceil(LATENCY_SLICE.as_nanos()).max(1) as usize;
        SlicedLatencies {
            start: Some(start),
            slices: (0..n)
                .map(|_| Latencies::with_capacity(expected / n + 16))
                .collect(),
        }
    }

    /// Records a sample that completed at `at`. A request in flight when
    /// the window closes completes just past it and counts to the last
    /// sub-window.
    #[inline]
    pub fn record(&mut self, at: Instant, ns: u64) {
        let Some(start) = self.start else { return };
        let i =
            (at.saturating_duration_since(start).as_nanos() / LATENCY_SLICE.as_nanos()) as usize;
        let last = self.slices.len() - 1;
        self.slices[i.min(last)].record(ns);
    }

    /// Folds in another connection's samples of the same window.
    pub fn merge(&mut self, other: &SlicedLatencies) {
        if self.slices.len() < other.slices.len() {
            self.slices
                .resize_with(other.slices.len(), Latencies::default);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.merge(theirs);
        }
    }

    /// Appends another window's sub-windows after this one's.
    pub fn append(&mut self, other: SlicedLatencies) {
        self.slices.extend(other.slices);
    }

    pub fn len(&self) -> usize {
        self.slices.iter().map(Latencies::len).sum()
    }

    /// Every sample in one pool (for means and far tails).
    pub fn pooled(&self) -> Latencies {
        let mut all = Latencies::with_capacity(self.len());
        for s in &self.slices {
            all.merge(s);
        }
        all
    }

    /// Smallest sub-window sample count (the tail rule applies to each).
    pub fn min_slice_len(&self) -> usize {
        self.slices
            .iter()
            .map(Latencies::len)
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0)
    }

    fn median_over_slices(&mut self, mut f: impl FnMut(&mut Latencies) -> f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(&mut f)
            .collect();
        assert!(!per_slice.is_empty(), "no latency samples were recorded");
        median(&per_slice)
    }

    /// Median over sub-windows of the sub-window's `q` quantile, µs.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.median_over_slices(|s| s.quantile_us(q))
    }

    /// Median over sub-windows of the sub-window's supported tail (see
    /// [`tail_rank`]), µs.
    pub fn tail_us(&mut self, wanted: f64) -> f64 {
        self.median_over_slices(|s| s.tail_us(wanted).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1 000 samples: exactly 10 lie beyond p99, so p99 stands.
        assert_eq!(tail_rank(1_000, 0.99), 990);
        assert_eq!(tail_rank(100_000, 0.99), 99_000);
        // 500 samples: only 5 beyond p99; the highest supported is p98.
        assert_eq!(tail_rank(500, 0.99), 490);
        // 999 samples: nearest-rank p99 is 990, which leaves only 9.
        assert_eq!(tail_rank(999, 0.99), 989);
        // p999 needs 10 000.
        assert_eq!(tail_rank(10_000, 0.999), 9_990);
        assert_eq!(tail_rank(9_999, 0.999), 9_989);
        // Too few for any tail: the median.
        assert_eq!(tail_rank(20, 0.99), 10);
        assert_eq!(tail_rank(1, 0.99), 1);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_above_the_reported_value() {
        for n in [21usize, 57, 500, 999, 1_000, 4_321] {
            let sorted: Vec<u32> = (0..n as u32).collect();
            let v = sorted[tail_rank(n, 0.99) - 1];
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_TAIL_SAMPLES, "n={n} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latencies_apply_the_tail_rule() {
        let mut l = Latencies::with_capacity(500);
        for i in 1..=500u64 {
            l.record(i * 1000);
        }
        assert_eq!(l.quantile_us(0.5), 250.0);
        let (q, v) = l.tail_us(0.99);
        assert!((q - 0.98).abs() < 1e-12);
        assert_eq!(v, 490.0);
        assert_eq!(l.mean_us(), 250.5);
    }

    #[test]
    fn sliced_latencies_take_the_median_of_sub_window_tails() {
        let start = Instant::now();
        let mut l = SlicedLatencies::new(start, Duration::from_millis(4_500), 5_000);
        // Five sub-windows of 1 000 samples at 100 µs; sub-window 2 also
        // holds a stall: 60 samples at 40 ms.
        for slice in 0..5u64 {
            let at = start + Duration::from_millis(slice * 1_000 + 10);
            for _ in 0..1_000 {
                l.record(at, 100_000);
            }
            if slice == 2 {
                for _ in 0..60 {
                    l.record(at, 40_000_000);
                }
            }
        }
        assert_eq!(l.len(), 5_060);
        assert_eq!(l.min_slice_len(), 1_000);
        // The pooled p99 is set by the one stall; the reported one is not.
        assert_eq!(l.pooled().tail_us(0.99).1, 40_000.0);
        assert_eq!(l.tail_us(0.99), 100.0);
        assert_eq!(l.quantile_us(0.5), 100.0);
        // Samples completing past the window's end count to the last
        // sub-window; samples before its start to the first.
        let mut edge =
            SlicedLatencies::new(start + Duration::from_secs(1), Duration::from_secs(2), 4);
        edge.record(start, 1_000);
        edge.record(start + Duration::from_secs(60), 3_000);
        assert_eq!((edge.slices[0].len(), edge.slices[1].len()), (1, 1));
    }

    #[test]
    fn sliced_latencies_merge_by_sub_window_and_append_windows() {
        let start = Instant::now();
        let mk = |ns: u64| {
            let mut l = SlicedLatencies::new(start, Duration::from_secs(2), 8);
            l.record(start, ns);
            l.record(start + Duration::from_millis(1_500), ns * 2);
            l
        };
        let mut a = mk(1_000);
        a.merge(&mk(5_000));
        assert_eq!((a.slices[0].len(), a.slices[1].len()), (2, 2));
        a.append(mk(9_000));
        assert_eq!(a.slices.len(), 4);
        assert_eq!(a.len(), 6);
        // A default (never started) recorder ignores samples.
        let mut idle = SlicedLatencies::default();
        idle.record(start, 1);
        assert_eq!(idle.len(), 0);
    }
}
