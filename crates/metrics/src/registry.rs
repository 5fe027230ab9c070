//! Lock-free metrics registry with Prometheus text exposition.
//!
//! The live server instruments its hot paths through this module: a
//! [`Registry`] hands out cheap `Arc` handles — [`Counter`], [`Gauge`],
//! [`IntGauge`], [`AtomicHistogram`] — that record with plain atomic
//! operations and never take a lock. The registry's own mutex guards only
//! series *registration* (get-or-create by name + label set) and rendering;
//! neither happens on a hot path. Rendering emits Prometheus text
//! format 0.0.4, with histograms exposed as cumulative `_bucket{le=…}`
//! series over the same log-linear layout as [`crate::Histogram`]
//! (≤ 1.6 % relative quantization error), `_sum`, and `_count`.
//!
//! Histogram samples are recorded in nanoseconds and rendered in
//! seconds, matching the Prometheus base-unit convention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, BUCKET_COUNT};

/// A monotonically increasing counter.
///
/// [`Counter::set`] exists for *sampled* counters — series whose
/// authoritative (still monotonic) value lives elsewhere and is copied
/// in at scrape time.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (scrape-time mirror of an external
    /// monotonic count).
    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic word).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An integer gauge that moves both ways: [`IntGauge::inc`] /
/// [`IntGauge::dec`] for live population counts (connected or parked
/// clients), [`IntGauge::set`] for mirrored levels (keys, bytes), and
/// [`IntGauge::set_max`] for high-water marks. Unlike [`Gauge`] every
/// update is a single atomic read-modify-write, so concurrent owners
/// never lose an increment. Like every series here it is a statistic
/// that publishes no other data, hence `Relaxed`. Renders as a
/// Prometheus `gauge`.
#[derive(Debug, Default)]
pub struct IntGauge {
    v: AtomicU64,
}

impl IntGauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        IntGauge::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (pair with an earlier [`IntGauge::inc`]).
    #[inline]
    pub fn dec(&self) {
        self.v.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raises the value to `n` if it is below it.
    #[inline]
    pub fn set_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram: the atomic twin of
/// [`crate::Histogram`], sharing its bucket layout so both report the
/// same quantization. Writers from any thread record concurrently with
/// three relaxed atomic adds; readers (the scrape path) see a view
/// that is per-bucket consistent, which is all Prometheus needs.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of recorded values. `u64` of nanoseconds overflows after
    /// ~585 years of accumulated latency — not a live-server concern.
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Histogram::index_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot into a plain [`Histogram`] (percentile queries).
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                h.record_n(Histogram::value_of(idx), n);
            }
        }
        h
    }
}

/// The value side of one registered series.
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>, Option<usize>),
    IntGauge(Arc<IntGauge>),
    Histogram(Arc<AtomicHistogram>),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(..) | Series::IntGauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// One registered series: a metric name, a label set, and its value.
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: &'static str,
    series: Series,
}

/// A registry of named series. Registration is get-or-create keyed on
/// `(name, labels)`: asking twice for the same series returns the same
/// handle, so samplers can resolve by name at scrape time without
/// bookkeeping.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        matches: F,
        create: G,
    ) -> Arc<T>
    where
        F: Fn(&Series) -> Option<Arc<T>>,
        G: FnOnce() -> (Arc<T>, Series),
    {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for e in entries.iter() {
            if e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            {
                if let Some(h) = matches(&e.series) {
                    return h;
                }
                panic!(
                    "metric '{name}' re-registered as a different kind (was {})",
                    e.series.kind()
                );
            }
        }
        let (handle, series) = create();
        entries.push(Entry {
            name: name.to_string(),
            labels: owned_labels(labels),
            help,
            series,
        });
        handle
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            help,
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Series::Counter(c))
            },
        )
    }

    /// Gets or creates a gauge (rendered with shortest-float formatting).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Arc<Gauge> {
        self.gauge_inner(name, labels, help, None)
    }

    /// Gets or creates a gauge rendered with a fixed number of decimal
    /// places (e.g. `decimals = 2` renders 1.0 as `1.00` — the WAF
    /// gauge's contract with CI greps).
    pub fn gauge_with_decimals(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        decimals: usize,
    ) -> Arc<Gauge> {
        self.gauge_inner(name, labels, help, Some(decimals))
    }

    fn gauge_inner(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        decimals: Option<usize>,
    ) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            help,
            |s| match s {
                Series::Gauge(g, _) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Series::Gauge(g, decimals))
            },
        )
    }

    /// Gets or creates an integer gauge.
    pub fn int_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Arc<IntGauge> {
        self.get_or_insert(
            name,
            labels,
            help,
            |s| match s {
                Series::IntGauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(IntGauge::new());
                (Arc::clone(&g), Series::IntGauge(g))
            },
        )
    }

    /// Gets or creates a histogram.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Arc<AtomicHistogram> {
        self.get_or_insert(
            name,
            labels,
            help,
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(AtomicHistogram::new());
                (Arc::clone(&h), Series::Histogram(h))
            },
        )
    }

    /// Renders every series in Prometheus text exposition format 0.0.4.
    /// Series are grouped by metric name (one `# HELP`/`# TYPE` pair per
    /// name) and sorted by name then label set, so output is stable
    /// across scrapes.
    pub fn render_prometheus(&self) -> String {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[a]
                .name
                .cmp(&entries[b].name)
                .then_with(|| entries[a].labels.cmp(&entries[b].labels))
        });
        let mut out = String::with_capacity(4096);
        let mut last_name = "";
        for &i in &order {
            let e = &entries[i];
            if e.name != last_name {
                if !e.help.is_empty() {
                    out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
                }
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.series.kind()));
                last_name = &e.name;
            }
            match &e.series {
                Series::Counter(c) => render_int(e, c.get(), &mut out),
                Series::IntGauge(g) => render_int(e, g.get(), &mut out),
                Series::Gauge(g, decimals) => {
                    out.push_str(&e.name);
                    render_labels(&e.labels, &[], &mut out);
                    match decimals {
                        Some(d) => out.push_str(&format!(" {:.d$}\n", g.get(), d = d)),
                        None => out.push_str(&format!(" {}\n", fmt_f64(g.get()))),
                    }
                }
                Series::Histogram(h) => render_histogram(e, h, &mut out),
            }
        }
        out
    }
}

fn render_int(e: &Entry, v: u64, out: &mut String) {
    out.push_str(&e.name);
    render_labels(&e.labels, &[], out);
    out.push_str(&format!(" {v}\n"));
}

/// `{k="v",…}` (with any extra pairs appended), or nothing when empty.
fn render_labels(labels: &[(String, String)], extra: &[(&str, String)], out: &mut String) {
    if labels.is_empty() && extra.is_empty() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in extra {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Shortest-float with integer collapsing: whole numbers render without
/// a fractional part (Prometheus parses either form).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Cumulative `_bucket{le=…}` lines over the non-empty buckets (a valid
/// sparse exposition — `le` edges stay sorted and counts cumulative),
/// then `+Inf`, `_sum`, and `_count`. Nanosecond samples render as
/// seconds.
fn render_histogram(e: &Entry, h: &AtomicHistogram, out: &mut String) {
    let mut cumulative = 0u64;
    for (idx, b) in h.buckets.iter().enumerate() {
        let n = b.load(Ordering::Relaxed);
        if n == 0 {
            continue;
        }
        cumulative += n;
        let le = Histogram::value_of(idx) as f64 / 1e9;
        out.push_str(&format!("{}_bucket", e.name));
        render_labels(&e.labels, &[("le", format!("{le}"))], out);
        out.push_str(&format!(" {cumulative}\n"));
    }
    out.push_str(&format!("{}_bucket", e.name));
    render_labels(&e.labels, &[("le", "+Inf".to_string())], out);
    out.push_str(&format!(" {}\n", h.count()));
    out.push_str(&format!("{}_sum", e.name));
    render_labels(&e.labels, &[], out);
    out.push_str(&format!(" {}\n", fmt_f64(h.sum() as f64 / 1e9)));
    out.push_str(&format!("{}_count", e.name));
    render_labels(&e.labels, &[], out);
    out.push_str(&format!(" {}\n", h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("slimio_ops_total", &[], "ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("slimio_depth", &[("shard", "0")], "depth");
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE slimio_ops_total counter"));
        assert!(text.contains("slimio_ops_total 5"));
        assert!(text.contains("slimio_depth{shard=\"0\"} 3.5"));
    }

    #[test]
    fn int_gauge_moves_both_ways_and_renders_as_gauge() {
        let r = Registry::new();
        let g = r.int_gauge("slimio_connections", &[], "clients");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7, "set_max only ever raises");
        g.set(2);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE slimio_connections gauge"), "{text}");
        assert!(text.contains("slimio_connections 2\n"), "{text}");
    }

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("shard", "1")], "");
        let b = r.counter("x_total", &[("shard", "1")], "");
        a.inc();
        assert_eq!(b.get(), 1);
        // Different label set is a different series.
        let c = r.counter("x_total", &[("shard", "2")], "");
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn fixed_decimal_gauge_renders_trailing_zeros() {
        let r = Registry::new();
        let g = r.gauge_with_decimals("slimio_device_waf", &[], "waf", 2);
        g.set(1.0);
        let text = r.render_prometheus();
        assert!(text.contains("slimio_device_waf 1.00\n"), "{text}");
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [1u64, 64, 1000, 123_456, 9_999_999] {
            ah.record(v);
            h.record(v);
        }
        assert_eq!(ah.count(), h.count());
        let snap = ah.snapshot();
        for p in [50.0, 99.0] {
            // Snapshot stores bucket representatives; both sides
            // quantize identically, so percentiles agree exactly.
            assert_eq!(snap.percentile(p), {
                let mut q = Histogram::new();
                for v in [1u64, 64, 1000, 123_456, 9_999_999] {
                    q.record_n(Histogram::value_of(Histogram::index_of(v)), 1);
                }
                q.percentile(p)
            });
        }
    }

    #[test]
    fn histogram_rendering_is_cumulative_and_in_seconds() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", &[("stage", "sync")], "latency");
        h.record(1_000_000_000); // 1s
        h.record(1_000_000_000);
        h.record(2_000_000_000); // 2s
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        // +Inf bucket carries the total count.
        assert!(text.contains("lat_seconds_bucket{stage=\"sync\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count{stage=\"sync\"} 3"));
        // Sum is in seconds: 1 + 1 + 2 = 4 (quantized upward ≤ 1.6 %).
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("lat_seconds_sum"))
            .unwrap();
        let v: f64 = sum_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((4.0..4.2).contains(&v), "{v}");
        // Bucket counts are cumulative in le order.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket") && !l.contains("+Inf"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(Registry::new());
        let h = r.histogram("h", &[], "");
        let c = r.counter("c", &[], "");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (h, c) = (Arc::clone(&h), Arc::clone(&c));
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(c.get(), 40_000);
    }
}
