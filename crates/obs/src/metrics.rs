//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! around atomics, so hot loops cache a handle once and update it with a
//! single relaxed atomic op — no name lookup, no lock. The [`Registry`]
//! owns the name → metric map (a `BTreeMap`, so every rendering is in
//! deterministic sorted order) and renders the whole set in Prometheus
//! text exposition format.
//!
//! Gauges store `f64` bits in an `AtomicU64`; counters are plain `u64`.
//! Histograms use fixed bucket upper bounds chosen at creation, matching
//! Prometheus cumulative-bucket semantics (`+Inf` is implicit via
//! `_count`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (bits stored in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared histogram state: cumulative-style fixed buckets plus sum/count.
#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive), strictly increasing. Values above the
    /// last bound land only in the implicit `+Inf` bucket (`count`).
    bounds: Vec<u64>,
    /// Per-bucket observation counts (NOT cumulative; cumulated at render).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        let buckets = (0..bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        if let Some(idx) = inner.bounds.iter().position(|&b| value <= b) {
            inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }
}

/// Default span-duration bucket bounds in nanoseconds: 1 µs … 10 s in
/// half-decade steps. Wide enough for a full detection campaign, fine
/// enough to distinguish a fast MVM from a slow sweep.
pub const DURATION_BOUNDS_NS: [u64; 15] = [
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
    300_000_000,
    1_000_000_000,
    3_000_000_000,
    10_000_000_000,
];

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: every labeled series registered under one name.
/// The series key is the rendered label block (`""` for the unlabeled
/// series, else `{k="v",…}` with keys sorted), so the `BTreeMap` keeps
/// series in deterministic render order with the unlabeled series first.
#[derive(Debug, Default)]
struct Family {
    series: BTreeMap<String, Metric>,
}

impl Family {
    /// Whether a new series of `kind` may join this family (all series
    /// under one name must share a kind).
    fn accepts(&self, kind: &str) -> bool {
        self.series
            .values()
            .next()
            .is_none_or(|m| m.kind_str() == kind)
    }
}

/// Renders a label set as a deterministic Prometheus label block:
/// `{k="v",k2="v2"}` with keys sorted, `""` when empty. Label *names*
/// are expected to follow the registry grammar (enforced at call sites
/// by the O1 lint); label *values* are escaped per the exposition
/// format (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted = labels.to_vec();
    sorted.sort();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// A name-keyed registry of metric families with deterministic (sorted)
/// rendering.
///
/// `counter()` / `gauge()` / `histogram()` are get-or-create: the first
/// call under a name defines the family's kind, later calls return
/// handles to the same storage. The `*_labeled` variants address one
/// labeled series inside a family (e.g. a per-tenant counter); the
/// unlabeled constructors are the `labels = []` special case, and a
/// registry that never uses labels renders byte-identically to one that
/// predates them. Mixing kinds under one name is a programming error and
/// returns a *fresh, unregistered* handle so callers never panic — the
/// mismatch shows up as missing data rather than a crash.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        // Poisoning only propagates a panic that already happened
        // elsewhere; the map itself is always structurally valid.
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gets or creates the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Gets or creates the counter series registered under `name` with
    /// the given labels (order-insensitive; keys are sorted).
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = label_key(labels);
        let mut map = self.lock();
        let family = map.entry(name.to_string()).or_default();
        if !family.accepts("counter") {
            return Counter::default();
        }
        match family
            .series
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Gets or creates the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, &[])
    }

    /// Gets or creates the gauge series registered under `name` with the
    /// given labels (order-insensitive; keys are sorted).
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = label_key(labels);
        let mut map = self.lock();
        let family = map.entry(name.to_string()).or_default();
        if !family.accepts("gauge") {
            return Gauge::default();
        }
        match family
            .series
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Gets or creates the histogram registered under `name` with the
    /// default duration bounds ([`DURATION_BOUNDS_NS`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, &DURATION_BOUNDS_NS)
    }

    /// Gets or creates the histogram registered under `name`. The bounds
    /// apply only on first creation. Histograms are always unlabeled
    /// (their `le` label is reserved by the exposition format).
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.lock();
        let family = map.entry(name.to_string()).or_default();
        if !family.accepts("histogram") {
            return Histogram::with_bounds(bounds);
        }
        match family
            .series
            .entry(String::new())
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::with_bounds(bounds),
        }
    }

    /// Value of a registered (unlabeled) counter, if any.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counter_value_labeled(name, &[])
    }

    /// Value of a registered labeled counter series, if any.
    pub fn counter_value_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.lock().get(name)?.series.get(&label_key(labels)) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Value of a registered (unlabeled) gauge, if any.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauge_value_labeled(name, &[])
    }

    /// Value of a registered labeled gauge series, if any.
    pub fn gauge_value_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.lock().get(name)?.series.get(&label_key(labels)) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Handle to a registered histogram, if any.
    pub fn histogram_handle(&self, name: &str) -> Option<Histogram> {
        match self.lock().get(name)?.series.get("") {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Renders every metric in Prometheus text exposition format, sorted
    /// by family name with one `# TYPE` line per family; labeled series
    /// render in sorted label order after the unlabeled series.
    /// Histograms render cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn render_prometheus(&self) -> String {
        let map = self.lock();
        let mut out = String::new();
        for (name, family) in map.iter() {
            let Some(kind) = family.series.values().next().map(Metric::kind_str) else {
                continue;
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, metric) in family.series.iter() {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        let inner = &h.0;
                        let mut cumulative = 0u64;
                        for (bound, bucket) in inner.bounds.iter().zip(inner.buckets.iter()) {
                            cumulative += bucket.load(Ordering::Relaxed);
                            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                        }
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                        let _ = writeln!(out, "{name}_sum {}", h.sum());
                        let _ = writeln!(out, "{name}_count {}", h.count());
                    }
                }
            }
        }
        out
    }

    /// Names of all registered metric families, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_storage() {
        let reg = Registry::new();
        let a = reg.counter("hits_total");
        let b = reg.counter("hits_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter_value("hits_total"), Some(4));
    }

    #[test]
    fn gauges_hold_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("loss");
        g.set(0.25);
        g.set(-1.5);
        assert_eq!(reg.gauge_value("loss"), Some(-1.5));
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("lat_ns", &[10, 100, 1000]);
        for v in [5, 50, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5555);
        assert!((h.mean() - 1388.75).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_cumulative() {
        let reg = Registry::new();
        reg.counter("z_total").add(2);
        reg.gauge("a_gauge").set(1.5);
        let h = reg.histogram_with_bounds("m_hist", &[10, 100]);
        h.observe(7);
        h.observe(70);
        h.observe(700);
        let text = reg.render_prometheus();
        let a = text.find("a_gauge").unwrap_or(usize::MAX);
        let m = text.find("m_hist").unwrap_or(usize::MAX);
        let z = text.find("z_total").unwrap_or(usize::MAX);
        assert!(a < m && m < z, "sorted order:\n{text}");
        assert!(text.contains("m_hist_bucket{le=\"10\"} 1"));
        assert!(text.contains("m_hist_bucket{le=\"100\"} 2"));
        assert!(text.contains("m_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("m_hist_count 3"));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        // Asking for a gauge under a counter name must not panic and must
        // not clobber the counter.
        let g = reg.gauge("x");
        g.set(9.0);
        assert_eq!(reg.counter_value("x"), Some(1));
    }

    #[test]
    fn labeled_series_share_a_family_but_not_storage() {
        let reg = Registry::new();
        reg.counter_labeled("serve_requests_total", &[("tenant", "a")])
            .add(2);
        reg.counter_labeled("serve_requests_total", &[("tenant", "b")])
            .inc();
        assert_eq!(
            reg.counter_value_labeled("serve_requests_total", &[("tenant", "a")]),
            Some(2)
        );
        assert_eq!(
            reg.counter_value_labeled("serve_requests_total", &[("tenant", "b")]),
            Some(1)
        );
        // The unlabeled series is distinct and not implicitly created.
        assert_eq!(reg.counter_value("serve_requests_total"), None);
        assert_eq!(reg.names(), vec!["serve_requests_total".to_string()]);
    }

    #[test]
    fn labeled_rendering_groups_one_type_line_per_family() {
        let reg = Registry::new();
        reg.counter_labeled("req_total", &[("tenant", "b")]).add(3);
        // Label order at the call site must not matter.
        reg.counter_labeled("req_total", &[("chip", "0"), ("tenant", "a")])
            .add(1);
        reg.counter_labeled("req_total", &[("tenant", "a"), ("chip", "0")])
            .add(1);
        reg.gauge_labeled("depth", &[("tenant", "a")]).set(2.0);
        let text = reg.render_prometheus();
        let expected = "# TYPE depth gauge\n\
                        depth{tenant=\"a\"} 2\n\
                        # TYPE req_total counter\n\
                        req_total{chip=\"0\",tenant=\"a\"} 2\n\
                        req_total{tenant=\"b\"} 3\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.gauge_labeled("g", &[("k", "a\"b\\c\nd")]).set(1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("g{k=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }

    #[test]
    fn labeled_kind_mismatch_is_detached_per_family() {
        let reg = Registry::new();
        reg.counter_labeled("m", &[("tenant", "a")]).add(5);
        let g = reg.gauge_labeled("m", &[("tenant", "b")]);
        g.set(3.0);
        assert_eq!(reg.gauge_value_labeled("m", &[("tenant", "b")]), None);
        assert_eq!(reg.counter_value_labeled("m", &[("tenant", "a")]), Some(5));
    }

    #[test]
    fn unlabeled_series_renders_exactly_as_before_labels_existed() {
        let reg = Registry::new();
        reg.counter("hits_total").add(4);
        reg.gauge("loss").set(0.5);
        let text = reg.render_prometheus();
        assert_eq!(
            text,
            "# TYPE hits_total counter\nhits_total 4\n# TYPE loss gauge\nloss 0.5\n"
        );
    }
}
