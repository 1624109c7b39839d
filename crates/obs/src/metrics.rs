//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! A [`Metrics`] handle is either *enabled* (backed by a shared registry)
//! or *disabled* (the default). Disabled handles turn every recording call
//! into a no-op after a single branch, so instrumented hot paths cost
//! nothing in ordinary runs — the property the byte-identical-output and
//! wall-clock acceptance checks depend on.
//!
//! Histograms use power-of-two buckets indexed by bit length (value 0 goes
//! to bucket 0; otherwise bucket `64 - leading_zeros(v)`), which is cheap,
//! branch-free, and plenty for latency distributions spanning nanoseconds
//! to seconds. Quantiles report the upper bound of the containing bucket,
//! clamped to the observed maximum.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Number of histogram buckets: one for zero plus one per bit length.
const BUCKETS: usize = 65;

/// A log-bucketed (power-of-two) histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a sample: 0 for 0, else its bit length.
    pub(crate) fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive upper bound of a bucket (`2^i - 1` for bucket `i`).
    pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub(crate) fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 if empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 if empty).
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` in [0, 1]: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped to
    /// the observed maximum. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A point-in-time copy of every metric in a registry, for export.
///
/// Maps are ordered by name, so serialisation is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histograms by name.
    pub(crate) histograms: BTreeMap<&'static str, Histogram>,
}

/// A cheap cloneable handle to a metrics registry, or a no-op.
///
/// `Metrics::default()` is disabled: recording methods return after one
/// branch. [`Metrics::enabled`] creates a live shared registry; clones of
/// an enabled handle all feed the same registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl Metrics {
    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Registry::default()))),
        }
    }

    /// Does this handle record anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the counter `name` (creating it at 0).
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.inner {
            *r.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Increment the counter `name` by one.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge(&self, name: &'static str, value: i64) {
        if let Some(r) = &self.inner {
            r.borrow_mut().gauges.insert(name, value);
        }
    }

    /// Record `value` into the histogram `name` (creating it empty).
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.inner {
            r.borrow_mut()
                .histograms
                .entry(name)
                .or_default()
                .observe(value);
        }
    }

    /// Current value of a counter (0 if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|r| r.borrow().counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Current value of a gauge (`None` if absent or disabled).
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.inner
            .as_ref()
            .and_then(|r| r.borrow().gauges.get(name).copied())
    }

    /// Copy of a histogram (`None` if absent or disabled).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|r| r.borrow().histograms.get(name).cloned())
    }

    /// Point-in-time copy of everything (empty if disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(r) => {
                let r = r.borrow();
                MetricsSnapshot {
                    counters: r.counters.clone(),
                    gauges: r.gauges.clone(),
                    histograms: r.histograms.clone(),
                }
            }
        }
    }

    /// Flat JSON object with deterministic key order.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl MetricsSnapshot {
    /// Flat JSON object: `counters.*` and `gauges.*` scalars plus
    /// `hist.<name>.{count,sum,mean,p50,p90,p99,max}` per histogram. All
    /// flat keys are emitted in one globally sorted order, so output is
    /// fully deterministic and diffable regardless of which group a key
    /// belongs to.
    pub(crate) fn to_json(&self) -> String {
        let mut parts: Vec<(String, String)> = Vec::new();
        for (name, v) in &self.counters {
            parts.push((format!("counters.{name}"), v.to_string()));
        }
        for (name, v) in &self.gauges {
            parts.push((format!("gauges.{name}"), v.to_string()));
        }
        for (name, h) in &self.histograms {
            for (sub, v) in [
                ("count", h.count()),
                ("sum", h.sum()),
                ("mean", h.mean()),
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
                ("max", h.max()),
            ] {
                parts.push((format!("hist.{name}.{sub}"), v.to_string()));
            }
        }
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        let body: Vec<String> = parts
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&body.join(",\n"));
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Zero gets its own bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Powers of two open a new bucket; one less stays in the previous.
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Upper bounds are 2^i - 1 and saturate at the top.
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(8), 255);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // index/upper_bound are mutually consistent: every sample is <=
        // the upper bound of its bucket and > the previous bucket's bound.
        for v in [1u64, 2, 3, 7, 8, 1023, 1024, 1 << 40] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(i));
            assert!(v > Histogram::bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantiles_clamp_to_max() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 400] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1000);
        assert_eq!(h.mean(), 250);
        assert_eq!(h.max(), 400);
        // All samples land in buckets 7 (64..=127) and 9 (256..=511); the
        // p99 bucket bound (511) is clamped to the observed max.
        assert_eq!(h.p99(), 400);
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
    }

    #[test]
    fn quantile_picks_correct_bucket() {
        let mut h = Histogram::default();
        // 9 small samples, 1 large: p50 must be in the small bucket.
        for _ in 0..9 {
            h.observe(10);
        }
        h.observe(1_000_000);
        assert_eq!(h.p50(), Histogram::bucket_upper_bound(4)); // 10 -> bucket 4, bound 15
        assert_eq!(h.p99(), 1_000_000); // clamped to max
        assert_eq!(h.quantile(0.0), Histogram::bucket_upper_bound(4));
    }

    #[test]
    fn disabled_is_noop() {
        let m = Metrics::disabled();
        m.inc("x");
        m.add("x", 10);
        m.gauge("g", 5);
        m.observe("h", 42);
        assert!(!m.is_enabled());
        assert_eq!(m.counter_value("x"), 0);
        assert_eq!(m.gauge_value("g"), None);
        assert!(m.histogram("h").is_none());
        let s = m.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
    }

    #[test]
    fn enabled_records_and_shares() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.inc("ops");
        m2.add("ops", 2);
        m.gauge("depth", -3);
        m.observe("lat", 7);
        m2.observe("lat", 9);
        assert_eq!(m.counter_value("ops"), 3);
        assert_eq!(m.gauge_value("depth"), Some(-3));
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 16);
    }

    #[test]
    fn json_shape_is_deterministic() {
        let m = Metrics::enabled();
        m.add("b", 2);
        m.add("a", 1);
        m.gauge("g", 1);
        m.observe("lat", 4);
        let j = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j, j2);
        // BTreeMap ordering: "a" before "b" regardless of insertion order.
        let ia = j.find("\"counters.a\"").unwrap();
        let ib = j.find("\"counters.b\"").unwrap();
        assert!(ia < ib);
        assert!(j.contains("\"hist.lat.count\": 1"));
        assert!(j.trim_start().starts_with('{'));
        assert!(j.trim_end().ends_with('}'));
    }

    #[test]
    fn json_keys_are_globally_sorted() {
        let m = Metrics::enabled();
        m.add("z", 1);
        m.gauge("a", 2);
        m.observe("mid", 3);
        m.observe("aaa", 4);
        let j = m.to_json();
        let keys: Vec<&str> = j
            .lines()
            .filter_map(|l| {
                let l = l.trim().trim_start_matches('\"');
                l.split('\"').next().filter(|k| k.contains('.'))
            })
            .collect();
        assert!(!keys.is_empty());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "flat keys must be emitted in sorted order");
        // Histogram subkeys sort alphabetically within their histogram.
        let ic = j.find("\"hist.aaa.count\"").unwrap();
        let im = j.find("\"hist.aaa.max\"").unwrap();
        let is_ = j.find("\"hist.aaa.sum\"").unwrap();
        assert!(ic < im && im < is_);
    }
}
