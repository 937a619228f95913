//! The metric spine: a registry every layer exports into, plus span
//! latency histograms built straight from a trace.
//!
//! Ganglia keeps gmond/gmetad state as RRD files and serves them as XML;
//! modern stacks scrape a Prometheus text endpoint. [`MetricRegistry`]
//! is the neutral middle: gmetad node gauges, the scheduler's
//! `SimMetrics`-style summary numbers, the depsolve
//! cache's hit/miss counters, and per-source span latency histograms all
//! register here, and one writer renders the whole registry as
//! byte-deterministic Prometheus exposition text.
//!
//! Determinism rules: families and series live in `BTreeMap`s (name
//! order, then label order), histogram buckets are fixed log-spaced
//! boundaries shared by every histogram, and float formatting goes
//! through one formatter. Two runs that register the same values render
//! byte-identical text at any thread count.

use crate::time::SimDuration;
use crate::trace::{TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fixed log-spaced histogram bucket upper bounds, in seconds: three
/// buckets per decade from 1 ms to 10⁶ s (≈ 11.6 simulated days), which
/// covers everything from a DHCP exchange to a fleet campaign.
pub const HISTOGRAM_BUCKETS_S: [f64; 28] = [
    0.001,
    0.00215,
    0.00464,
    0.01,
    0.0215,
    0.0464,
    0.1,
    0.215,
    0.464,
    1.0,
    2.15,
    4.64,
    10.0,
    21.5,
    46.4,
    100.0,
    215.0,
    464.0,
    1_000.0,
    2_150.0,
    4_640.0,
    10_000.0,
    21_500.0,
    46_400.0,
    100_000.0,
    215_000.0,
    464_000.0,
    1_000_000.0,
];

/// A latency histogram over the fixed [`HISTOGRAM_BUCKETS_S`] bounds
/// (plus an implicit `+Inf` overflow bucket).
///
/// Quantile estimates are conservative: [`quantile`](Self::quantile)
/// returns the upper bound of the first bucket whose cumulative count
/// reaches the requested rank, so the answer is always an integer
/// bucket edge — exactly reproducible, never interpolated from floats.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS_S.len() + 1],
    total: u64,
    sum_ns: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS_S.len() + 1],
            total: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one duration.
    pub fn observe(&mut self, d: SimDuration) {
        let secs = d.as_secs_f64();
        let idx = HISTOGRAM_BUCKETS_S
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(HISTOGRAM_BUCKETS_S.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += d.as_nanos() as u128;
    }

    /// How many durations were observed.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed durations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Cumulative counts per bucket, `+Inf` last.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// The upper bucket bound (seconds) containing the `q`-quantile
    /// (0 < q ≤ 1), or `None` on an empty histogram. The `+Inf` bucket
    /// reports as `f64::INFINITY`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(HISTOGRAM_BUCKETS_S.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        None
    }

    /// Median bucket bound.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile bucket bound.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile bucket bound.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }
}

/// Every span's duration in a trace, fed into a per-source
/// [`LatencyHistogram`] — the p50/p95/p99 view of what each layer spent
/// its time on. Marks and counters are ignored.
#[derive(Debug)]
pub struct HistogramSink {
    by_source: BTreeMap<&'static str, LatencyHistogram>,
}

impl HistogramSink {
    /// The per-source span histograms of `events`.
    pub fn from_events(events: &[TraceEvent]) -> HistogramSink {
        let mut by_source = BTreeMap::<&'static str, LatencyHistogram>::new();
        for event in events {
            if let TraceKind::Span { dur } = event.kind {
                by_source.entry(event.source).or_default().observe(dur);
            }
        }
        HistogramSink { by_source }
    }

    /// The histogram for one trace source, if any spans were seen.
    pub fn source(&self, source: &str) -> Option<&LatencyHistogram> {
        self.by_source.get(source)
    }

    /// `(source, histogram)` pairs in source order.
    pub fn sources(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        self.by_source.iter().map(|(s, h)| (*s, h))
    }

    /// Is the collection empty?
    pub fn is_empty(&self) -> bool {
        self.by_source.is_empty()
    }

    /// Register every per-source histogram into `registry` as the
    /// `xcbc_span_seconds` family, labelled by source.
    pub fn register_into(&self, registry: &mut MetricRegistry) {
        for (source, hist) in &self.by_source {
            registry.set_histogram(
                "xcbc_span_seconds",
                "Span latency per trace source",
                &[("source", source)],
                hist,
            );
        }
    }
}

/// One registered series value.
#[derive(Debug, Clone, PartialEq)]
enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    // boxed: a histogram's fixed bucket array dwarfs the scalar variants
    Histogram(Box<LatencyHistogram>),
}

/// One metric family: help text, type, and its series keyed by the
/// rendered label set.
#[derive(Debug, Clone)]
struct Family {
    help: String,
    kind: &'static str,
    series: BTreeMap<String, SeriesValue>,
}

/// The shared metric registry.
///
/// Everything that wants to show up on the `xcbc mon` endpoint —
/// gmetad node gauges, scheduler summary metrics, solve-cache counters,
/// span histograms, alert totals — registers here under a family name
/// plus a label set, and [`render_prometheus`](Self::render_prometheus)
/// writes the whole registry as deterministic exposition text.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    families: BTreeMap<String, Family>,
}

/// Render a label set as `{k="v",…}` (empty string for no labels).
/// Label order is the caller's order, so call sites must pass labels in
/// a fixed order — every exporter in the workspace does.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

/// Format a float the way the exposition writer does everywhere:
/// shortest-round-trip `{}` formatting, with infinities spelled
/// `+Inf`/`-Inf` per the Prometheus text format.
pub fn format_prom_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &'static str) -> &mut Family {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            })
    }

    /// Register (or overwrite) a counter series.
    pub fn set_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family(name, help, "counter")
            .series
            .insert(render_labels(labels), SeriesValue::Counter(value));
    }

    /// Register (or overwrite) a gauge series.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, "gauge")
            .series
            .insert(render_labels(labels), SeriesValue::Gauge(value));
    }

    /// Register (or overwrite) a histogram series.
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LatencyHistogram,
    ) {
        self.family(name, help, "histogram").series.insert(
            render_labels(labels),
            SeriesValue::Histogram(Box::new(hist.clone())),
        );
    }

    /// Look up a counter value (exact label set, caller's label order).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self
            .families
            .get(name)?
            .series
            .get(&render_labels(labels))?
        {
            SeriesValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Look up a gauge value (exact label set, caller's label order).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .families
            .get(name)?
            .series
            .get(&render_labels(labels))?
        {
            SeriesValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Render the registry as Prometheus text exposition: families in
    /// name order, series in label order, one `# HELP`/`# TYPE` pair per
    /// family. Byte-deterministic for identical registered values.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind);
            for (labels, value) in &family.series {
                match value {
                    SeriesValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    SeriesValue::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", format_prom_f64(*v));
                    }
                    SeriesValue::Histogram(h) => {
                        render_prom_histogram(&mut out, name, labels, h);
                    }
                }
            }
        }
        out
    }
}

fn render_prom_histogram(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    // splice `le` into the existing label set
    let bucket_labels = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
        }
    };
    let cumulative = h.cumulative();
    for (i, ub) in HISTOGRAM_BUCKETS_S.iter().enumerate() {
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            bucket_labels(&format_prom_f64(*ub)),
            cumulative[i]
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        bucket_labels("+Inf"),
        cumulative[HISTOGRAM_BUCKETS_S.len()]
    );
    let _ = writeln!(
        out,
        "{name}_sum{labels} {}",
        format_prom_f64(h.sum_seconds())
    );
    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for secs in [0.5, 0.5, 0.5, 5.0, 50.0, 500.0] {
            h.observe(SimDuration::from_secs_f64(secs));
        }
        assert_eq!(h.count(), 6);
        // 0.5 s lands in the (0.464, 1.0] bucket
        assert_eq!(h.p50(), Some(1.0));
        assert_eq!(h.p95(), Some(1_000.0));
        assert_eq!(h.quantile(1.0), Some(1_000.0));
        assert!((h.sum_seconds() - 556.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_and_overflow() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), None);
        h.observe(SimDuration::from_secs(10_000_000));
        assert_eq!(h.p50(), Some(f64::INFINITY));
        assert_eq!(h.cumulative().last(), Some(&1));
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.observe(SimDuration::from_secs(1));
        b.observe(SimDuration::from_secs(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(1.0), Some(100.0));
    }

    #[test]
    fn histogram_sink_groups_by_source() {
        let sink = HistogramSink::from_events(&[
            TraceEvent::span(0.0, "rocks.install", "fe", 600.0),
            TraceEvent::span(0.0, "sched", "job", 60.0),
            TraceEvent::mark(0.0, "sched", "submit"),
        ]);
        assert_eq!(sink.source("rocks.install").unwrap().count(), 1);
        assert_eq!(sink.source("sched").unwrap().count(), 1, "marks ignored");
        let sources: Vec<&str> = sink.sources().map(|(s, _)| s).collect();
        assert_eq!(sources, ["rocks.install", "sched"]);
    }

    #[test]
    fn registry_renders_deterministically() {
        let build = || {
            let mut reg = MetricRegistry::new();
            reg.set_gauge(
                "xcbc_node_load_one",
                "1-minute load",
                &[("host", "compute-0-0")],
                1.5,
            );
            reg.set_counter("xcbc_solvecache_hits_total", "cache hits", &[], 7);
            let mut h = LatencyHistogram::new();
            h.observe(SimDuration::from_secs(3));
            reg.set_histogram(
                "xcbc_span_seconds",
                "span latency",
                &[("source", "sched")],
                &h,
            );
            reg.render_prometheus()
        };
        let text = build();
        assert_eq!(text, build(), "byte-deterministic");
        assert!(text.contains("# TYPE xcbc_node_load_one gauge"));
        assert!(text.contains("xcbc_node_load_one{host=\"compute-0-0\"} 1.5"));
        assert!(text.contains("xcbc_solvecache_hits_total 7"));
        assert!(text.contains("xcbc_span_seconds_bucket{source=\"sched\",le=\"4.64\"} 1"));
        assert!(text.contains("xcbc_span_seconds_bucket{source=\"sched\",le=\"+Inf\"} 1"));
        assert!(text.contains("xcbc_span_seconds_count{source=\"sched\"} 1"));
    }

    #[test]
    fn registry_families_sorted() {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("zzz", "last", &[], 1.0);
        reg.set_gauge("aaa", "first", &[], 2.0);
        reg.set_counter("mid_total", "counts", &[("k", "v")], 5);
        let text = reg.render_prometheus();
        assert!(text.find("aaa").unwrap() < text.find("mid_total").unwrap());
        assert!(text.find("mid_total").unwrap() < text.find("zzz").unwrap());
        assert_eq!(reg.counter_value("mid_total", &[("k", "v")]), Some(5));
        assert_eq!(reg.gauge_value("aaa", &[]), Some(2.0));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("g", "h", &[("k", "a\"b\\c")], 1.0);
        assert!(reg.render_prometheus().contains("g{k=\"a\\\"b\\\\c\"} 1"));
    }
}
