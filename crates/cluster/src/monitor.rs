//! Ganglia-style cluster monitoring on the shared simulation clock.
//!
//! The `ganglia` roll is part of every XCBC build (Table 1: "Cluster
//! monitoring system"). We model the gmond (per-node metric daemon) /
//! gmetad (cluster aggregator) split:
//!
//! * [`NodeMonitor`] is one gmond: one fixed-capacity [`Ring`] of
//!   samples stamped in [`SimTime`] per [`MetricKind`], oldest dropped
//!   first;
//! * [`ClusterMonitor`] is gmetad: an owned host → gmond map with
//!   cluster-wide means, absent-node detection, the classic XML dump
//!   ([`ganglia_xml`](ClusterMonitor::ganglia_xml)), and export into
//!   the shared [`MetricRegistry`];
//! * [`AlertRule`] / [`AlertEngine`] turn threshold crossings into
//!   [`Alert`]s with hysteresis, each convertible to a `mon.alert`
//!   [`TraceEvent`] timestamped on the shared clock.
//!
//! Everything iterates `BTreeMap`s, so dumps, expositions, and alert
//! order are deterministic for deterministic inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use xcbc_sim::{format_prom_f64, MetricRegistry, SimTime, TraceEvent};

/// Trace source of fired-alert events.
pub const ALERT_TRACE_SOURCE: &str = "mon.alert";

/// The metric kinds a stock gmond reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// 1-minute load average.
    LoadOne,
    /// CPU utilisation percent.
    CpuPercent,
    /// Memory utilisation percent.
    MemPercent,
    /// Network bytes/sec.
    NetBytesPerSec,
}

impl MetricKind {
    pub const ALL: [MetricKind; 4] = [
        MetricKind::LoadOne,
        MetricKind::CpuPercent,
        MetricKind::MemPercent,
        MetricKind::NetBytesPerSec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MetricKind::LoadOne => "load_one",
            MetricKind::CpuPercent => "cpu_percent",
            MetricKind::MemPercent => "mem_percent",
            MetricKind::NetBytesPerSec => "net_bytes_sec",
        }
    }

    /// Gmond metric units, for the XML dump.
    pub fn units(self) -> &'static str {
        match self {
            MetricKind::LoadOne => "",
            MetricKind::CpuPercent | MetricKind::MemPercent => "%",
            MetricKind::NetBytesPerSec => "bytes/sec",
        }
    }
}

/// One observation, stamped on the shared simulation clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// The observed value.
    pub value: f64,
}

impl MetricSample {
    /// A sample at `time` (accepts `SimTime` or legacy float seconds).
    pub fn new(time: impl Into<SimTime>, value: f64) -> MetricSample {
        MetricSample {
            time: time.into(),
            value,
        }
    }
}

/// Fixed-capacity circular ring of samples (RRD-style: old data falls
/// off). The buffer is allocated once, at construction, so a push never
/// reallocates; iteration yields oldest-first.
#[derive(Debug, Clone)]
pub struct Ring {
    capacity: usize,
    buf: Vec<MetricSample>,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
}

impl Ring {
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    pub fn push(&mut self, s: MetricSample) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<MetricSample> {
        if self.buf.is_empty() {
            None
        } else {
            let idx = (self.head + self.buf.len() - 1) % self.buf.len();
            Some(self.buf[idx])
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = MetricSample> + '_ {
        let n = self.buf.len();
        (0..n).map(move |i| self.buf[(self.head + i) % n])
    }
}

/// Per-node metric daemon (gmond).
#[derive(Debug)]
pub struct NodeMonitor {
    pub hostname: String,
    /// One ring per [`MetricKind`], indexed by the kind's declaration
    /// order.
    rings: [Ring; MetricKind::ALL.len()],
    last_seen: Option<SimTime>,
}

impl NodeMonitor {
    pub fn new(hostname: impl Into<String>, ring_capacity: usize) -> Self {
        NodeMonitor {
            hostname: hostname.into(),
            rings: std::array::from_fn(|_| Ring::new(ring_capacity)),
            last_seen: None,
        }
    }

    /// Record one observation (accepts `SimTime` or float seconds).
    pub fn observe(&mut self, kind: MetricKind, time: impl Into<SimTime>, value: f64) {
        let s = MetricSample::new(time, value);
        self.last_seen = Some(self.last_seen.map_or(s.time, |t| t.max(s.time)));
        self.rings[kind as usize].push(s);
    }

    /// The sample ring of one metric.
    pub fn ring(&self, kind: MetricKind) -> &Ring {
        &self.rings[kind as usize]
    }

    /// When this gmond last reported anything.
    pub fn last_seen(&self) -> Option<SimTime> {
        self.last_seen
    }
}

/// Cluster aggregator (gmetad): every gmond by hostname.
#[derive(Debug)]
pub struct ClusterMonitor {
    nodes: BTreeMap<String, NodeMonitor>,
    ring_capacity: usize,
}

impl ClusterMonitor {
    /// A gmetad whose gmonds keep the last `ring_capacity` samples of
    /// each metric.
    pub fn new(ring_capacity: usize) -> Self {
        ClusterMonitor {
            nodes: BTreeMap::new(),
            ring_capacity,
        }
    }

    /// Register a node (idempotent). Registered-but-silent nodes show
    /// up in [`absent_nodes`](Self::absent_nodes).
    pub fn register(&mut self, hostname: &str) {
        self.node_mut(hostname);
    }

    /// The gmond of `hostname`, registering it first if it is new.
    pub(crate) fn node_mut(&mut self, hostname: &str) -> &mut NodeMonitor {
        if !self.nodes.contains_key(hostname) {
            self.nodes.insert(
                hostname.to_string(),
                NodeMonitor::new(hostname, self.ring_capacity),
            );
        }
        self.nodes.get_mut(hostname).expect("just inserted")
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Registered hostnames, sorted.
    pub fn hosts(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// Publish one observation for a node (auto-registers). Accepts
    /// `SimTime` or legacy float seconds.
    pub fn publish(
        &mut self,
        hostname: &str,
        kind: MetricKind,
        time: impl Into<SimTime>,
        value: f64,
    ) {
        self.node_mut(hostname).observe(kind, time, value);
    }

    /// One gmond, if `hostname` is registered.
    pub fn node(&self, hostname: &str) -> Option<&NodeMonitor> {
        self.nodes.get(hostname)
    }

    /// Cluster-wide latest mean of a metric (the front page of a Ganglia
    /// web UI).
    pub fn cluster_mean(&self, kind: MetricKind) -> Option<f64> {
        let vals: Vec<f64> = self
            .nodes
            .values()
            .filter_map(|n| n.ring(kind).latest().map(|s| s.value))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Heartbeat check: registered nodes that have never reported.
    pub fn absent_nodes(&self) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| n.last_seen().is_none())
            .map(|n| n.hostname.clone())
            .collect()
    }

    /// Text dump in the spirit of gmetad's interactive port.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for n in self.nodes.values() {
            out.push_str(&format!("HOST {}\n", n.hostname));
            for k in MetricKind::ALL {
                if let Some(s) = n.ring(k).latest() {
                    out.push_str(&format!(
                        "  METRIC {} = {:.2} @ {:.0}s\n",
                        k.name(),
                        s.value,
                        s.time.as_secs_f64()
                    ));
                }
            }
        }
        out
    }

    /// Ganglia-faithful XML dump (what gmetad serves on its XML port):
    /// one `CLUSTER` element, one `HOST` per gmond with its `REPORTED`
    /// heartbeat, one `METRIC` per kind with the latest value.
    /// Byte-deterministic: hosts in name order, metrics in declaration
    /// order, all floats through one formatter.
    pub fn ganglia_xml(&self, cluster_name: &str, now: SimTime) -> String {
        let mut out = String::new();
        out.push_str("<GANGLIA_XML VERSION=\"3.1.7\" SOURCE=\"gmetad\">\n");
        let _ = writeln!(
            out,
            "<CLUSTER NAME=\"{}\" LOCALTIME=\"{}\" OWNER=\"xcbc\">",
            xml_escape(cluster_name),
            now.as_nanos() / xcbc_sim::NANOS_PER_SEC
        );
        for n in self.nodes.values() {
            let reported = n
                .last_seen()
                .map(|t| t.as_nanos() / xcbc_sim::NANOS_PER_SEC)
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "<HOST NAME=\"{}\" REPORTED=\"{}\">",
                xml_escape(&n.hostname),
                reported
            );
            for k in MetricKind::ALL {
                if let Some(s) = n.ring(k).latest() {
                    let _ = writeln!(
                        out,
                        "<METRIC NAME=\"{}\" VAL=\"{}\" TYPE=\"double\" UNITS=\"{}\" TN=\"{}\" SLOPE=\"both\"/>",
                        k.name(),
                        format_prom_f64(s.value),
                        k.units(),
                        now.since(s.time).as_nanos() / xcbc_sim::NANOS_PER_SEC
                    );
                }
            }
            out.push_str("</HOST>\n");
        }
        out.push_str("</CLUSTER>\n</GANGLIA_XML>\n");
        out
    }

    /// Export every gmond's latest values into `registry` as
    /// `xcbc_node_<metric>` gauges, labelled by the caller's
    /// `base_labels` (e.g. `site`) then `host` — the gmetad→registry
    /// bridge.
    pub fn register_into(&self, registry: &mut MetricRegistry, base_labels: &[(&str, &str)]) {
        for n in self.nodes.values() {
            let mut labels: Vec<(&str, &str)> = base_labels.to_vec();
            labels.push(("host", n.hostname.as_str()));
            for k in MetricKind::ALL {
                if let Some(s) = n.ring(k).latest() {
                    registry.set_gauge(
                        &format!("xcbc_node_{}", k.name()),
                        match k {
                            MetricKind::LoadOne => "gmond 1-minute load average",
                            MetricKind::CpuPercent => "gmond CPU utilisation percent",
                            MetricKind::MemPercent => "gmond memory utilisation percent",
                            MetricKind::NetBytesPerSec => "gmond network bytes per second",
                        },
                        &labels,
                        s.value,
                    );
                }
            }
            registry.set_gauge(
                "xcbc_node_heartbeat_seconds",
                "simulation instant of the gmond's last report",
                &labels,
                n.last_seen().map(|t| t.as_secs_f64()).unwrap_or(-1.0),
            );
        }
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

// ---------------------------------------------------------------------
// Alerting
// ---------------------------------------------------------------------

/// Which side of the threshold violates the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    /// Violated when the value exceeds the threshold.
    Above,
    /// Violated when the value drops below the threshold.
    Below,
}

/// A threshold rule over one metric kind.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule identifier (shows up in alert labels).
    pub name: String,
    /// Which gmond metric the rule watches.
    pub kind: MetricKind,
    /// Violation direction.
    pub op: AlertOp,
    /// The threshold value.
    pub threshold: f64,
}

impl AlertRule {
    pub fn above(name: impl Into<String>, kind: MetricKind, threshold: f64) -> AlertRule {
        AlertRule {
            name: name.into(),
            kind,
            op: AlertOp::Above,
            threshold,
        }
    }

    pub fn below(name: impl Into<String>, kind: MetricKind, threshold: f64) -> AlertRule {
        AlertRule {
            name: name.into(),
            kind,
            op: AlertOp::Below,
            threshold,
        }
    }

    /// Does `value` violate this rule?
    pub fn violated(&self, value: f64) -> bool {
        match self.op {
            AlertOp::Above => value > self.threshold,
            AlertOp::Below => value < self.threshold,
        }
    }
}

/// The default XCBC alert pack: thrashing CPU (retry storms push
/// derived CPU past 95 %), overloaded nodes, and exhausted memory.
pub fn default_alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::above("cpu-hot", MetricKind::CpuPercent, 95.0),
        AlertRule::above("load-high", MetricKind::LoadOne, 4.0),
        AlertRule::above("mem-high", MetricKind::MemPercent, 90.0),
    ]
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// When the violation was observed, on the shared clock.
    pub t: SimTime,
    /// The violated rule's name.
    pub rule: String,
    /// The violating host.
    pub host: String,
    /// The observed value.
    pub value: f64,
    /// The rule threshold (0.0 for event alerts like quarantine).
    pub threshold: f64,
}

impl Alert {
    /// The alert as a `mon.alert` mark on the shared timeline.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent::mark(
            self.t,
            ALERT_TRACE_SOURCE,
            format!("{}: {}", self.rule, self.host),
        )
        .with_field("host", self.host.as_str())
        .with_field("value", self.value)
        .with_field("threshold", self.threshold)
    }

    /// One dashboard line.
    pub fn render(&self) -> String {
        format!(
            "[{:>10}] ALERT {:<12} {:<14} value={} threshold={}",
            self.t.to_string(),
            self.rule,
            self.host,
            format_prom_f64(self.value),
            format_prom_f64(self.threshold),
        )
    }
}

/// Evaluates [`AlertRule`]s sample-by-sample with hysteresis: a rule
/// fires when a host crosses into violation and will not re-fire for
/// that host until a sample comes back inside the threshold.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Per-host threshold latches, indexed by rule position: `true` ⇔
    /// that rule is currently in violation for the host. Keyed by host
    /// so the per-sample hot path is a borrowed `&str` lookup — no
    /// allocation unless an alert actually fires.
    latched: BTreeMap<String, Vec<bool>>,
    /// Event-alert latches ([`raise`](Self::raise)/[`clear`](Self::clear))
    /// for names that are not configured threshold rules.
    raised: BTreeSet<(String, String)>,
    fired: Vec<Alert>,
}

impl AlertEngine {
    /// An engine with no rules; [`with_rules`](Self::with_rules) starts
    /// one with rules.
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// An engine evaluating `rules`.
    pub fn with_rules(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            rules,
            ..AlertEngine::default()
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluate one observation; any newly-fired alerts are recorded.
    pub fn observe(&mut self, host: &str, kind: MetricKind, t: SimTime, value: f64) {
        for i in 0..self.rules.len() {
            let rule = &self.rules[i];
            if rule.kind != kind {
                continue;
            }
            if rule.violated(value) {
                if self.latch(i, host) {
                    let rule = &self.rules[i];
                    self.fired.push(Alert {
                        t,
                        rule: rule.name.clone(),
                        host: host.to_string(),
                        value,
                        threshold: rule.threshold,
                    });
                }
            } else if let Some(latch) = self.latched.get_mut(host) {
                if let Some(b) = latch.get_mut(i) {
                    *b = false;
                }
            }
        }
    }

    /// Set latch `i` for `host`; returns true if it was newly set.
    fn latch(&mut self, i: usize, host: &str) -> bool {
        if !self.latched.contains_key(host) {
            self.latched.insert(host.to_string(), Vec::new());
        }
        let latch = self.latched.get_mut(host).expect("just inserted");
        if latch.len() <= i {
            latch.resize(i + 1, false);
        }
        let newly = !latch[i];
        latch[i] = true;
        newly
    }

    /// Raise an event alert (quarantine, absent heartbeat) directly,
    /// deduplicated per `(rule, host)` until [`clear`](Self::clear).
    /// Raising the name of a configured threshold rule shares that
    /// rule's hysteresis latch.
    pub fn raise(&mut self, t: SimTime, rule: &str, host: &str, value: f64) {
        let newly = match self.rules.iter().position(|r| r.name == rule) {
            Some(i) => self.latch(i, host),
            None => self.raised.insert((rule.to_string(), host.to_string())),
        };
        if newly {
            self.fired.push(Alert {
                t,
                rule: rule.to_string(),
                host: host.to_string(),
                value,
                threshold: 0.0,
            });
        }
    }

    /// Clear one `(rule, host)` latch so it may fire again.
    pub fn clear(&mut self, rule: &str, host: &str) {
        match self.rules.iter().position(|r| r.name == rule) {
            Some(i) => {
                if let Some(latch) = self.latched.get_mut(host) {
                    if let Some(b) = latch.get_mut(i) {
                        *b = false;
                    }
                }
            }
            None => {
                self.raised.remove(&(rule.to_string(), host.to_string()));
            }
        }
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.fired
    }

    /// Fired alerts as `mon.alert` trace events, in firing order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.fired.iter().map(Alert::to_event).collect()
    }

    /// Consume the engine, returning the fired alerts.
    pub fn into_alerts(self) -> Vec<Alert> {
        self.fired
    }

    /// Register per-rule fired totals into `registry`.
    pub fn register_into(&self, registry: &mut MetricRegistry, base_labels: &[(&str, &str)]) {
        let mut per_rule: BTreeMap<&str, u64> = BTreeMap::new();
        for rule in &self.rules {
            per_rule.insert(rule.name.as_str(), 0);
        }
        for a in &self.fired {
            *per_rule.entry(a.rule.as_str()).or_insert(0) += 1;
        }
        for (rule, n) in per_rule {
            let mut labels: Vec<(&str, &str)> = base_labels.to_vec();
            labels.push(("rule", rule));
            registry.set_counter(
                "xcbc_alerts_fired_total",
                "alerts fired per rule",
                &labels,
                n,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(MetricSample::new(i as f64, i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.latest().unwrap().value, 4.0);
        let ordered: Vec<f64> = r.iter().map(|s| s.value).collect();
        assert_eq!(ordered, [2.0, 3.0, 4.0], "iteration is oldest-first");
    }

    #[test]
    fn empty_ring() {
        let r = Ring::new(4);
        assert!(r.is_empty());
        assert!(r.latest().is_none());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut r = Ring::new(0);
        r.push(MetricSample::new(1.0, 1.0));
        assert!(r.is_empty());
        assert!(r.latest().is_none());
    }

    #[test]
    fn single_sample_ring() {
        let mut r = Ring::new(8);
        r.push(MetricSample::new(2.5, 7.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.latest().unwrap().value, 7.0);
        assert_eq!(r.latest().unwrap().time, SimTime::from_secs_f64(2.5));
    }

    #[test]
    fn exact_capacity_wrap() {
        // pushing exactly `capacity` then one more must wrap cleanly
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(MetricSample::new(i as f64, i as f64));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(
            r.iter().map(|s| s.value).collect::<Vec<_>>(),
            [0.0, 1.0, 2.0, 3.0]
        );
        r.push(MetricSample::new(4.0, 4.0));
        assert_eq!(r.len(), 4);
        assert_eq!(
            r.iter().map(|s| s.value).collect::<Vec<_>>(),
            [1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(r.latest().unwrap().value, 4.0);
    }

    #[test]
    fn sample_time_reads_in_seconds_via_simtime() {
        let s = MetricSample::new(SimTime::from_secs(90), 1.0);
        assert_eq!(s.time.as_secs_f64(), 90.0);
    }

    #[test]
    fn node_monitor_tracks_kinds_separately() {
        let mut n = NodeMonitor::new("compute-0-0", 16);
        n.observe(MetricKind::LoadOne, 0.0, 1.5);
        n.observe(MetricKind::CpuPercent, 0.0, 88.0);
        assert_eq!(n.ring(MetricKind::LoadOne).latest().unwrap().value, 1.5);
        assert_eq!(n.ring(MetricKind::CpuPercent).latest().unwrap().value, 88.0);
        assert!(n.ring(MetricKind::MemPercent).is_empty());
        assert_eq!(n.last_seen(), Some(SimTime::ZERO));
    }

    #[test]
    fn cluster_mean_over_reporting_nodes() {
        let mut m = ClusterMonitor::new(8);
        m.publish("a", MetricKind::CpuPercent, 1.0, 90.0);
        m.publish("b", MetricKind::CpuPercent, 1.0, 10.0);
        assert_eq!(m.cluster_mean(MetricKind::CpuPercent).unwrap(), 50.0);
        assert!(m.cluster_mean(MetricKind::LoadOne).is_none());
    }

    #[test]
    fn register_idempotent() {
        let mut m = ClusterMonitor::new(8);
        m.register("x");
        m.register("x");
        assert_eq!(m.node_count(), 1);
    }

    #[test]
    fn absent_nodes_by_heartbeat() {
        let mut m = ClusterMonitor::new(8);
        m.register("silent");
        m.publish("recent", MetricKind::LoadOne, 100.0, 1.0);
        m.publish("stale", MetricKind::LoadOne, 10.0, 1.0);
        assert_eq!(m.absent_nodes(), vec!["silent"]);
    }

    #[test]
    fn dump_contains_metrics() {
        let mut m = ClusterMonitor::new(8);
        m.publish("compute-0-0", MetricKind::MemPercent, 5.0, 42.5);
        let d = m.dump();
        assert!(d.contains("HOST compute-0-0"));
        assert!(d.contains("mem_percent = 42.50"));
    }

    #[test]
    fn ganglia_xml_is_faithful_and_deterministic() {
        let mut m = ClusterMonitor::new(8);
        m.publish("compute-0-0", MetricKind::LoadOne, 30.0, 1.5);
        m.publish("littlefe", MetricKind::CpuPercent, 60.0, 12.0);
        let xml = m.ganglia_xml("littlefe", SimTime::from_secs(90));
        assert_eq!(xml, m.ganglia_xml("littlefe", SimTime::from_secs(90)));
        assert!(xml.starts_with("<GANGLIA_XML VERSION=\"3.1.7\" SOURCE=\"gmetad\">"));
        assert!(xml.contains("<CLUSTER NAME=\"littlefe\" LOCALTIME=\"90\" OWNER=\"xcbc\">"));
        assert!(xml.contains("<HOST NAME=\"compute-0-0\" REPORTED=\"30\">"));
        assert!(xml.contains("<METRIC NAME=\"load_one\" VAL=\"1.5\" TYPE=\"double\" UNITS=\"\" TN=\"60\" SLOPE=\"both\"/>"));
        assert!(xml.trim_end().ends_with("</GANGLIA_XML>"));
    }

    #[test]
    fn registry_export_labels_hosts() {
        let mut m = ClusterMonitor::new(8);
        m.publish("compute-0-0", MetricKind::LoadOne, 5.0, 2.0);
        let mut reg = MetricRegistry::new();
        m.register_into(&mut reg, &[("site", "littlefe")]);
        let text = reg.render_prometheus();
        assert!(text.contains("xcbc_node_load_one{site=\"littlefe\",host=\"compute-0-0\"} 2"));
        assert!(
            text.contains("xcbc_node_heartbeat_seconds{site=\"littlefe\",host=\"compute-0-0\"} 5")
        );
    }

    #[test]
    fn alert_engine_fires_with_hysteresis() {
        let mut eng = AlertEngine::with_rules(default_alert_rules());
        eng.observe("n0", MetricKind::CpuPercent, SimTime::from_secs(1), 97.0);
        // still violating: latched, no re-fire
        eng.observe("n0", MetricKind::CpuPercent, SimTime::from_secs(2), 99.0);
        assert_eq!(eng.alerts().len(), 1);
        // back under threshold clears the latch
        eng.observe("n0", MetricKind::CpuPercent, SimTime::from_secs(3), 10.0);
        eng.observe("n0", MetricKind::CpuPercent, SimTime::from_secs(4), 98.0);
        assert_eq!(eng.alerts().len(), 2);
        let ev = eng.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].source, ALERT_TRACE_SOURCE);
        assert!(ev[0].label.contains("cpu-hot"));
    }

    #[test]
    fn raise_deduplicates_event_alerts() {
        let mut eng = AlertEngine::new();
        eng.raise(
            SimTime::from_secs(5),
            "node-quarantined",
            "compute-0-2",
            1.0,
        );
        eng.raise(
            SimTime::from_secs(9),
            "node-quarantined",
            "compute-0-2",
            1.0,
        );
        assert_eq!(eng.alerts().len(), 1);
        eng.clear("node-quarantined", "compute-0-2");
        eng.raise(
            SimTime::from_secs(20),
            "node-quarantined",
            "compute-0-2",
            1.0,
        );
        assert_eq!(eng.alerts().len(), 2);
    }

    #[test]
    fn alert_totals_register() {
        let mut eng = AlertEngine::with_rules(default_alert_rules());
        eng.observe("n0", MetricKind::MemPercent, SimTime::from_secs(1), 95.0);
        let mut reg = MetricRegistry::new();
        eng.register_into(&mut reg, &[]);
        assert_eq!(
            reg.counter_value("xcbc_alerts_fired_total", &[("rule", "mem-high")]),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("xcbc_alerts_fired_total", &[("rule", "cpu-hot")]),
            Some(0),
            "configured-but-silent rules report zero"
        );
    }
}
