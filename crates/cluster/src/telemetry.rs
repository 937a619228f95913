//! Event-driven gmond: derive node metrics from the trace.
//!
//! The old monitor was fed by nothing — dashboards showed whatever a
//! demo hand-published. [`TelemetrySink`] closes the loop: it ingests
//! the same event log every layer already records
//! (`rocks.install` spans, `sched` job spans, `yum.mirror` fetches,
//! `cluster.boot` phases) and converts each event into the per-node
//! samples a real gmond would have measured while that work ran:
//!
//! * an install span on a node ⇒ CPU/memory/load busy at span start,
//!   idle at span end; a `bytes` field ⇒ network bytes/sec for the
//!   span's duration;
//! * a retry-backoff span ([`BACKOFF_PREFIX`]) ⇒ a CPU thrash spike —
//!   which is what trips the `cpu-hot` alert rule under fault
//!   injection;
//! * a scheduler job span with a `placement` field ⇒ load/CPU on each
//!   placed node for the job's lifetime;
//! * a mirror fetch ⇒ network throughput on the frontend.
//!
//! Each derived sample lands in the gmetad rings and then in the
//! [`AlertEngine`], one at a time in derivation order, so threshold
//! alerts fire *at the simulated instant* the violation happened,
//! deterministically. Because the input trace is byte-deterministic for
//! a fixed seed, so is everything this sink derives, however the trace
//! is split across [`ingest`](TelemetrySink::ingest) calls.

use crate::monitor::{Alert, AlertEngine, AlertRule, ClusterMonitor, MetricKind, NodeMonitor};
use crate::power::POWER_TRACE_SOURCE;
use xcbc_sim::{FieldValue, SimTime, TraceEvent, TraceKind, BACKOFF_PREFIX};

/// Trace source for fleet membership marks (`join <host>` /
/// `drain <host>` / `leave <host>`). Emitted by the elastic membership
/// engine; a join doubles as a heartbeat so always-on floor nodes and
/// mid-run burst sites register without ever booting through the power
/// sequencer.
pub const MEMBERSHIP_TRACE_SOURCE: &str = "fleet.membership";

/// Derived CPU percent while an install span runs.
pub const INSTALL_CPU: f64 = 88.0;
/// Derived memory percent while an install span runs.
pub const INSTALL_MEM: f64 = 62.0;
/// Derived 1-minute load while an install span runs.
pub const INSTALL_LOAD: f64 = 1.0;
/// Derived CPU percent during a retry-backoff span (the node is
/// thrashing through timeouts and retries) — above the `cpu-hot`
/// threshold on purpose.
pub const BACKOFF_CPU: f64 = 97.5;
/// Derived CPU percent on nodes running a scheduler job.
pub const JOB_CPU: f64 = 92.0;
/// Derived CPU percent on the frontend while it serves a mirror fetch.
pub const MIRROR_CPU: f64 = 35.0;
/// Derived CPU percent while a node boots.
pub const BOOT_CPU: f64 = 55.0;
/// Idle CPU percent published when a span ends.
pub const IDLE_CPU: f64 = 4.0;
/// Idle memory percent published when a span ends.
pub const IDLE_MEM: f64 = 22.0;
/// Idle load published when a span ends.
pub const IDLE_LOAD: f64 = 0.05;

/// Scheduler and power-sequencer node index `i` is host
/// `compute-0-<i>`, the stock Rocks compute naming.
const SCHED_HOST_PREFIX: &str = "compute-0-";

/// How the sink maps trace events onto hosts.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// The frontend hostname: unattributable work (mirror fetches,
    /// insert-ethers, spans with no recognizable host) lands here —
    /// faithfully, since the frontend runs all of it.
    pub frontend: String,
    /// Every hostname in the cluster; registered up front so silent
    /// nodes show up in heartbeat checks.
    pub hosts: Vec<String>,
}

impl TelemetryConfig {
    /// A config for `frontend` plus `hosts`.
    pub fn new(frontend: impl Into<String>, hosts: Vec<String>) -> TelemetryConfig {
        TelemetryConfig {
            frontend: frontend.into(),
            hosts,
        }
    }

    /// Resolve the host an event describes: an explicit `node` field
    /// wins; otherwise a `<host>:`-prefixed label is matched against
    /// the known hosts (with `frontend:` aliasing the configured
    /// frontend); everything else is the frontend's work.
    fn resolve_host<'a>(&'a self, event: &'a TraceEvent) -> &'a str {
        if let Some(FieldValue::Str(node)) = field(event, "node") {
            return node;
        }
        if let Some((prefix, _)) = event.label.split_once(':') {
            if prefix != "frontend" && self.hosts.iter().any(|h| h == prefix) {
                return prefix;
            }
        }
        &self.frontend
    }
}

/// The event-driven gmond array: ingests trace slices, publishes
/// derived samples into a [`ClusterMonitor`] and evaluates alert rules
/// sample-by-sample.
#[derive(Debug)]
pub struct TelemetrySink {
    monitor: ClusterMonitor,
    engine: AlertEngine,
    config: TelemetryConfig,
}

impl TelemetrySink {
    /// A sink publishing into `monitor` under `rules`. All configured
    /// hosts are registered immediately.
    pub fn new(
        mut monitor: ClusterMonitor,
        config: TelemetryConfig,
        rules: Vec<AlertRule>,
    ) -> Self {
        for h in &config.hosts {
            monitor.register(h);
        }
        monitor.register(&config.frontend);
        TelemetrySink {
            monitor,
            engine: AlertEngine::with_rules(rules),
            config,
        }
    }

    /// The gmetad this sink publishes into.
    pub fn monitor(&self) -> &ClusterMonitor {
        &self.monitor
    }

    /// The alert engine (rules, fired alerts).
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }

    /// Alerts fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        self.engine.alerts()
    }

    /// Raise a quarantine alert for `node` at `t` (fed from the fault
    /// layer's post-mortem).
    pub fn note_quarantined(&mut self, t: SimTime, node: &str) {
        self.engine.raise(t, "node-quarantined", node, 1.0);
    }

    /// Heartbeat sweep at scenario end: any registered node that never
    /// reported raises a `node-absent` alert.
    pub fn finish(&mut self, now: SimTime) {
        for host in self.monitor.absent_nodes() {
            self.engine.raise(now, "node-absent", &host, 1.0);
        }
    }

    /// Consume the sink, returning the monitor and the alert engine.
    pub fn into_parts(self) -> (ClusterMonitor, AlertEngine) {
        (self.monitor, self.engine)
    }
}

fn field<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a FieldValue> {
    event.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn field_u64(event: &TraceEvent, key: &str) -> Option<u64> {
    match field(event, key) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    }
}

/// One derived sample: into the node's ring, then past the alert rules.
fn sample(
    node: &mut NodeMonitor,
    engine: &mut AlertEngine,
    kind: MetricKind,
    time: SimTime,
    value: f64,
) {
    node.observe(kind, time, value);
    engine.observe(&node.hostname, kind, time, value);
}

/// Busy samples at span start, idle samples at span end.
fn busy_idle(
    node: &mut NodeMonitor,
    engine: &mut AlertEngine,
    (start, end): (SimTime, SimTime),
    cpu: f64,
    load: f64,
    mem: Option<f64>,
) {
    sample(node, engine, MetricKind::CpuPercent, start, cpu);
    sample(node, engine, MetricKind::LoadOne, start, load);
    if let Some(mem) = mem {
        sample(node, engine, MetricKind::MemPercent, start, mem);
    }
    if end > start {
        sample(node, engine, MetricKind::CpuPercent, end, IDLE_CPU);
        sample(node, engine, MetricKind::LoadOne, end, IDLE_LOAD);
        if mem.is_some() {
            sample(node, engine, MetricKind::MemPercent, end, IDLE_MEM);
        }
    }
}

fn net_span(
    node: &mut NodeMonitor,
    engine: &mut AlertEngine,
    (start, end): (SimTime, SimTime),
    bytes: u64,
) {
    let dur_s = end.since(start).as_secs_f64();
    let rate = if dur_s > 0.0 {
        bytes as f64 / dur_s
    } else {
        bytes as f64
    };
    sample(node, engine, MetricKind::NetBytesPerSec, start, rate);
    if end > start {
        sample(node, engine, MetricKind::NetBytesPerSec, end, 0.0);
    }
}

impl TelemetrySink {
    /// Convert one trace event into samples and alerts.
    fn derive(&mut self, event: &TraceEvent) {
        let engine = &mut self.engine;
        if event.source == "campaign" {
            // a node the campaign gave up on (retry budget exhausted)
            // raises an alert on the monitoring plane
            if let TraceKind::Mark = event.kind {
                if let Some(host) = event.label.strip_prefix("fail ") {
                    engine.raise(event.t, "campaign-node-failed", host, 1.0);
                }
            }
            return;
        }
        if event.source == MEMBERSHIP_TRACE_SOURCE {
            // A join is the member's first heartbeat: an idle sample
            // registers it with the gmetad so the absence sweep sees
            // it, without inventing load the node never carried.
            if let TraceKind::Mark = event.kind {
                if let Some(host) = event.label.strip_prefix("join ") {
                    let node = self.monitor.node_mut(host);
                    sample(node, engine, MetricKind::CpuPercent, event.t, 0.0);
                    sample(node, engine, MetricKind::LoadOne, event.t, 0.0);
                }
            }
            return;
        }
        if event.source == POWER_TRACE_SOURCE {
            // `boot node N` spans carry a numeric `node` field; marks
            // and aggregate `boot N nodes` spans carry no per-host load.
            if let (TraceKind::Span { dur }, Some(n)) = (&event.kind, field_u64(event, "node")) {
                let node = self.monitor.node_mut(&format!("{SCHED_HOST_PREFIX}{n}"));
                let span = (event.t, event.t + *dur);
                busy_idle(node, engine, span, BOOT_CPU, INSTALL_LOAD, None);
            }
            return;
        }
        let TraceKind::Span { dur } = event.kind else {
            return; // marks and counters carry no sustained node load
        };
        let span = (event.t, event.t + dur);
        match event.source {
            "rocks.install" | "xnit.overlay" => {
                let node = self.monitor.node_mut(self.config.resolve_host(event));
                if event.label.starts_with(BACKOFF_PREFIX) {
                    // retries thrash the node: CPU spike, no real work
                    busy_idle(node, engine, span, BACKOFF_CPU, INSTALL_LOAD, None);
                } else {
                    busy_idle(
                        node,
                        engine,
                        span,
                        INSTALL_CPU,
                        INSTALL_LOAD,
                        Some(INSTALL_MEM),
                    );
                    if let Some(bytes) = field_u64(event, "bytes") {
                        net_span(node, engine, span, bytes);
                    }
                }
            }
            "cluster.boot" => {
                let node = self.monitor.node_mut(self.config.resolve_host(event));
                busy_idle(node, engine, span, BOOT_CPU, INSTALL_LOAD, None);
            }
            "yum.mirror" => {
                let node = self.monitor.node_mut(&self.config.frontend);
                busy_idle(node, engine, span, MIRROR_CPU, INSTALL_LOAD, None);
                if let Some(bytes) = field_u64(event, "bytes") {
                    net_span(node, engine, span, bytes);
                }
            }
            "sched" => {
                let Some(FieldValue::Str(placement)) = field(event, "placement") else {
                    return; // reservations and marks: no node load
                };
                let placed: Vec<&str> = placement.split(',').filter(|s| !s.is_empty()).collect();
                if placed.is_empty() {
                    return;
                }
                let cores = field_u64(event, "cores").unwrap_or(placed.len() as u64);
                let per_node_load = cores as f64 / placed.len() as f64;
                for i in placed {
                    let node = self.monitor.node_mut(&format!("{SCHED_HOST_PREFIX}{i}"));
                    busy_idle(node, engine, span, JOB_CPU, per_node_load, None);
                }
            }
            _ => {}
        }
    }

    /// Ingest `events` in emission order: derive every event's samples
    /// and alerts and publish them.
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.derive(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::default_alert_rules;
    use xcbc_sim::ANALYZE_TRACE_SOURCE;

    fn sink() -> TelemetrySink {
        let hosts = vec![
            "littlefe".to_string(),
            "compute-0-0".to_string(),
            "compute-0-1".to_string(),
        ];
        TelemetrySink::new(
            ClusterMonitor::new(32),
            TelemetryConfig::new("littlefe", hosts),
            default_alert_rules(),
        )
    }

    #[test]
    fn install_span_drives_node_metrics() {
        let mut s = sink();
        s.ingest(&[TraceEvent::span(
            10.0,
            "rocks.install",
            "compute-0-0: pxe + kickstart install",
            600.0,
        )
        .with_field("bytes", 300u64 << 20)]);
        let m = s.monitor();
        let cpu = m
            .node("compute-0-0")
            .and_then(|n| n.ring(MetricKind::CpuPercent).latest())
            .unwrap();
        assert_eq!(cpu.value, IDLE_CPU, "span ended: node back to idle");
        assert_eq!(cpu.time, SimTime::from_secs(610));
        let net = m
            .node("compute-0-0")
            .map(|n| n.ring(MetricKind::NetBytesPerSec).len())
            .unwrap();
        assert_eq!(net, 2, "rate at start, zero at end");
    }

    #[test]
    fn frontend_labels_map_to_frontend_host() {
        let mut s = sink();
        s.ingest(&[TraceEvent::span(
            0.0,
            "rocks.install",
            "frontend: installer screens & roll selection",
            300.0,
        )]);
        assert!(s
            .monitor()
            .node("littlefe")
            .map(|n| !n.ring(MetricKind::CpuPercent).is_empty())
            .unwrap());
    }

    #[test]
    fn backoff_spike_fires_cpu_hot_alert() {
        let mut s = sink();
        s.ingest(&[TraceEvent::span(
            50.0,
            "rocks.install",
            format!("{BACKOFF_PREFIX}compute-0-1: boot retries"),
            20.0,
        )]);
        // the label after the prefix is not a known-host prefix match,
        // but the spike still lands (on the frontend) and trips the rule
        let alerts = s.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "cpu-hot");
        assert_eq!(alerts[0].t, SimTime::from_secs(50));
    }

    #[test]
    fn job_span_places_load_on_placed_nodes() {
        let mut s = sink();
        s.ingest(&[TraceEvent::span(100.0, "sched", "job hello-mpi", 600.0)
            .with_field("cores", 4u64)
            .with_field("placement", "0,1")]);
        for host in ["compute-0-0", "compute-0-1"] {
            let load = s
                .monitor()
                .node(host)
                .and_then(|n| n.ring(MetricKind::LoadOne).iter().next())
                .unwrap();
            assert_eq!(load.value, 2.0, "4 cores over 2 nodes");
        }
    }

    #[test]
    fn sched_marks_and_reservations_carry_no_load() {
        let mut s = sink();
        s.ingest(&[TraceEvent::mark(0.0, "sched", "submit hello")]);
        s.ingest(&[
            TraceEvent::span(0.0, "sched", "reservation: maintenance", 3600.0)
                .with_field("nodes", 2u64),
        ]);
        assert!(s
            .monitor()
            .node("compute-0-0")
            .map(|n| n.ring(MetricKind::LoadOne).is_empty())
            .unwrap());
    }

    #[test]
    fn mirror_fetch_is_frontend_network() {
        let mut s = sink();
        s.ingest(&[
            TraceEvent::span(0.0, "yum.mirror", "fetch http://mirror/rocks", 100.0)
                .with_field("bytes", 1000u64 * 100),
        ]);
        let net = s
            .monitor()
            .node("littlefe")
            .and_then(|n| n.ring(MetricKind::NetBytesPerSec).iter().next())
            .unwrap();
        assert_eq!(net.value, 1000.0);
    }

    #[test]
    fn finish_raises_absent_alerts_for_silent_nodes() {
        let mut s = sink();
        s.ingest(&[TraceEvent::span(
            0.0,
            "rocks.install",
            "compute-0-0: pxe + kickstart install",
            60.0,
        )]);
        s.finish(SimTime::from_secs(120));
        let absent: Vec<&str> = s
            .alerts()
            .iter()
            .filter(|a| a.rule == "node-absent")
            .map(|a| a.host.as_str())
            .collect();
        // compute-0-1 and the frontend never reported
        assert_eq!(absent, ["compute-0-1", "littlefe"]);
    }

    #[test]
    fn campaign_fail_mark_raises_alert() {
        let failed = |s: &TelemetrySink| -> Vec<String> {
            s.alerts()
                .iter()
                .filter(|a| a.rule == "campaign-node-failed")
                .map(|a| a.host.clone())
                .collect()
        };
        let mut s = sink();
        // other campaign verbs, unknown verbs and non-campaign marks
        // raise nothing
        s.ingest(&[TraceEvent::mark(10.0, "campaign", "drain compute-0-0")]);
        s.ingest(&[TraceEvent::mark(20.0, "campaign", "update compute-0-0")]);
        s.ingest(&[TraceEvent::mark(30.0, "campaign", "online compute-0-0")]);
        s.ingest(&[TraceEvent::mark(35.0, "campaign", "ponder compute-0-0")]);
        s.ingest(&[TraceEvent::mark(35.0, "sched", "fail compute-0-0")]);
        assert!(failed(&s).is_empty());
        s.ingest(&[TraceEvent::mark(40.0, "campaign", "fail compute-0-1")]);
        assert_eq!(failed(&s), ["compute-0-1"]);
    }

    #[test]
    fn power_boot_span_drives_boot_load() {
        let mut s = sink();
        s.ingest(&[
            TraceEvent::span(100.0, POWER_TRACE_SOURCE, "boot node 1", 90.0)
                .with_field("node", 1u64),
        ]);
        // the boot span drives CPU on the booting node
        let cpu = s
            .monitor()
            .node("compute-0-1")
            .and_then(|n| n.ring(MetricKind::CpuPercent).iter().next())
            .unwrap();
        assert_eq!(cpu.value, BOOT_CPU);
        // power-off marks and aggregate spans (no `node` field) carry
        // no per-host load
        s.ingest(&[
            TraceEvent::mark(500.0, POWER_TRACE_SOURCE, "power-off node 1")
                .with_field("node", 1u64),
            TraceEvent::span(600.0, POWER_TRACE_SOURCE, "boot 2 nodes", 90.0)
                .with_field("nodes", 2u64),
        ]);
        let cpu_samples = |host| {
            s.monitor()
                .node(host)
                .unwrap()
                .ring(MetricKind::CpuPercent)
                .len()
        };
        assert_eq!(cpu_samples("compute-0-1"), 2, "boot busy + idle only");
        assert_eq!(cpu_samples("compute-0-0"), 0);
    }

    #[test]
    fn analysis_marks_derive_no_node_load() {
        let mut s = sink();
        s.ingest(&[
            TraceEvent::mark(100.0, ANALYZE_TRACE_SOURCE, "critical-path")
                .with_field("segments", 3u64)
                .with_field("node", "compute-0-0")
                .with_field("terminal", "sched drain"),
            TraceEvent::mark(100.0, ANALYZE_TRACE_SOURCE, "lane sched"),
        ]);
        assert!(s
            .monitor()
            .node("compute-0-0")
            .map(|n| n.ring(MetricKind::CpuPercent).is_empty())
            .unwrap());
    }

    #[test]
    fn quarantine_notes_become_alerts() {
        let mut s = sink();
        s.note_quarantined(SimTime::from_secs(30), "compute-0-1");
        s.note_quarantined(SimTime::from_secs(31), "compute-0-1");
        assert_eq!(s.alerts().len(), 1);
        assert_eq!(s.alerts()[0].rule, "node-quarantined");
    }
}
