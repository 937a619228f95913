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
//! Every derived sample also flows through the [`AlertEngine`], so
//! threshold alerts fire *at the simulated instant* the violation
//! happened, deterministically. Because the input trace is
//! byte-deterministic for a fixed seed, so is everything this sink
//! derives.

use crate::monitor::{Alert, AlertEngine, AlertRule, ClusterMonitor, MetricKind, MetricUpdate};
use crate::node::PowerState;
use crate::power::POWER_TRACE_SOURCE;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_sim::{FieldValue, SimTime, TraceEvent, TraceKind, ANALYZE_TRACE_SOURCE, BACKOFF_PREFIX};

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
    /// Scheduler node index `i` maps to host `{sched_host_prefix}{i}`.
    pub sched_host_prefix: String,
}

impl TelemetryConfig {
    /// A config for `frontend` plus `hosts`, with the stock Rocks
    /// compute naming (`compute-0-<i>`).
    pub fn new(frontend: impl Into<String>, hosts: Vec<String>) -> TelemetryConfig {
        TelemetryConfig {
            frontend: frontend.into(),
            hosts,
            sched_host_prefix: "compute-0-".to_string(),
        }
    }
}

/// One derived monitoring action, buffered so a batch of trace events
/// can publish under a single monitor lock while the alert engine
/// still sees every action in exact emission order.
#[derive(Debug)]
enum TelemetryOp {
    /// A sample for the gmetad rings *and* the alert engine.
    Sample(MetricUpdate),
    /// A direct alert raise (campaign failures and the like).
    Raise {
        t: SimTime,
        rule: &'static str,
        host: String,
    },
}

/// The last trace-analysis summary observed on the
/// [`ANALYZE_TRACE_SOURCE`] stream (the `critical-path` mark the
/// analyser emits), so dashboards can show what bounded the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisSummary {
    /// Links in the critical path.
    pub segments: u64,
    /// Busy seconds along the path.
    pub busy_s: f64,
    /// Blocked seconds along the path.
    pub blocked_s: f64,
    /// The span makespan the path telescopes to.
    pub makespan_s: f64,
    /// Label of the terminal (makespan-bounding) span, if any.
    pub terminal: Option<String>,
}

/// The event-driven gmond array: ingests trace slices and publishes
/// derived samples into a [`ClusterMonitor`] and evaluates alert rules
/// sample-by-sample.
#[derive(Debug)]
pub struct TelemetrySink {
    monitor: ClusterMonitor,
    engine: AlertEngine,
    config: TelemetryConfig,
    /// Power state per host, driven by `cluster.power` boot spans and
    /// power-off marks; hosts never power-managed stay [`PowerState::On`].
    power: BTreeMap<String, PowerState>,
    /// The last `trace.analyze` critical-path summary seen, if any.
    analysis: Option<AnalysisSummary>,
    /// The frontend hostname as a shared allocation: unattributable
    /// work resolves here on every event, so cloning must be a
    /// refcount bump, not a heap allocation.
    frontend: Arc<str>,
}

impl TelemetrySink {
    /// A sink publishing into `monitor` under `rules`. All configured
    /// hosts are registered immediately.
    pub fn new(monitor: ClusterMonitor, config: TelemetryConfig, rules: Vec<AlertRule>) -> Self {
        for h in &config.hosts {
            monitor.register(h);
        }
        monitor.register(&config.frontend);
        let frontend = Arc::from(config.frontend.as_str());
        TelemetrySink {
            monitor,
            engine: AlertEngine::with_rules(rules),
            config,
            power: BTreeMap::new(),
            analysis: None,
            frontend,
        }
    }

    /// The last critical-path summary seen on the `trace.analyze`
    /// stream, if the run's trace was analysed.
    pub fn analysis(&self) -> Option<&AnalysisSummary> {
        self.analysis.as_ref()
    }

    /// The power state of `host` as last reported on the trace. Hosts
    /// never touched by power management are assumed on.
    pub fn power_state(&self, host: &str) -> PowerState {
        self.power.get(host).copied().unwrap_or(PowerState::On)
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
        for host in self.monitor.absent_nodes(now, None) {
            self.engine.raise(now, "node-absent", &host, 1.0);
        }
    }

    /// Consume the sink, returning the monitor and the alert engine.
    pub fn into_parts(self) -> (ClusterMonitor, AlertEngine) {
        (self.monitor, self.engine)
    }

    /// Replay buffered ops: every sample lands in the gmetad under one
    /// [`publish_all`](ClusterMonitor::publish_all) lock acquisition,
    /// then the alert engine sees every op in exact derivation order —
    /// the same result as publishing and observing sample by sample,
    /// just without a lock round-trip per sample.
    fn apply(&mut self, ops: &[TelemetryOp]) {
        self.monitor
            .publish_all(ops.iter().filter_map(|op| match op {
                TelemetryOp::Sample(u) => Some(u),
                TelemetryOp::Raise { .. } => None,
            }));
        for op in ops {
            match op {
                TelemetryOp::Sample(u) => self.engine.observe(&u.host, u.kind, u.time, u.value),
                TelemetryOp::Raise { t, rule, host } => self.engine.raise(*t, rule, host, 1.0),
            }
        }
    }

    /// Resolve the host an event describes: an explicit `node` field
    /// wins; otherwise a `<host>:`-prefixed label is matched against
    /// the known hosts (with `frontend:` aliasing the configured
    /// frontend); everything else is the frontend's work. Returns a
    /// shared allocation so the event's derived samples can all point
    /// at one host string.
    fn resolve_host(&self, event: &TraceEvent) -> Arc<str> {
        if let Some(FieldValue::Str(node)) = field(event, "node") {
            return Arc::from(node.as_str());
        }
        if let Some((prefix, _)) = event.label.split_once(':') {
            if prefix == "frontend" {
                return Arc::clone(&self.frontend);
            }
            if self.config.hosts.iter().any(|h| h == prefix) {
                return Arc::from(prefix);
            }
        }
        Arc::clone(&self.frontend)
    }
}

fn field<'a>(event: &'a TraceEvent, key: &str) -> Option<&'a FieldValue> {
    event.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn field_u64(event: &TraceEvent, key: &str) -> Option<u64> {
    match field(event, key) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    }
}

fn field_f64(event: &TraceEvent, key: &str) -> Option<f64> {
    match field(event, key) {
        Some(FieldValue::F64(v)) => Some(*v),
        _ => None,
    }
}

fn sample(
    ops: &mut Vec<TelemetryOp>,
    host: &Arc<str>,
    kind: MetricKind,
    time: SimTime,
    value: f64,
) {
    ops.push(TelemetryOp::Sample(MetricUpdate {
        host: Arc::clone(host),
        kind,
        time,
        value,
    }));
}

/// Busy samples at span start, idle samples at span end.
fn busy_idle(
    ops: &mut Vec<TelemetryOp>,
    host: &Arc<str>,
    start: SimTime,
    end: SimTime,
    cpu: f64,
    load: f64,
    mem: Option<f64>,
) {
    sample(ops, host, MetricKind::CpuPercent, start, cpu);
    sample(ops, host, MetricKind::LoadOne, start, load);
    if let Some(mem) = mem {
        sample(ops, host, MetricKind::MemPercent, start, mem);
    }
    if end > start {
        sample(ops, host, MetricKind::CpuPercent, end, IDLE_CPU);
        sample(ops, host, MetricKind::LoadOne, end, IDLE_LOAD);
        if mem.is_some() {
            sample(ops, host, MetricKind::MemPercent, end, IDLE_MEM);
        }
    }
}

fn net_span(ops: &mut Vec<TelemetryOp>, host: &Arc<str>, start: SimTime, end: SimTime, bytes: u64) {
    let dur_s = end.since(start).as_secs_f64();
    let rate = if dur_s > 0.0 {
        bytes as f64 / dur_s
    } else {
        bytes as f64
    };
    sample(ops, host, MetricKind::NetBytesPerSec, start, rate);
    if end > start {
        sample(ops, host, MetricKind::NetBytesPerSec, end, 0.0);
    }
}

impl TelemetrySink {
    /// Convert one trace event into buffered monitoring ops and state
    /// updates.
    fn derive(&mut self, event: &TraceEvent, ops: &mut Vec<TelemetryOp>) {
        if event.source == "campaign" {
            // a node the campaign gave up on (retry budget exhausted)
            // raises an alert on the monitoring plane
            if let TraceKind::Mark = event.kind {
                if let Some(host) = event.label.strip_prefix("fail ") {
                    ops.push(TelemetryOp::Raise {
                        t: event.t,
                        rule: "campaign-node-failed",
                        host: host.to_string(),
                    });
                }
            }
            return;
        }
        if event.source == MEMBERSHIP_TRACE_SOURCE {
            if let TraceKind::Mark = event.kind {
                if let Some((verb, host)) = event.label.split_once(' ') {
                    match verb {
                        // A join is the member's first heartbeat: an
                        // idle sample registers it with the gmetad so
                        // the absence sweep sees it, without inventing
                        // load the node never carried.
                        "join" => {
                            let shared: Arc<str> = Arc::from(host);
                            sample(ops, &shared, MetricKind::CpuPercent, event.t, 0.0);
                            sample(ops, &shared, MetricKind::LoadOne, event.t, 0.0);
                            self.power.insert(host.to_string(), PowerState::On);
                        }
                        "leave" => {
                            self.power.insert(host.to_string(), PowerState::Off);
                        }
                        _ => {}
                    }
                }
            }
            return;
        }
        if event.source == ANALYZE_TRACE_SOURCE {
            // analysis summaries update dashboard state; they carry no
            // node load (the analyser ran on the operator's machine)
            if let TraceKind::Mark = event.kind {
                if event.label == "critical-path" {
                    let terminal = match field(event, "terminal") {
                        Some(FieldValue::Str(s)) => Some(s.clone()),
                        _ => None,
                    };
                    self.analysis = Some(AnalysisSummary {
                        segments: field_u64(event, "segments").unwrap_or(0),
                        busy_s: field_f64(event, "busy_s").unwrap_or(0.0),
                        blocked_s: field_f64(event, "blocked_s").unwrap_or(0.0),
                        makespan_s: field_f64(event, "makespan_s").unwrap_or(0.0),
                        terminal,
                    });
                }
            }
            return;
        }
        if event.source == POWER_TRACE_SOURCE {
            // `boot node N` spans and `power-off node N` marks carry a
            // numeric `node` field; aggregate `boot N nodes` spans and
            // `nodes-on` counters carry no per-host state.
            let Some(n) = field_u64(event, "node") else {
                return;
            };
            let host = format!("{}{n}", self.config.sched_host_prefix);
            match event.kind {
                TraceKind::Span { dur } => {
                    let shared: Arc<str> = Arc::from(host.as_str());
                    busy_idle(
                        ops,
                        &shared,
                        event.t,
                        event.t + dur,
                        BOOT_CPU,
                        INSTALL_LOAD,
                        None,
                    );
                    self.power.insert(host, PowerState::On);
                }
                TraceKind::Mark => {
                    self.power.insert(host, PowerState::Off);
                }
                TraceKind::Counter { .. } => {}
            }
            return;
        }
        let TraceKind::Span { dur } = event.kind else {
            return; // marks and counters carry no sustained node load
        };
        let (start, end) = (event.t, event.t + dur);
        match event.source.as_str() {
            "rocks.install" | "xnit.overlay" => {
                let host = self.resolve_host(event);
                if event.label.starts_with(BACKOFF_PREFIX) {
                    // retries thrash the node: CPU spike, no real work
                    busy_idle(ops, &host, start, end, BACKOFF_CPU, INSTALL_LOAD, None);
                } else {
                    busy_idle(
                        ops,
                        &host,
                        start,
                        end,
                        INSTALL_CPU,
                        INSTALL_LOAD,
                        Some(INSTALL_MEM),
                    );
                    if let Some(bytes) = field_u64(event, "bytes") {
                        net_span(ops, &host, start, end, bytes);
                    }
                }
            }
            "cluster.boot" => {
                let host = self.resolve_host(event);
                busy_idle(ops, &host, start, end, BOOT_CPU, INSTALL_LOAD, None);
            }
            "yum.mirror" => {
                let host = Arc::clone(&self.frontend);
                busy_idle(ops, &host, start, end, MIRROR_CPU, INSTALL_LOAD, None);
                if let Some(bytes) = field_u64(event, "bytes") {
                    net_span(ops, &host, start, end, bytes);
                }
            }
            "sched" => {
                let Some(FieldValue::Str(placement)) = field(event, "placement") else {
                    return; // reservations and marks: no node load
                };
                let hosts: Vec<Arc<str>> = placement
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|i| Arc::from(format!("{}{i}", self.config.sched_host_prefix)))
                    .collect();
                if hosts.is_empty() {
                    return;
                }
                let cores = field_u64(event, "cores").unwrap_or(hosts.len() as u64);
                let per_node_load = cores as f64 / hosts.len() as f64;
                for host in &hosts {
                    busy_idle(ops, host, start, end, JOB_CPU, per_node_load, None);
                }
            }
            _ => {}
        }
    }

    /// Ingest `events` in emission order: derive every event's samples
    /// and alerts and publish them.
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        // Chunked rather than all-at-once: each chunk's samples publish
        // under one monitor lock, while the op buffer stays small
        // enough to stay cache-resident and is reused across chunks
        // (an unbounded buffer for a large slice costs more in memory
        // traffic than the saved lock round-trips buy back).
        const CHUNK: usize = 256;
        let mut ops = Vec::new();
        for chunk in events.chunks(CHUNK) {
            ops.clear();
            for event in chunk {
                self.derive(event, &mut ops);
            }
            self.apply(&ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::default_alert_rules;

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
            .with_node("compute-0-0", |n| n.ring(MetricKind::CpuPercent).latest())
            .flatten()
            .unwrap();
        assert_eq!(cpu.value, IDLE_CPU, "span ended: node back to idle");
        assert_eq!(cpu.time, SimTime::from_secs(610));
        let net = m
            .with_node("compute-0-0", |n| n.ring(MetricKind::NetBytesPerSec).len())
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
            .with_node("littlefe", |n| !n.ring(MetricKind::CpuPercent).is_empty())
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
                .with_node(host, |n| n.ring(MetricKind::LoadOne).iter().next())
                .flatten()
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
            .with_node("compute-0-0", |n| n.ring(MetricKind::LoadOne).is_empty())
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
            .with_node("littlefe", |n| {
                n.ring(MetricKind::NetBytesPerSec).iter().next()
            })
            .flatten()
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
    fn power_events_drive_power_state_and_boot_load() {
        let mut s = sink();
        assert_eq!(s.power_state("compute-0-1"), PowerState::On);
        s.ingest(&[
            TraceEvent::span(100.0, POWER_TRACE_SOURCE, "boot node 1", 90.0)
                .with_field("node", 1u64),
        ]);
        assert_eq!(s.power_state("compute-0-1"), PowerState::On);
        // the boot span drives CPU on the booting node
        let cpu = s
            .monitor()
            .with_node("compute-0-1", |n| {
                n.ring(MetricKind::CpuPercent).iter().next()
            })
            .flatten()
            .unwrap();
        assert_eq!(cpu.value, BOOT_CPU);
        s.ingest(&[
            TraceEvent::mark(500.0, POWER_TRACE_SOURCE, "power-off node 1")
                .with_field("node", 1u64),
        ]);
        assert_eq!(s.power_state("compute-0-1"), PowerState::Off);
        // aggregate events (no `node` field) carry no per-host state
        s.ingest(&[
            TraceEvent::span(600.0, POWER_TRACE_SOURCE, "boot 2 nodes", 90.0)
                .with_field("nodes", 2u64),
        ]);
        assert_eq!(s.power_state("compute-0-0"), PowerState::On);
    }

    #[test]
    fn analysis_marks_update_summary_state() {
        let mut s = sink();
        assert!(s.analysis().is_none());
        s.ingest(&[
            TraceEvent::mark(100.0, ANALYZE_TRACE_SOURCE, "critical-path")
                .with_field("segments", 3u64)
                .with_field("busy_s", 80.0)
                .with_field("blocked_s", 20.0)
                .with_field("makespan_s", 100.0)
                .with_field("terminal", "sched drain"),
        ]);
        let a = s.analysis().unwrap();
        assert_eq!(a.segments, 3);
        assert_eq!(a.makespan_s, 100.0);
        assert_eq!(a.terminal.as_deref(), Some("sched drain"));
        // lane marks and unrelated labels don't clobber the summary
        s.ingest(&[TraceEvent::mark(100.0, ANALYZE_TRACE_SOURCE, "lane sched")]);
        assert_eq!(s.analysis().unwrap().segments, 3);
        // analysis marks derive no node load
        assert!(s
            .monitor()
            .with_node("compute-0-0", |n| n.ring(MetricKind::CpuPercent).is_empty())
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
