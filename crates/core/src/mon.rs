//! The `xcbc mon` telemetry pipeline: trace → gmond → gmetad → alerts
//! → exposition.
//!
//! [`monitor_run`] replays a finished [`DayOneRun`]'s merged trace
//! through the event-driven gmond array
//! ([`TelemetrySink`]) and a per-source
//! span-latency [`HistogramSink`], evaluates the stock alert rules
//! sample-by-sample on the shared clock, folds in the fault layer's
//! quarantine verdicts, and registers everything — node gauges,
//! heartbeats, alert totals, latency histograms, solve-cache counters,
//! scheduler workload metrics — into one [`MetricRegistry`].
//!
//! The result renders four ways, all byte-deterministic for a fixed
//! seed: a Ganglia-faithful XML dump, Prometheus text exposition, the
//! raw JSONL timeline (now including the fired `mon.alert` events), and
//! a terminal dashboard with sparkline rings.

use crate::scenario::DayOneRun;
use xcbc_cluster::{Alert, AlertRule, ClusterMonitor, MetricKind, TelemetryConfig, TelemetrySink};
use xcbc_sim::{
    analyze, events_to_jsonl, Analysis, FlightRecorder, HistogramSink, MetricRegistry, SimTime,
    TraceEvent, FLIGHT_RECORDER_CAPACITY,
};

/// Everything the telemetry pipeline derived from one run.
#[derive(Debug)]
pub struct MonReport {
    /// Scenario name (doubles as the Ganglia cluster name).
    pub scenario: String,
    /// The fault-plan seed the run replayed under.
    pub seed: u64,
    /// The site gmetad: every node's last 64 samples per metric.
    pub monitor: ClusterMonitor,
    /// Alerts fired during the replay, in firing order.
    pub alerts: Vec<Alert>,
    /// Per-source span latency histograms.
    pub histograms: HistogramSink,
    /// The registry every layer exported into.
    pub registry: MetricRegistry,
    /// The merged timeline, now including the fired `mon.alert` events
    /// and the analyser's `trace.analyze` summary marks.
    pub events: Vec<TraceEvent>,
    /// Causal analysis of the run's trace (critical path, lanes).
    pub analysis: Analysis,
    /// The bounded last-N-events recorder, with overflow counters.
    pub flight: FlightRecorder,
    /// The instant the run ended.
    pub end: SimTime,
}

/// Run the full telemetry pipeline over a finished day-one replay,
/// evaluating `rules` (pass [`xcbc_cluster::default_alert_rules`] for
/// the stock set).
pub fn monitor_run(run: &DayOneRun, rules: Vec<AlertRule>) -> MonReport {
    let end = run.end();
    let mut telemetry = TelemetrySink::new(
        ClusterMonitor::new(64),
        TelemetryConfig::new(run.frontend.clone(), run.hosts.clone()),
        rules,
    );
    telemetry.ingest(&run.events);
    let histograms = HistogramSink::from_events(&run.events);

    // causal analysis of the same trace; its summary marks join the
    // timeline
    let analysis = analyze(&run.events);
    let marks = analysis.analysis_marks();
    let flight = FlightRecorder::from_events(FLIGHT_RECORDER_CAPACITY, &run.events);

    for (node, _reason) in &run.quarantined {
        telemetry.note_quarantined(end, node);
    }
    telemetry.finish(end);
    let (monitor, engine) = telemetry.into_parts();

    let mut registry = MetricRegistry::new();
    let base: &[(&str, &str)] = &[("cluster", &run.scenario)];
    monitor.register_into(&mut registry, base);
    engine.register_into(&mut registry, base);
    histograms.register_into(&mut registry);
    run.solve_cache.register_metrics(&mut registry);
    run.sched_metrics.register_into(&mut registry);
    analysis.register_into(&mut registry);
    flight.register_into(&mut registry);

    let mut events = run.events.clone();
    events.extend(engine.events());
    events.extend(marks);
    events.sort_by_key(|e| e.t);

    MonReport {
        scenario: run.scenario.clone(),
        seed: run.seed,
        monitor,
        alerts: engine.into_alerts(),
        histograms,
        registry,
        events,
        analysis,
        flight,
        end,
    }
}

impl MonReport {
    /// Prometheus text exposition of the whole registry.
    pub fn prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Ganglia-faithful gmetad XML dump.
    pub fn ganglia_xml(&self) -> String {
        self.monitor.ganglia_xml(&self.scenario, self.end)
    }

    /// The merged timeline (alerts included) as deterministic JSONL.
    pub fn jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// The terminal dashboard: per-node sparkline rings, the alert log,
    /// and the span-latency table.
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== xcbc mon: {} (fault plan seed {}) ==\n",
            self.scenario, self.seed
        ));
        out.push_str(&format!(
            "{} hosts, {} events, ended at {}\n",
            self.monitor.hosts().len(),
            self.events.len(),
            self.end
        ));
        let path = &self.analysis.path;
        if let Some(terminal) = path.segments.last() {
            out.push_str(&format!(
                "critical path: {} segment(s), busy {}s + blocked {}s = makespan {}s, bounded by {}\n",
                path.segments.len(),
                xcbc_sim::analyze::fmt_secs(path.busy()),
                xcbc_sim::analyze::fmt_secs(path.blocked()),
                xcbc_sim::analyze::fmt_secs(self.analysis.makespan),
                terminal.label
            ));
        }
        out.push_str(&format!(
            "flight recorder: {} of {} event(s) retained ({} dropped)\n\n",
            self.flight.len(),
            self.flight.seen(),
            self.flight.dropped()
        ));

        out.push_str(&format!(
            "{:<13} {:<18} {:<18} {:<18} {:>10}\n",
            "host", "cpu%", "load1", "net B/s", "last seen"
        ));
        for host in self.monitor.hosts() {
            let Some(n) = self.monitor.node(&host) else {
                continue;
            };
            let seen = match n.last_seen() {
                Some(t) => t.to_string(),
                None => "never".to_string(),
            };
            out.push_str(&format!(
                "{:<13} {:<18} {:<18} {:<18} {:>10}\n",
                n.hostname,
                sparkline(n.ring(MetricKind::CpuPercent).iter().map(|s| s.value)),
                sparkline(n.ring(MetricKind::LoadOne).iter().map(|s| s.value)),
                sparkline(n.ring(MetricKind::NetBytesPerSec).iter().map(|s| s.value)),
                seen
            ));
        }

        out.push_str(&format!("\nalerts ({}):\n", self.alerts.len()));
        if self.alerts.is_empty() {
            out.push_str("  (none fired)\n");
        }
        for alert in &self.alerts {
            out.push_str(&format!("  {}\n", alert.render()));
        }

        out.push_str(&format!(
            "\n{:<16} {:>7} {:>10} {:>10} {:>10}\n",
            "span latency", "count", "p50 (s)", "p95 (s)", "p99 (s)"
        ));
        for (source, hist) in self.histograms.sources() {
            out.push_str(&format!(
                "{:<16} {:>7} {:>10} {:>10} {:>10}\n",
                source,
                hist.count(),
                quantile_cell(hist.p50()),
                quantile_cell(hist.p95()),
                quantile_cell(hist.p99()),
            ));
        }
        out
    }
}

fn quantile_cell(q: Option<f64>) -> String {
    match q {
        Some(v) if v.is_finite() => format!("{v}"),
        Some(_) => "+Inf".to_string(),
        None => "-".to_string(),
    }
}

/// Render samples as a fixed-alphabet sparkline (oldest → newest),
/// normalised to the window's own max. Empty rings render as `-`.
pub fn sparkline(values: impl Iterator<Item = f64>) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let vals: Vec<f64> = values.collect();
    if vals.is_empty() {
        return "-".to_string();
    }
    let max = vals.iter().cloned().fold(0.0_f64, f64::max);
    vals.iter()
        .map(|v| {
            if max <= 0.0 {
                LEVELS[0]
            } else {
                let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::littlefe_day_one;
    use xcbc_cluster::default_alert_rules;
    use xcbc_fault::FaultPlan;

    fn mon(seed: u64) -> MonReport {
        let run = littlefe_day_one(&FaultPlan::new(seed)).unwrap();
        monitor_run(&run, default_alert_rules())
    }

    #[test]
    fn clean_run_exposition_has_all_families() {
        let report = mon(42);
        let prom = report.prometheus();
        for needle in [
            "xcbc_node_cpu_percent",
            "xcbc_node_heartbeat_seconds",
            "xcbc_span_seconds_bucket",
            "xcbc_solvecache_hits_total 4",
            "xcbc_sched_jobs_finished_total",
            "xcbc_alerts_fired_total",
        ] {
            assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
        }
    }

    #[test]
    fn exposition_is_byte_deterministic() {
        let a = mon(42);
        let b = mon(42);
        assert_eq!(a.prometheus(), b.prometheus());
        assert_eq!(a.ganglia_xml(), b.ganglia_xml());
        assert_eq!(a.jsonl(), b.jsonl());
        assert_eq!(a.dashboard(), b.dashboard());
    }

    #[test]
    fn faulty_run_fires_alerts_and_marks_absences() {
        let run =
            littlefe_day_one(&FaultPlan::parse("seed=11; node.boot key=compute-0-2").unwrap())
                .unwrap();
        let report = monitor_run(&run, default_alert_rules());
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == "node-quarantined" && a.host == "compute-0-2"),
            "{:?}",
            report.alerts
        );
        assert!(
            report.events.iter().any(|e| e.source == "mon.alert"),
            "alerts land back on the timeline"
        );
        let dash = report.dashboard();
        assert!(dash.contains("node-quarantined"), "{dash}");
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(std::iter::empty()), "-");
        assert_eq!(sparkline([0.0, 0.0].into_iter()), "▁▁");
        let line = sparkline([1.0, 4.0, 8.0].into_iter());
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
    }
}
