//! Property tests for the hardware substrate: power accounting, ring
//! buffers, trace-driven telemetry, and BOM arithmetic under randomized
//! inputs.

use proptest::prelude::*;
use xcbc_cluster::cost::Bom;
use xcbc_cluster::{
    default_alert_rules, Alert, ClusterMonitor, MetricKind, PowerManager, PowerPolicy,
    TelemetryConfig, TelemetrySink, MEMBERSHIP_TRACE_SOURCE, POWER_TRACE_SOURCE,
};
use xcbc_sim::{MetricRegistry, SimTime, TraceEvent, BACKOFF_PREFIX};

const HOSTS: [&str; 4] = ["compute-0-0", "compute-0-1", "compute-0-2", "compute-0-3"];

/// One trace event per `(shape, host, start s, duration s, x)` draw:
/// install, backoff, boot, power-boot, sched and mirror spans, plus
/// membership and campaign marks.
fn trace_event((shape, host, t, dur, x): (u8, usize, u64, u64, u64)) -> TraceEvent {
    let (t, dur) = (t as f64, dur as f64);
    // index 4 is a host outside the configured list: its work lands on
    // the frontend, and a join registers it
    let name = HOSTS.get(host).copied().unwrap_or("compute-0-9");
    match shape {
        0 => TraceEvent::span(t, "rocks.install", format!("{name}: kickstart"), dur)
            .with_field("bytes", x << 20),
        1 => TraceEvent::span(
            t,
            "xnit.overlay",
            format!("{BACKOFF_PREFIX}{name}: retries"),
            dur,
        ),
        2 => TraceEvent::span(t, "cluster.boot", format!("{name}: pxe"), dur),
        3 => TraceEvent::span(t, POWER_TRACE_SOURCE, format!("boot node {host}"), dur)
            .with_field("node", host as u64),
        4 => TraceEvent::span(t, "sched", "job mpi", dur)
            .with_field("cores", 2 * x + 1)
            .with_field("placement", format!("{host},{}", (host + 1) % 4)),
        5 => TraceEvent::span(t, "yum.mirror", "fetch http://mirror/rocks", dur)
            .with_field("bytes", x * 1000),
        6 => {
            let verb = ["join", "leave", "drain"][x as usize % 3];
            TraceEvent::mark(t, MEMBERSHIP_TRACE_SOURCE, format!("{verb} {name}"))
        }
        _ => {
            let verb = ["fail", "drain"][x as usize % 2];
            TraceEvent::mark(t, "campaign", format!("{verb} {name}"))
        }
    }
}

/// Everything an operator reads from a sink that ingested `slices` in
/// turn: the Ganglia XML, the Prometheus text, and the alert list.
fn telemetry_outputs(slices: &[&[TraceEvent]]) -> (String, String, Vec<Alert>) {
    let hosts = HOSTS.iter().map(|h| h.to_string()).collect();
    let mut sink = TelemetrySink::new(
        ClusterMonitor::new(8),
        TelemetryConfig::new("littlefe", hosts),
        default_alert_rules(),
    );
    for slice in slices {
        sink.ingest(slice);
    }
    let end = SimTime::from_secs(4200);
    sink.finish(end);
    let (monitor, engine) = sink.into_parts();
    let mut registry = MetricRegistry::new();
    monitor.register_into(&mut registry, &[("cluster", "littlefe")]);
    engine.register_into(&mut registry, &[("cluster", "littlefe")]);
    (
        monitor.ganglia_xml("littlefe", end),
        registry.render_prometheus(),
        engine.into_alerts(),
    )
}

proptest! {
    /// On-demand power never exceeds always-on for the same demand, and
    /// both deliver at least the scheduled window's service.
    #[test]
    fn on_demand_never_costs_more(
        demand in proptest::collection::vec(0u32..6, 1..24),
        hours in 1u32..200,
    ) {
        let cluster = xcbc_cluster::specs::littlefe_modified();
        let always = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&cluster, &demand, hours);
        let od = PowerManager::new(PowerPolicy::on_demand(60.0))
            .simulate(&cluster, &demand, hours);
        prop_assert!(od.energy_kwh <= always.energy_kwh + 1e-9);
        prop_assert!(always.service_fraction >= od.service_fraction - 1e-9);
        prop_assert!(od.energy_kwh >= 0.0);
    }

    /// Ring buffers never exceed capacity and always surface the newest
    /// sample.
    #[test]
    fn monitor_ring_caps_and_latest(
        values in proptest::collection::vec(0.0f64..100.0, 1..100),
        cap in 1usize..16,
    ) {
        let mut m = ClusterMonitor::new(cap);
        for (i, v) in values.iter().enumerate() {
            m.publish("n0", MetricKind::LoadOne, i as f64, *v);
        }
        // latest value wins regardless of capacity
        let mean = m.cluster_mean(MetricKind::LoadOne).unwrap();
        prop_assert!((mean - values[values.len() - 1]).abs() < 1e-12);
    }

    /// Ingesting a trace in one call or split at any event into two
    /// calls derives the same gmetad, exposition and alerts: samples go
    /// to the monitor and the alert rules one at a time, so nothing
    /// depends on where a slice ends.
    #[test]
    fn telemetry_ingest_is_split_invariant(
        draws in proptest::collection::vec((0u8..8, 0usize..5, 0u64..3600, 0u64..600, 0u64..8), 1..40),
    ) {
        let events: Vec<TraceEvent> = draws.into_iter().map(trace_event).collect();
        let whole = telemetry_outputs(&[&events]);
        for split in 0..=events.len() {
            let (head, tail) = events.split_at(split);
            let parts = telemetry_outputs(&[head, tail]);
            prop_assert_eq!(&whole.0, &parts.0);
            prop_assert_eq!(&whole.1, &parts.1);
            prop_assert_eq!(&whole.2, &parts.2);
        }
    }

    /// BOM totals are linear: scaling every quantity by k scales the
    /// total by k, and $/GFLOPS rounding is stable.
    #[test]
    fn bom_arithmetic(
        lines in proptest::collection::vec((1.0f64..500.0, 1u32..8), 1..8),
        k in 2u32..4,
    ) {
        let mut single = Bom::new("one");
        let mut scaled = Bom::new("k");
        for (i, (price, qty)) in lines.iter().enumerate() {
            single = single.line(format!("item{i}"), *price, *qty);
            scaled = scaled.line(format!("item{i}"), *price, *qty * k);
        }
        prop_assert!((scaled.total_usd() - single.total_usd() * k as f64).abs() < 1e-6);
        let gf = 100.0;
        prop_assert_eq!(
            single.usd_per_gflops_rounded(gf),
            (single.total_usd() / gf).round() as u32
        );
    }
}
