//! Ganglia-substrate throughput: concurrent metric publishing,
//! cluster-wide aggregation, RRD consolidation, and trace-driven
//! telemetry ingest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xcbc_cluster::{
    default_alert_rules, ClusterMonitor, MetricKind, RrdConfig, TelemetryConfig, TelemetrySink,
};
use xcbc_sim::TraceEvent;

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/publish");
    for nodes in [6usize, 36, 220] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let m = ClusterMonitor::new(64);
            let names: Vec<String> = (0..nodes).map(|i| format!("compute-0-{i}")).collect();
            b.iter(|| {
                for (i, name) in names.iter().enumerate() {
                    m.publish(name, MetricKind::LoadOne, i as f64, 1.0);
                }
                m.cluster_mean(MetricKind::LoadOne)
            })
        });
    }
    group.finish();

    c.bench_function("monitor/dump_36_nodes", |b| {
        let m = ClusterMonitor::new(64);
        for i in 0..36 {
            for k in MetricKind::ALL {
                m.publish(&format!("compute-0-{i}"), k, 0.0, 1.0);
            }
        }
        b.iter(|| m.dump().len())
    });
}

/// 10k samples streamed into a node's full RRD layout (raw ring plus
/// AVERAGE and MAX tiers at 60 s steps): the per-sample consolidation
/// cost is what bounds gmetad's ingest rate.
fn bench_consolidation(c: &mut Criterion) {
    c.bench_function("monitor/consolidate_10k_samples", |b| {
        b.iter(|| {
            let m = ClusterMonitor::with_config(RrdConfig::default());
            m.register("compute-0-0");
            for i in 0..10_000u64 {
                m.publish(
                    "compute-0-0",
                    MetricKind::CpuPercent,
                    i as f64 * 1.5,
                    (i % 100) as f64,
                );
            }
            m.cluster_mean(MetricKind::CpuPercent)
        })
    });
}

/// 10k trace spans replayed through the full telemetry sink — host
/// resolution, busy/idle sample derivation, and alert-rule evaluation
/// per event — the `xcbc mon` ingest path end to end.
fn bench_telemetry_ingest(c: &mut Criterion) {
    let hosts: Vec<String> = (0..6).map(|i| format!("compute-0-{i}")).collect();
    let events: Vec<TraceEvent> = (0..10_000u64)
        .map(|i| {
            let host = &hosts[(i % 6) as usize];
            TraceEvent::span(
                i as f64 * 2.0,
                "rocks.install",
                format!("{host}: pxe + kickstart install"),
                1.5,
            )
            .with_field("node", host.clone())
            .with_field("bytes", 500u64 << 20)
        })
        .collect();
    c.bench_function("telemetry/ingest_10k_events", |b| {
        b.iter(|| {
            let monitor = ClusterMonitor::with_config(RrdConfig::default());
            let mut sink = TelemetrySink::new(
                monitor,
                TelemetryConfig::new("littlefe", hosts.clone()),
                default_alert_rules(),
            );
            sink.ingest(&events);
            sink.alerts().len()
        })
    });
}

criterion_group!(
    benches,
    bench_monitor,
    bench_consolidation,
    bench_telemetry_ingest
);
criterion_main!(benches);
