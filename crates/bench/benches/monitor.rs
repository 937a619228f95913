//! Ganglia-substrate throughput: metric publishing, cluster-wide
//! aggregation, the text dump, and trace-driven telemetry ingest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xcbc_cluster::{
    default_alert_rules, ClusterMonitor, MetricKind, TelemetryConfig, TelemetrySink,
};
use xcbc_sim::TraceEvent;

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/publish");
    for nodes in [6usize, 36, 220] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let mut m = ClusterMonitor::new(64);
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
        let mut m = ClusterMonitor::new(64);
        for i in 0..36 {
            for k in MetricKind::ALL {
                m.publish(&format!("compute-0-{i}"), k, 0.0, 1.0);
            }
        }
        b.iter(|| m.dump().len())
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
            let mut sink = TelemetrySink::new(
                ClusterMonitor::new(64),
                TelemetryConfig::new("littlefe", hosts.clone()),
                default_alert_rules(),
            );
            sink.ingest(&events);
            sink.alerts().len()
        })
    });
}

criterion_group!(benches, bench_monitor, bench_telemetry_ingest);
criterion_main!(benches);
