//! Sustained solve throughput of the xcbcd engine under cold and warm
//! cache mixes.
//!
//! Both mixes are pure solve streams of the same length over the same
//! four tenants, so the fixed per-request cost (admission, journaling,
//! ledger, digests) is identical. `sustained_qps_cold` gives every
//! request a distinct target window, so each solve falls through to the
//! real solver; `sustained_qps_warm` cycles a four-request repertoire
//! per tenant, so after the first pass nearly every solve is answered
//! from the tenant's salted shard. The cold/warm QPS gap recorded in
//! BENCH_pr10.json is the acceptance evidence that the sharded
//! cache actually carries the multi-tenant load (warm
//! QPS must be ≥ 5× cold).

use criterion::{criterion_group, criterion_main, Criterion};
use xcbc_core::xnit_repository;
use xcbc_svc::{serve, tenant_names, QuotaTable, SvcConfig, SvcOp, SvcRequest, TenantQuota};
use xcbc_yum::SolveRequest;

const REQUESTS: usize = 96;
const TENANTS: usize = 4;

/// A pure solve stream: request `i` goes to tenant `i % TENANTS` and
/// installs a 4-package window starting at `window(i)`. Distinct
/// windows give distinct cache keys; repeated windows hit the shard.
fn solve_stream(window: impl Fn(usize) -> usize) -> Vec<SvcRequest> {
    let names: Vec<String> = xnit_repository()
        .packages()
        .iter()
        .map(|p| p.nevra.name.clone())
        .collect();
    let tenants = tenant_names(TENANTS);
    (0..REQUESTS)
        .map(|i| {
            let w = window(i);
            let targets: Vec<&str> = (0..4)
                .map(|k| names[(w + k) % names.len()].as_str())
                .collect();
            SvcRequest {
                tenant: tenants[i % TENANTS].clone(),
                tick: i as u64,
                seed: i as u64,
                op: SvcOp::Solve(SolveRequest::install(targets)),
            }
        })
        .collect()
}

fn open_config() -> SvcConfig {
    let mut quotas = QuotaTable::new();
    for tenant in tenant_names(TENANTS) {
        quotas.set(tenant, TenantQuota::new(REQUESTS as u32, REQUESTS as u32));
    }
    SvcConfig {
        workers: 2,
        queue_limit: REQUESTS,
        quotas,
        ..SvcConfig::default()
    }
}

fn bench_svc(c: &mut Criterion) {
    let config = open_config();
    // Every request gets its own target window: all misses.
    let cold = solve_stream(|i| i);
    // Each tenant re-asks its one steady-state request: after the first
    // pass every solve is a shard hit.
    let warm = solve_stream(|_| 0);

    let mut group = c.benchmark_group("svc");
    group.bench_function("sustained_qps_cold", |b| {
        b.iter(|| {
            let report = serve(&cold, &config);
            let totals = report.cache_totals();
            assert_eq!(report.accepted as usize, REQUESTS);
            assert_eq!(totals.hits, 0, "cold mix must not hit");
            totals.misses
        })
    });
    group.bench_function("sustained_qps_warm", |b| {
        b.iter(|| {
            let report = serve(&warm, &config);
            let totals = report.cache_totals();
            assert_eq!(report.accepted as usize, REQUESTS);
            assert!(totals.hits > totals.misses * 4, "warm mix must hit");
            totals.hits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_svc);
criterion_main!(benches);
