//! Dependency-solver scaling: install-closure resolution time vs
//! catalog size (the paper's `yum install` path), plus the real XNIT
//! catalog resolution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xcbc_rpm::{PackageBuilder, RpmDb};
use xcbc_yum::{Repository, SolveRequest, Solver, Yum, YumConfig};

/// Synthetic catalog: n packages, each requiring up to 3 earlier ones.
fn synthetic_repo(n: usize) -> Repository {
    let mut repo = Repository::new("gen", "generated");
    for i in 0..n {
        let mut b = PackageBuilder::new(&format!("pkg{i}"), "1.0", "1");
        for d in 1..=3usize {
            if i >= d * 7 {
                b = b.requires_simple(&format!("pkg{}", i - d * 7));
            }
        }
        repo.add_package(b.build());
    }
    repo
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/install_closure");
    for n in [100usize, 400, 1600] {
        let repo = synthetic_repo(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut yum = Yum::new(YumConfig::default());
            yum.add_repository(repo.clone());
            b.iter(|| {
                let mut db = RpmDb::new();
                yum.install(&mut db, &[&format!("pkg{}", n - 1)]).unwrap();
                db.len()
            })
        });
    }
    group.finish();

    c.bench_function("solver/xnit_full_gromacs", |b| {
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(xcbc_core::xnit_repository());
        b.iter(|| {
            let mut db = RpmDb::new();
            yum.install(&mut db, &["gromacs"]).unwrap();
            db.len()
        })
    });

    c.bench_function("solver/xnit_catalog_resolve", |b| {
        let repos = vec![xcbc_core::xnit_repository()];
        let cfg = YumConfig::default();
        let solver = Solver::new(&repos, &cfg);
        let names: Vec<String> = xcbc_core::catalog::CATALOG
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let request = SolveRequest::install(names);
        let db = RpmDb::new();
        b.iter(|| solver.resolve(&db, &request).unwrap().len())
    });

    c.bench_function("solver/xnit_everything", |b| {
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(xcbc_core::xnit_repository());
        let names: Vec<String> = xcbc_core::catalog::CATALOG
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b.iter(|| {
            let mut db = RpmDb::new();
            yum.install(&mut db, &refs).unwrap();
            db.len()
        })
    });
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
