//! Dependency-solver scaling: install-closure resolution time vs
//! catalog size (the paper's `yum install` path), plus the real XNIT
//! catalog resolution and a before/after comparison of the borrowed
//! (current) vs cloning (pre-refactor) worklist.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{HashSet, VecDeque};
use xcbc_rpm::{Package, PackageBuilder, RpmDb};
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

    // Before/after pair for the worklist refactor: `resolve` carries
    // borrows of the repository's packages through the closure and
    // shares them into the Solution; the baseline below re-creates the old
    // clone-into-the-queue algorithm on the same public API. Compare
    // `solver/xnit_catalog_resolve` against
    // `solver/xnit_catalog_resolve_cloning_baseline`.
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

    c.bench_function("solver/xnit_catalog_resolve_cloning_baseline", |b| {
        let repos = vec![xcbc_core::xnit_repository()];
        let cfg = YumConfig::default();
        let solver = Solver::new(&repos, &cfg);
        let names: Vec<String> = xcbc_core::catalog::CATALOG
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let db = RpmDb::new();
        b.iter(|| cloning_resolve_install(&solver, &db, &refs).len())
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

/// The pre-refactor install closure: whole `Package` values (deep
/// Requires/Provides vectors included) cloned into the worklist and
/// again when checking satisfaction — kept here only as the
/// benchmark baseline.
fn cloning_resolve_install(solver: &Solver<'_>, db: &RpmDb, names: &[&str]) -> Vec<Package> {
    let mut solution: Vec<Package> = Vec::new();
    let mut chosen: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<(Package, String)> = VecDeque::new();

    for name in names {
        let p = solver.best_by_name(name).expect("catalog name resolves");
        if db
            .newest(p.name())
            .map(|ip| ip.package.nevra.evr >= p.nevra.evr)
            .unwrap_or(false)
        {
            continue;
        }
        if chosen.insert(p.name().to_string()) {
            queue.push_back((p.clone(), String::new()));
        }
    }
    while let Some((pkg, _via)) = queue.pop_front() {
        for req in pkg.requires.clone() {
            if db.provides(&req) {
                continue;
            }
            let in_solution = solution
                .iter()
                .chain(std::iter::once(&pkg))
                .chain(queue.iter().map(|(p, _)| p))
                .any(|p| p.satisfies(&req));
            if in_solution {
                continue;
            }
            let provider = solver.best_provider(&req).expect("catalog closes");
            if chosen.insert(provider.name().to_string()) {
                queue.push_back((provider.clone(), pkg.nevra.to_string()));
            }
        }
        solution.push(pkg);
    }
    solution
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
