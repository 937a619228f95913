//! Property tests for the Yum solver: closure soundness (every Requires of
//! the solution satisfied post-transaction), priority shadowing, update
//! monotonicity, and agreement of [`Solver`] with a naive reference copy
//! (hashed priority filter, linear scans) on random repository sets.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use xcbc_rpm::{Arch, Dependency, Package, PackageBuilder, RpmDb};
use xcbc_yum::{Repository, Solution, SolveKind, SolveRequest, Solver, Yum, YumConfig};

/// Build a random dependency forest of `n` packages where package i may
/// require packages with smaller indices (guaranteeing solvability).
fn forest(n: usize, edges: &[(usize, usize)]) -> Repository {
    let mut repo = Repository::new("gen", "generated");
    for i in 0..n {
        let mut b = PackageBuilder::new(&format!("pkg{i}"), "1.0", "1");
        for (from, to) in edges {
            if *from == i && *to < i {
                b = b.requires_simple(&format!("pkg{to}"));
            }
        }
        repo.add_package(b.build());
    }
    repo
}

proptest! {
    /// After `yum install` of any target, the database verifies clean:
    /// every Requires satisfied, no conflicts.
    #[test]
    fn install_closure_is_sound(
        n in 1usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        target_seed in 0usize..20,
    ) {
        let repo = forest(n, &edges);
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);
        let mut db = RpmDb::new();
        let target = format!("pkg{}", target_seed % n);
        yum.install(&mut db, &[&target]).unwrap();
        prop_assert!(db.is_installed(&target));
        prop_assert!(db.verify().is_empty(), "db must verify clean: {:?}", db.verify());
    }

    /// Installing everything one at a time ends in the same package set as
    /// installing everything at once.
    #[test]
    fn batch_equals_incremental(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    ) {
        let repo = forest(n, &edges);

        let mut yum_a = Yum::new(YumConfig::default());
        yum_a.add_repository(repo.clone());
        let mut db_a = RpmDb::new();
        let names: Vec<String> = (0..n).map(|i| format!("pkg{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        yum_a.install(&mut db_a, &refs).unwrap();

        let mut yum_b = Yum::new(YumConfig::default());
        yum_b.add_repository(repo);
        let mut db_b = RpmDb::new();
        for name in &names {
            yum_b.install(&mut db_b, &[name]).unwrap();
        }

        prop_assert_eq!(db_a.names(), db_b.names());
    }

    /// With the priorities plugin on, a name carried by a
    /// higher-priority repo always wins regardless of version.
    #[test]
    fn priority_shadowing_total(vlow in 1u32..9, vhigh in 1u32..9) {
        let mut base = Repository::new("base", "base").with_priority(1);
        base.add_package(PackageBuilder::new("p", &format!("{vlow}.0"), "1").build());
        let mut addon = Repository::new("addon", "addon").with_priority(50);
        addon.add_package(PackageBuilder::new("p", &format!("{vhigh}.0"), "1").build());
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(base);
        yum.add_repository(addon);
        let mut db = RpmDb::new();
        yum.install(&mut db, &["p"]).unwrap();
        prop_assert_eq!(
            db.newest("p").unwrap().package.evr().version.clone(),
            format!("{vlow}.0")
        );
    }

    /// `yum update` never downgrades: post-update EVR >= pre-update EVR
    /// for every installed name.
    #[test]
    fn update_is_monotonic(versions in proptest::collection::vec(1u32..9, 1..8)) {
        let mut repo = Repository::new("r", "r");
        for (i, v) in versions.iter().enumerate() {
            repo.add_package(PackageBuilder::new(&format!("p{i}"), &format!("{v}.0"), "1").build());
        }
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);
        let mut db = RpmDb::new();
        for i in 0..versions.len() {
            db.install(PackageBuilder::new(&format!("p{i}"), "1.0", "0").build());
        }
        let before: Vec<_> = (0..versions.len())
            .map(|i| db.newest(&format!("p{i}")).unwrap().package.nevra.evr.clone())
            .collect();
        yum.update(&mut db, None).unwrap();
        for (i, was) in before.iter().enumerate() {
            let after = &db.newest(&format!("p{i}")).unwrap().package.nevra.evr;
            prop_assert!(after >= was);
        }
        // and a second update is a no-op
        let report = yum.update(&mut db, None).unwrap();
        prop_assert!(report.upgraded.is_empty());
    }
}

/// The reference view: every candidate the priorities plugin, the
/// enabled flags and the host architecture leave, found the simple way
/// (one hashed name → lowest priority map, every package looked up),
/// and a solver that scans the candidates linearly for every question.
struct Naive<'a> {
    candidates: Vec<(&'a Repository, &'a Arc<Package>)>,
    config: &'a YumConfig,
}

impl<'a> Naive<'a> {
    fn new(repos: &'a [Repository], config: &'a YumConfig) -> Naive<'a> {
        let enabled: Vec<&Repository> = repos.iter().filter(|r| r.enabled).collect();
        let mut best: HashMap<&str, u32> = HashMap::new();
        for repo in &enabled {
            for p in repo.packages() {
                let b = best.entry(p.name()).or_insert(repo.priority);
                *b = (*b).min(repo.priority);
            }
        }
        let mut candidates = Vec::new();
        for repo in &enabled {
            for p in repo.packages() {
                let shadowed = config.plugin_priorities && repo.priority > best[p.name()];
                if !shadowed && p.arch().installable_on(config.host_arch) {
                    candidates.push((*repo, p));
                }
            }
        }
        Naive { candidates, config }
    }

    fn better(
        &self,
        (ra, pa): (&Repository, &Package),
        (rb, pb): (&Repository, &Package),
    ) -> Ordering {
        let prio = if self.config.plugin_priorities {
            rb.priority.cmp(&ra.priority)
        } else {
            Ordering::Equal
        };
        let host = self.config.host_arch;
        prio.then_with(|| {
            pa.arch()
                .preference_on(host)
                .cmp(&pb.arch().preference_on(host))
        })
        .then_with(|| pa.nevra.evr.cmp(&pb.nevra.evr))
        .then_with(|| pb.name().cmp(pa.name()))
    }

    fn best_where(&self, keep: impl Fn(&Package) -> bool) -> Option<&'a Arc<Package>> {
        self.candidates
            .iter()
            .filter(|(_, p)| keep(p))
            .max_by(|a, b| self.better((a.0, a.1), (b.0, b.1)))
            .map(|(_, p)| *p)
    }

    fn best_by_name(&self, name: &str) -> Option<&'a Arc<Package>> {
        self.best_where(|p| p.name() == name)
            .or_else(|| self.best_where(|p| p.satisfies(&Dependency::any(name))))
    }

    /// The closure walk, step for step as yum's depsolve loop runs it.
    fn resolve(&self, db: &RpmDb, request: &SolveRequest) -> Result<Solution, String> {
        let req = request.normalized();
        let mut chosen: HashSet<&str> = HashSet::new();
        let mut queue: VecDeque<&'a Arc<Package>> = VecDeque::new();
        let mut enqueue = |p: &'a Arc<Package>, queue: &mut VecDeque<_>| {
            if chosen.insert(p.name()) {
                queue.push_back(p);
            }
        };
        if req.kind() == SolveKind::Install {
            for name in req.targets() {
                let p = self
                    .best_by_name(name)
                    .ok_or_else(|| format!("no package provides {name}"))?;
                let current = db
                    .newest(p.name())
                    .is_some_and(|ip| ip.package.nevra.evr >= p.nevra.evr);
                if !current {
                    enqueue(p, &mut queue);
                }
            }
        } else {
            let targets: Vec<String> = match req.kind() {
                SolveKind::UpdateAll => db.names().iter().map(|n| n.to_string()).collect(),
                _ => req.targets().to_vec(),
            };
            for name in &targets {
                let Some(installed) = db.newest(name) else {
                    continue;
                };
                if let Some(c) = self.best_by_name(name) {
                    if c.nevra.evr > installed.package.nevra.evr {
                        enqueue(c, &mut queue);
                    }
                }
                if self.config.obsoletes {
                    for (_, p) in &self.candidates {
                        if p.obsoletes_package(&installed.package) {
                            enqueue(p, &mut queue);
                        }
                    }
                }
            }
        }
        let mut solution = Solution::default();
        while let Some(pkg) = queue.pop_front() {
            for dep in &pkg.requires {
                let met = db.provides(dep)
                    || solution
                        .installs
                        .iter()
                        .chain(&solution.upgrades)
                        .any(|p| p.satisfies(dep))
                    || pkg.satisfies(dep)
                    || queue.iter().any(|p| p.satisfies(dep));
                if !met {
                    let p = self.best_where(|p| p.satisfies(dep)).ok_or_else(|| {
                        format!("no package provides {dep} (needed by {})", pkg.nevra)
                    })?;
                    enqueue(p, &mut queue);
                }
            }
            if db.is_installed(pkg.name()) {
                solution.upgrades.push(Arc::clone(pkg));
            } else {
                solution.installs.push(Arc::clone(pkg));
            }
        }
        Ok(solution)
    }
}

const NAMES: [&str; 8] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];

fn pick<'s, T>(rng: &mut StdRng, from: &'s [T]) -> &'s T {
    &from[rng.gen_range(0..from.len())]
}

/// One random package: a name shared across repositories, any of four
/// architectures, and Requires on plain names, versioned names,
/// capabilities and files, some of which nothing provides.
fn random_package(rng: &mut StdRng) -> Package {
    let name = *pick(rng, &NAMES);
    let version = rng.gen_range(1u32..5).to_string();
    let mut b = PackageBuilder::new(name, &version, &rng.gen_range(1u32..3).to_string()).arch(
        *pick(rng, &[Arch::X86_64, Arch::I686, Arch::Noarch, Arch::Src]),
    );
    if rng.gen_bool(0.5) {
        b = b.provides(Dependency::parse(&format!(
            "cap{} = {version}",
            rng.gen_range(0u32..3)
        )));
    }
    if rng.gen_bool(0.3) {
        b = b.file(format!("/usr/bin/{name}"));
    }
    for _ in 0..rng.gen_range(0usize..4) {
        let dep = match rng.gen_range(0u32..4) {
            0 => pick(rng, &NAMES).to_string(),
            1 => format!("{} >= {}", pick(rng, &NAMES), rng.gen_range(1u32..5)),
            2 => format!(
                "cap{} >= {}",
                rng.gen_range(0u32..3),
                rng.gen_range(1u32..5)
            ),
            _ => format!("/usr/bin/{}", pick(rng, &NAMES)),
        };
        b = b.requires_spec(&dep);
    }
    if rng.gen_bool(0.2) {
        let target = pick(rng, &NAMES);
        b = b.obsoletes(Dependency::parse(&format!(
            "{target} < {}",
            rng.gen_range(1u32..5)
        )));
    }
    b.build()
}

/// One to four repositories at equal or mixed priorities (some
/// disabled), an engine configuration, an installed database, and the
/// requests to resolve against them.
fn random_case(seed: u64) -> (Vec<Repository>, YumConfig, RpmDb, Vec<SolveRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let equal = rng.gen_bool(0.5);
    let shared = *pick(&mut rng, &[1u32, 50, 99]);
    let repos = (0..rng.gen_range(1usize..5))
        .map(|i| {
            let prio = if equal {
                shared
            } else {
                *pick(&mut rng, &[1u32, 10, 50, 99])
            };
            let mut repo = Repository::new(format!("r{i}"), "generated").with_priority(prio);
            repo.enabled = rng.gen_bool(0.85);
            for _ in 0..rng.gen_range(0usize..12) {
                repo.add_package(random_package(&mut rng));
            }
            repo
        })
        .collect();
    let config = YumConfig {
        plugin_priorities: rng.gen_bool(0.7),
        obsoletes: rng.gen_bool(0.7),
        ..YumConfig::default()
    };
    let mut db = RpmDb::new();
    for name in NAMES {
        if rng.gen_bool(0.3) {
            db.install(PackageBuilder::new(name, &rng.gen_range(1u32..4).to_string(), "0").build());
        }
    }
    let requests = (0..4)
        .map(|_| {
            let targets: Vec<&str> = (0..rng.gen_range(1usize..4))
                .map(|_| {
                    *pick(
                        &mut rng,
                        &[
                            "p0",
                            "p1",
                            "p2",
                            "p3",
                            "p4",
                            "p5",
                            "p6",
                            "p7",
                            "cap1",
                            "/usr/bin/p2",
                            "nosuch",
                        ],
                    )
                })
                .collect();
            match rng.gen_range(0u32..3) {
                0 => SolveRequest::install(targets),
                1 => SolveRequest::update(targets),
                _ => SolveRequest::update_all(),
            }
        })
        .collect();
    (repos, config, db, requests)
}

fn ptrs(packages: &[Arc<Package>]) -> Vec<*const Package> {
    packages.iter().map(Arc::as_ptr).collect()
}

fn show(result: &Result<Solution, String>) -> String {
    let nevras = |ps: &[Arc<Package>]| ps.iter().map(|p| p.nevra.to_string()).collect::<Vec<_>>();
    match result {
        Ok(s) => format!(
            "installs {:?} upgrades {:?}",
            nevras(&s.installs),
            nevras(&s.upgrades)
        ),
        Err(e) => e.clone(),
    }
}

/// `Solver` and the naive reference agree on one random case: the same
/// candidates in the same order, the same best package for every name,
/// and the same solution or error for every request.
fn solver_matches_reference(seed: u64) -> Result<(), String> {
    let (repos, config, db, requests) = random_case(seed);
    let solver = Solver::new(&repos, &config);
    let naive = Naive::new(&repos, &config);
    let same_candidates = solver.candidates().len() == naive.candidates.len()
        && solver
            .candidates()
            .iter()
            .zip(&naive.candidates)
            .all(|(a, b)| std::ptr::eq(a.0, b.0) && Arc::ptr_eq(a.1, b.1));
    if !same_candidates {
        let show = |c: &[(&Repository, &Arc<Package>)]| -> Vec<String> {
            c.iter()
                .map(|(r, p)| format!("{}:{}", r.id, p.nevra))
                .collect()
        };
        return Err(format!(
            "candidates {:?} != reference {:?}",
            show(solver.candidates()),
            show(&naive.candidates)
        ));
    }
    for name in NAMES
        .iter()
        .chain(&["cap0", "cap2", "/usr/bin/p5", "nosuch"])
    {
        let got = solver.best_by_name(name).map(|p| p as *const Package);
        let want = naive.best_by_name(name).map(Arc::as_ptr);
        if got != want {
            return Err(format!("best_by_name({name}) differs from the reference"));
        }
    }
    for request in &requests {
        let got = solver.resolve(&db, request).map_err(|e| e.to_string());
        let want = naive.resolve(&db, request);
        let same = match (&got, &want) {
            (Ok(a), Ok(b)) => {
                ptrs(&a.installs) == ptrs(&b.installs) && ptrs(&a.upgrades) == ptrs(&b.upgrades)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            return Err(format!(
                "{request:?}: {} != reference {}",
                show(&got),
                show(&want)
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The priority filter and the solver over it agree with the naive
    /// reference on random repository sets. The shim does not shrink,
    /// so a failure names the seed that rebuilds its case.
    #[test]
    fn solver_agrees_with_naive_reference(seed in any::<u64>()) {
        let outcome = solver_matches_reference(seed);
        prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
    }
}
