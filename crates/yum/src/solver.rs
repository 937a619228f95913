//! The dependency solver — yum's depsolve loop.
//!
//! Given a set of enabled repositories and an installed-package database,
//! computes the transitive closure of Requires for an install or update
//! request, choosing the *best candidate* for each unsatisfied capability
//! the way yum does: higher-priority repository first (when the
//! priorities plugin is active), then architecture preference, then
//! highest EVR, then lexicographically smallest name for determinism.
//!
//! Requests are described by the typed [`SolveRequest`] builder — one
//! vocabulary shared by the install path, the update path, and the
//! fleet-scale [`crate::SolveCache`]'s key normalization —
//! and [`Solver::resolve`] is the one entry point.

use crate::fingerprint::Fnv64;
use crate::priorities;
use crate::repo::Repository;
use crate::YumConfig;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use xcbc_rpm::{Dependency, Package, RpmDb, TransactionError, TransactionSet};

/// Why a resolution failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// No enabled repository carries anything satisfying `what`.
    NothingProvides {
        /// The unsatisfied name or capability.
        what: String,
        /// The package whose Requires chain led here (empty for a direct
        /// user request).
        needed_by: String,
    },
    /// The resolved set failed the transaction check (conflicts, file
    /// conflicts, ...).
    Transaction(TransactionError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NothingProvides { what, needed_by } if needed_by.is_empty() => {
                write!(f, "no package provides {what}")
            }
            SolveError::NothingProvides { what, needed_by } => {
                write!(f, "no package provides {what} (needed by {needed_by})")
            }
            SolveError::Transaction(e) => write!(f, "transaction check failed: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// What a [`SolveRequest`] asks the solver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// `yum install <targets>`: pull the targets plus their closure.
    Install,
    /// `yum update <targets>`: update the named installed packages.
    Update,
    /// `yum update` with no names: update everything installed.
    UpdateAll,
}

impl SolveKind {
    fn tag(self) -> u64 {
        match self {
            SolveKind::Install => 1,
            SolveKind::Update => 2,
            SolveKind::UpdateAll => 3,
        }
    }
}

/// A typed depsolve request: what operation, against which targets.
///
/// One builder the install and update paths share, which also gives
/// the solve cache a canonical value to normalize into a key
/// ([`SolveRequest::digest`]).
///
/// ```
/// use xcbc_yum::{SolveRequest, SolveKind};
///
/// let req = SolveRequest::install(["gromacs", "R"]).with_target("hdf5");
/// assert_eq!(req.kind(), SolveKind::Install);
/// assert_eq!(req.targets(), ["gromacs", "R", "hdf5"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveRequest {
    kind: SolveKind,
    targets: Vec<String>,
}

impl SolveRequest {
    /// An install request for the given package names.
    pub fn install<I, S>(targets: I) -> SolveRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SolveRequest {
            kind: SolveKind::Install,
            targets: targets.into_iter().map(Into::into).collect(),
        }
    }

    /// An update request limited to the given package names.
    pub fn update<I, S>(targets: I) -> SolveRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SolveRequest {
            kind: SolveKind::Update,
            targets: targets.into_iter().map(Into::into).collect(),
        }
    }

    /// An update-everything request (`yum update` with no arguments).
    pub fn update_all() -> SolveRequest {
        SolveRequest {
            kind: SolveKind::UpdateAll,
            targets: Vec::new(),
        }
    }

    /// Append one more target (builder style).
    pub fn with_target(mut self, name: impl Into<String>) -> SolveRequest {
        self.targets.push(name.into());
        self
    }

    /// The requested operation.
    pub fn kind(&self) -> SolveKind {
        self.kind
    }

    /// The requested target names, in request order.
    pub fn targets(&self) -> &[String] {
        &self.targets
    }

    /// The canonical form the solve cache keys on: duplicate targets
    /// collapse to their first occurrence (the solver's `chosen` set
    /// makes repeats no-ops, so the solution is unchanged), and an
    /// `UpdateAll` drops targets entirely.
    pub fn normalized(&self) -> SolveRequest {
        let mut seen = HashSet::new();
        let targets = if self.kind == SolveKind::UpdateAll {
            Vec::new()
        } else {
            self.targets
                .iter()
                .filter(|t| seen.insert(t.as_str()))
                .cloned()
                .collect()
        };
        SolveRequest {
            kind: self.kind,
            targets,
        }
    }

    /// Stable 64-bit digest of the normalized request — the request
    /// component of a [`crate::SolveCache`] key.
    pub fn digest(&self) -> u64 {
        let norm = self.normalized();
        let mut h = Fnv64::new();
        h.write_u64(norm.kind.tag());
        // a zero word where requests once carried an arch filter, so
        // cache keys and journal digests keep their values
        h.write_u64(0);
        for t in &norm.targets {
            h.write_str(t);
        }
        h.finish()
    }
}

/// A resolved set of operations, ready to become a transaction.
///
/// Packages are the repository's own [`Arc`]s, so neither a solve, nor
/// a cached solution shared across fleet sites (and across threads),
/// nor the transaction and database it is committed to deep-clones the
/// Requires/Provides payloads.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// Packages to newly install, in closure-discovery order.
    pub installs: Vec<Arc<Package>>,
    /// Packages upgrading an installed instance.
    pub upgrades: Vec<Arc<Package>>,
}

impl Solution {
    /// Is there nothing to do?
    pub fn is_empty(&self) -> bool {
        self.installs.is_empty() && self.upgrades.is_empty()
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.installs.len() + self.upgrades.len()
    }

    /// Convert into a checked-later [`TransactionSet`]. The transaction
    /// (and the database it commits to) shares the solution's packages.
    pub fn into_transaction(self) -> TransactionSet {
        let mut tx = TransactionSet::new();
        for p in self.upgrades {
            tx.add_upgrade(p);
        }
        for p in self.installs {
            tx.add_install(p);
        }
        tx
    }
}

/// In-progress closure state shared by the install and update walks.
struct Walk<'a> {
    installs: Vec<&'a Arc<Package>>,
    upgrades: Vec<&'a Arc<Package>>,
    chosen: HashSet<&'a str>, // names already in solution
    queue: VecDeque<&'a Arc<Package>>,
}

impl<'a> Walk<'a> {
    fn new() -> Self {
        Walk {
            installs: Vec::new(),
            upgrades: Vec::new(),
            chosen: HashSet::new(),
            queue: VecDeque::new(),
        }
    }

    fn enqueue(&mut self, p: &'a Arc<Package>) {
        if self.chosen.insert(p.name()) {
            self.queue.push_back(p);
        }
    }

    fn into_solution(self) -> Solution {
        debug_assert!(self.queue.is_empty());
        Solution {
            installs: self.installs.into_iter().map(Arc::clone).collect(),
            upgrades: self.upgrades.into_iter().map(Arc::clone).collect(),
        }
    }
}

/// A solver view over a repository set: the repositories and engine
/// configuration it was built from, plus the candidates they leave
/// visible. Building it is the expensive part of a solve, so a caller
/// whose repositories do not change builds one and resolves every
/// request against it.
pub struct Solver<'a> {
    repos: &'a [Repository],
    config: &'a YumConfig,
    /// (repo, package) pairs surviving the enabled, priority and
    /// architecture filters, in repository order.
    candidates: Vec<(&'a Repository, &'a Arc<Package>)>,
}

impl<'a> Solver<'a> {
    pub fn new(repos: &'a [Repository], config: &'a YumConfig) -> Self {
        Solver {
            repos,
            config,
            candidates: priorities::candidates(repos, config),
        }
    }

    /// The repositories this view was built from.
    pub(crate) fn repos(&self) -> &'a [Repository] {
        self.repos
    }

    /// The engine configuration this view was built from.
    pub(crate) fn config(&self) -> &'a YumConfig {
        self.config
    }

    /// Every visible `(repo, package)` candidate, in repository order
    /// (the order ties between equally good candidates break in).
    pub fn candidates(&self) -> &[(&'a Repository, &'a Arc<Package>)] {
        &self.candidates
    }

    /// Candidate ordering: priority (lower number wins, only when the
    /// plugin is active) → arch preference → EVR → name.
    fn better(
        &self,
        (ra, pa): (&'a Repository, &'a Arc<Package>),
        (rb, pb): (&'a Repository, &'a Arc<Package>),
    ) -> std::cmp::Ordering {
        let prio = if self.config.plugin_priorities {
            rb.priority.cmp(&ra.priority) // lower priority value = better
        } else {
            std::cmp::Ordering::Equal
        };
        prio.then_with(|| {
            pa.arch()
                .preference_on(self.config.host_arch)
                .cmp(&pb.arch().preference_on(self.config.host_arch))
        })
        .then_with(|| pa.nevra.evr.cmp(&pb.nevra.evr))
        .then_with(|| pb.name().cmp(pa.name())) // smaller name wins
    }

    fn visible(&self) -> impl Iterator<Item = (&'a Repository, &'a Arc<Package>)> + '_ {
        self.candidates.iter().copied()
    }

    /// Best visible candidate satisfying `req`.
    fn best_provider(&self, req: &Dependency) -> Option<&'a Arc<Package>> {
        self.visible()
            .filter(|(_, p)| p.satisfies(req))
            .max_by(|a, b| self.better(*a, *b))
            .map(|(_, p)| p)
    }

    fn best_named(&self, name: &str) -> Option<&'a Arc<Package>> {
        self.visible()
            .filter(|(_, p)| p.name() == name)
            .max_by(|a, b| self.better(*a, *b))
            .map(|(_, p)| p)
            .or_else(|| self.best_provider(&Dependency::any(name)))
    }

    /// Best visible candidate *by package name* (for direct requests and
    /// update targets). A name request matches real names first; if no
    /// package has that name, yum falls back to `whatprovides`.
    pub fn best_by_name(&self, name: &str) -> Option<&'a Package> {
        self.best_named(name).map(|p| &**p)
    }

    /// Resolve a typed [`SolveRequest`] against `db`.
    ///
    /// The worklist and in-progress solution borrow the repository
    /// candidates, and the returned [`Solution`] shares their `Arc`s:
    /// no package (whose Requires/Provides vectors make cloning
    /// expensive) is copied.
    pub fn resolve(&self, db: &RpmDb, request: &SolveRequest) -> Result<Solution, SolveError> {
        xcbc_sim::self_profiler().time(xcbc_sim::SECTION_DEPSOLVE, || {
            let req = request.normalized();
            let mut walk = Walk::new();
            match req.kind {
                SolveKind::Install => self.seed_install(db, &req, &mut walk)?,
                SolveKind::Update | SolveKind::UpdateAll => self.seed_update(db, &req, &mut walk),
            }
            self.drain(db, &mut walk)?;
            Ok(walk.into_solution())
        })
    }

    /// Seed the walk for `yum install <names...>`.
    fn seed_install(
        &self,
        db: &RpmDb,
        req: &SolveRequest,
        walk: &mut Walk<'a>,
    ) -> Result<(), SolveError> {
        for name in req.targets() {
            let p = self
                .best_named(name)
                .ok_or_else(|| SolveError::NothingProvides {
                    what: name.to_string(),
                    needed_by: String::new(),
                })?;
            if db
                .newest(p.name())
                .map(|ip| ip.package.nevra.evr >= p.nevra.evr)
                .unwrap_or(false)
            {
                // already installed at same-or-newer: yum prints
                // "Nothing to do" for this name
                continue;
            }
            walk.enqueue(p);
        }
        Ok(())
    }

    /// Seed the walk for `yum update [names...]`: the newest visible
    /// candidate for every installed (or listed) name that has one,
    /// plus obsoletes processing when `obsoletes=1`.
    fn seed_update(&self, db: &RpmDb, req: &SolveRequest, walk: &mut Walk<'a>) {
        let targets: Vec<String> = match req.kind() {
            SolveKind::UpdateAll => db.names().iter().map(|s| s.to_string()).collect(),
            _ => req.targets().to_vec(),
        };
        for name in &targets {
            let installed = match db.newest(name) {
                Some(ip) => ip,
                None => continue, // yum update of a not-installed name is a no-op
            };
            if let Some(candidate) = self.best_named(name) {
                if candidate.nevra.evr > installed.package.nevra.evr {
                    walk.enqueue(candidate);
                }
            }
            // obsoletes processing: a visible package obsoleting this
            // installed one replaces it (yum's `obsoletes=1`)
            if self.config.obsoletes {
                for (_, p) in self.visible() {
                    if p.obsoletes_package(&installed.package) {
                        walk.enqueue(p);
                    }
                }
            }
        }
    }

    /// The shared closure loop: pop work, satisfy each Requires from the
    /// db, the in-progress solution, or the best visible provider.
    fn drain(&self, db: &RpmDb, walk: &mut Walk<'a>) -> Result<(), SolveError> {
        while let Some(pkg) = walk.queue.pop_front() {
            for req in &pkg.requires {
                // satisfied by the db?
                if db.provides(req) {
                    continue;
                }
                // satisfied by something already chosen?
                let in_solution = walk
                    .installs
                    .iter()
                    .chain(walk.upgrades.iter())
                    .chain(std::iter::once(&pkg))
                    .chain(walk.queue.iter())
                    .any(|p| p.satisfies(req));
                if in_solution {
                    continue;
                }
                let provider =
                    self.best_provider(req)
                        .ok_or_else(|| SolveError::NothingProvides {
                            what: req.to_string(),
                            needed_by: pkg.nevra.to_string(),
                        })?;
                walk.enqueue(provider);
            }
            // upgrade when an older instance is installed, install otherwise
            if db.is_installed(pkg.name()) {
                walk.upgrades.push(pkg);
            } else {
                walk.installs.push(pkg);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::{Arch, PackageBuilder};

    fn config() -> YumConfig {
        YumConfig::default()
    }

    fn one_repo(pkgs: Vec<Package>) -> Vec<Repository> {
        let mut r = Repository::new("test", "test repo");
        r.add_packages(pkgs);
        vec![r]
    }

    #[test]
    fn closure_resolves_chain() {
        let repos = one_repo(vec![
            PackageBuilder::new("trinity", "r2013", "1")
                .requires_simple("bowtie")
                .build(),
            PackageBuilder::new("bowtie", "1.0.0", "1")
                .requires_simple("samtools")
                .build(),
            PackageBuilder::new("samtools", "0.1.19", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["trinity"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 3);
    }

    #[test]
    fn satisfied_by_db_not_repulled() {
        let repos = one_repo(vec![
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("openmpi")
                .build(),
            PackageBuilder::new("openmpi", "1.6.5", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("openmpi", "1.6.5", "1").build());
        let sol = solver
            .resolve(&db, &SolveRequest::install(["gromacs"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "gromacs");
    }

    #[test]
    fn missing_dep_reports_chain() {
        let repos = one_repo(vec![PackageBuilder::new("meep", "1.2.1", "1")
            .requires_simple("libctl")
            .build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let err = solver
            .resolve(&db, &SolveRequest::install(["meep"]))
            .unwrap_err();
        match err {
            SolveError::NothingProvides { what, needed_by } => {
                assert_eq!(what, "libctl");
                assert!(needed_by.contains("meep"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn best_candidate_highest_evr() {
        let repos = one_repo(vec![
            PackageBuilder::new("R", "3.0.2", "1").build(),
            PackageBuilder::new("R", "3.1.0", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert_eq!(solver.best_by_name("R").unwrap().evr().version, "3.1.0");
    }

    #[test]
    fn priority_beats_evr_when_plugin_active() {
        let mut base = Repository::new("base", "CentOS base").with_priority(1);
        base.add_package(PackageBuilder::new("python", "2.6.6", "52").build());
        let mut xsede = Repository::new("xsede", "XSEDE").with_priority(50);
        xsede.add_package(PackageBuilder::new("python", "2.7.5", "1").build());
        let repos = vec![base, xsede];
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        // priorities plugin: base (priority 1) shadows xsede's python
        assert_eq!(
            solver.best_by_name("python").unwrap().evr().version,
            "2.6.6"
        );

        let cfg_noplugin = YumConfig {
            plugin_priorities: false,
            ..config()
        };
        let solver2 = Solver::new(&repos, &cfg_noplugin);
        assert_eq!(
            solver2.best_by_name("python").unwrap().evr().version,
            "2.7.5"
        );
    }

    #[test]
    fn disabled_repo_invisible() {
        let mut r = Repository::new("x", "x").disabled();
        r.add_package(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let repos = vec![r];
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert!(solver.best_by_name("gcc").is_none());
    }

    #[test]
    fn incompatible_arch_filtered() {
        let repos = one_repo(vec![
            PackageBuilder::new("tool", "1.0", "1")
                .arch(Arch::Armv7)
                .build(),
            PackageBuilder::new("tool", "0.9", "1")
                .arch(Arch::X86_64)
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        // only the x86_64 build is installable on the x86_64 host
        assert_eq!(solver.best_by_name("tool").unwrap().evr().version, "0.9");
    }

    #[test]
    fn native_arch_preferred_over_multilib() {
        let repos = one_repo(vec![
            PackageBuilder::new("libfoo", "1.0", "1")
                .arch(Arch::I686)
                .build(),
            PackageBuilder::new("libfoo", "1.0", "1")
                .arch(Arch::X86_64)
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        assert_eq!(solver.best_by_name("libfoo").unwrap().arch(), Arch::X86_64);
    }

    #[test]
    fn capability_provider_chosen_for_requires() {
        let repos = one_repo(vec![
            PackageBuilder::new("app", "1.0", "1")
                .requires_spec("mpi >= 1.6")
                .build(),
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["app"]))
            .unwrap();
        let names: Vec<_> = sol.installs.iter().map(|p| p.name()).collect();
        assert!(
            names.contains(&"openmpi"),
            "only openmpi satisfies mpi >= 1.6: {names:?}"
        );
        assert!(!names.contains(&"mpich2"));
    }

    #[test]
    fn update_resolution_pulls_new_deps() {
        let repos = one_repo(vec![
            PackageBuilder::new("R", "3.1.0", "1")
                .requires_simple("libRmath")
                .build(),
            PackageBuilder::new("libRmath", "3.1.0", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.0.2", "1").build());
        let sol = solver.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert_eq!(sol.upgrades.len(), 1);
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "libRmath");
    }

    #[test]
    fn update_processes_obsoletes() {
        let repos = one_repo(vec![PackageBuilder::new("torque", "4.2.10", "1")
            .obsoletes(Dependency::parse("pbs < 3.0"))
            .build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("pbs", "2.3.16", "1").build());
        let sol = solver.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert_eq!(sol.installs.len(), 1);
        assert_eq!(sol.installs[0].name(), "torque");

        let cfg_no = YumConfig {
            obsoletes: false,
            ..config()
        };
        let solver2 = Solver::new(&repos, &cfg_no);
        let sol2 = solver2.resolve(&db, &SolveRequest::update_all()).unwrap();
        assert!(sol2.is_empty());
    }

    #[test]
    fn already_installed_request_is_noop() {
        let repos = one_repo(vec![PackageBuilder::new("gcc", "4.4.7", "17").build()]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let sol = solver
            .resolve(&db, &SolveRequest::install(["gcc"]))
            .unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn diamond_dependency_resolved_once() {
        let repos = one_repo(vec![
            PackageBuilder::new("top", "1", "1")
                .requires_simple("left")
                .requires_simple("right")
                .build(),
            PackageBuilder::new("left", "1", "1")
                .requires_simple("base")
                .build(),
            PackageBuilder::new("right", "1", "1")
                .requires_simple("base")
                .build(),
            PackageBuilder::new("base", "1", "1").build(),
        ]);
        let cfg = config();
        let solver = Solver::new(&repos, &cfg);
        let db = RpmDb::new();
        let sol = solver
            .resolve(&db, &SolveRequest::install(["top"]))
            .unwrap();
        assert_eq!(sol.installs.len(), 4, "base must appear exactly once");
    }

    #[test]
    fn normalized_request_dedups_and_digests_stably() {
        let a = SolveRequest::install(["x", "y", "x", "z", "y"]);
        let b = SolveRequest::install(["x", "y", "z"]);
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), SolveRequest::update(["x", "y", "z"]).digest());
    }

    #[test]
    fn solve_error_display_phrasing() {
        let direct = SolveError::NothingProvides {
            what: "libctl".into(),
            needed_by: String::new(),
        };
        assert_eq!(direct.to_string(), "no package provides libctl");
        let chained = SolveError::NothingProvides {
            what: "libctl".into(),
            needed_by: "meep-1.2.1-1.x86_64".into(),
        };
        assert_eq!(
            chained.to_string(),
            "no package provides libctl (needed by meep-1.2.1-1.x86_64)"
        );
    }
}
