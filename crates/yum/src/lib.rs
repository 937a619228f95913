//! # xcbc-yum — Yum repository substrate
//!
//! Reimplements the parts of Yum the XNIT toolkit relies on (the paper:
//! "XNIT is based on the Yum repository for installation or updates of
//! RPMs"): repository objects, `.repo` configuration files
//! (the paper's two setup methods — the `xsede-release` repo RPM, or a
//! hand-written `/etc/yum.repos.d/xsede.repo` plus `yum-plugin-priorities`),
//! a dependency solver with best-candidate selection, repository
//! priorities, `yum check-update`/`yum update` semantics, update
//! notification policies, and mirror failover.
//!
//! ```
//! use xcbc_rpm::{PackageBuilder, RpmDb};
//! use xcbc_yum::{Repository, YumConfig, Yum};
//!
//! let mut repo = Repository::new("xsede", "XSEDE National Integration Toolkit");
//! repo.add_package(PackageBuilder::new("gromacs", "4.6.5", "2.el6")
//!     .requires_simple("openmpi").build());
//! repo.add_package(PackageBuilder::new("openmpi", "1.6.5", "1.el6").build());
//!
//! let mut yum = Yum::new(YumConfig::default());
//! yum.add_repository(repo);
//! let mut db = RpmDb::new();
//! yum.install(&mut db, &["gromacs"]).unwrap();
//! assert!(db.is_installed("gromacs") && db.is_installed("openmpi"));
//! ```

pub mod fingerprint;
pub mod mirror;
pub mod notifier;
mod priorities;
pub mod repo;
pub mod repoconfig;
pub mod skew;
pub mod solvecache;
pub mod solver;
pub mod updates;

pub use fingerprint::{db_fingerprint, repos_fingerprint, Fnv64};
pub use mirror::{
    FetchOptions, FetchReport, Mirror, MirrorList, MirrorOutcome, MIN_BANDWIDTH_MBPS,
};
pub use notifier::{NotificationReport, UpdateNotifier, UpdatePolicy};
pub use repo::Repository;
pub use repoconfig::{
    parse_repo_file, render_repo_file, RepoConfig, RepoFileError, XSEDE_REPO_FILE,
};
pub use skew::{solve_across_skew, SkewGroup, SkewReport};
pub use solvecache::{CacheStats, ShardedSolveCache, SolveCache, SOLVECACHE_TRACE_SOURCE};
pub use solver::{Solution, SolveError, SolveKind, SolveRequest, Solver};
pub use updates::{CheckUpdate, UpdateKind};

use std::sync::Arc;
use xcbc_rpm::{RpmDb, TransactionReport, TransactionSet};

/// Top-level Yum engine configuration (`/etc/yum.conf` equivalent).
#[derive(Debug, Clone)]
pub struct YumConfig {
    /// Honor repository priorities (requires `yum-plugin-priorities` in the
    /// paper's manual XNIT setup path).
    pub plugin_priorities: bool,
    /// Host architecture.
    pub host_arch: xcbc_rpm::Arch,
    /// `obsoletes=1`: process Obsoletes during updates.
    pub obsoletes: bool,
}

impl Default for YumConfig {
    fn default() -> Self {
        YumConfig {
            plugin_priorities: true,
            host_arch: xcbc_rpm::Arch::X86_64,
            obsoletes: true,
        }
    }
}

/// The Yum engine: a set of repositories plus config, operating on a
/// host's [`RpmDb`].
#[derive(Debug)]
pub struct Yum {
    config: YumConfig,
    repositories: Vec<Repository>,
    solve_cache: Option<Arc<SolveCache>>,
    cache_salt: u64,
}

impl Default for Yum {
    fn default() -> Self {
        Yum::new(YumConfig::default())
    }
}

impl Yum {
    pub fn new(config: YumConfig) -> Self {
        Yum {
            config,
            repositories: Vec::new(),
            solve_cache: None,
            cache_salt: 0,
        }
    }

    /// Attach a (typically fleet-shared) [`SolveCache`]; subsequent
    /// [`Yum::solve`]/[`Yum::install`]/[`Yum::update`] calls answer
    /// repeated requests from the cache instead of re-walking the
    /// dependency closure.
    pub fn with_solve_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.solve_cache = Some(cache);
        self
    }

    /// The attached solve cache, if any.
    pub fn solve_cache(&self) -> Option<&Arc<SolveCache>> {
        self.solve_cache.as_ref()
    }

    /// Salt every cache key this engine computes (see
    /// [`SolveCache::salted_key`]). The multi-tenant service sets a
    /// per-tenant salt here so engine entry points that route through
    /// an attached cache — the XNIT overlay deploy path in particular —
    /// keep tenants' entries disjoint. Salt `0` (the default) is the
    /// historical unsalted behavior.
    pub fn with_cache_salt(mut self, salt: u64) -> Self {
        self.cache_salt = salt;
        self
    }

    /// The cache-key salt in effect (0 = unsalted).
    pub fn cache_salt(&self) -> u64 {
        self.cache_salt
    }

    pub fn config(&self) -> &YumConfig {
        &self.config
    }

    /// Register a repository. Re-adding an id replaces the existing repo
    /// (the way dropping a new file in `/etc/yum.repos.d/` does).
    pub fn add_repository(&mut self, repo: Repository) {
        if let Some(existing) = self.repositories.iter_mut().find(|r| r.id == repo.id) {
            *existing = repo;
        } else {
            self.repositories.push(repo);
        }
    }

    pub fn repositories(&self) -> &[Repository] {
        &self.repositories
    }

    pub fn repository(&self, id: &str) -> Option<&Repository> {
        self.repositories.iter().find(|r| r.id == id)
    }

    pub fn repository_mut(&mut self, id: &str) -> Option<&mut Repository> {
        self.repositories.iter_mut().find(|r| r.id == id)
    }

    /// Build a solver view over the enabled repositories (with priorities
    /// applied when the plugin is active).
    pub fn solver(&self) -> Solver<'_> {
        Solver::new(&self.repositories, &self.config)
    }

    /// Resolve a typed [`SolveRequest`] — through the attached
    /// [`SolveCache`] when one is present, directly otherwise. The
    /// solver is deterministic, so a cache hit returns byte-for-byte
    /// the solution a fresh solve would.
    pub fn solve(&self, db: &RpmDb, request: &SolveRequest) -> Result<Arc<Solution>, SolveError> {
        match &self.solve_cache {
            Some(cache) => cache.get_or_solve_salted(
                self.cache_salt,
                &self.repositories,
                &self.config,
                db,
                request,
            ),
            None => self.solver().resolve(db, request).map(Arc::new),
        }
    }

    /// `yum install <names...>`: resolve, check, and run.
    pub fn install(&self, db: &mut RpmDb, names: &[&str]) -> Result<TransactionReport, SolveError> {
        let request = SolveRequest::install(names.iter().copied());
        let solution = self.solve(db, &request)?;
        if solution.is_empty() {
            return Ok(TransactionReport::default());
        }
        let tx = (*solution).clone().into_transaction();
        tx.run(db).map_err(SolveError::Transaction)
    }

    /// `yum check-update`: list available updates without applying them.
    pub fn check_update(&self, db: &RpmDb) -> Vec<CheckUpdate> {
        updates::check_update(&self.solver(), db)
    }

    /// `yum update`: apply every available update (optionally limited to
    /// `names`), resolving any new dependencies updates pull in.
    pub fn update(
        &self,
        db: &mut RpmDb,
        names: Option<&[&str]>,
    ) -> Result<TransactionReport, SolveError> {
        let request = match names {
            Some(ns) => SolveRequest::update(ns.iter().copied()),
            None => SolveRequest::update_all(),
        };
        let solution = self.solve(db, &request)?;
        if solution.is_empty() {
            return Ok(TransactionReport::default());
        }
        let tx: TransactionSet = (*solution).clone().into_transaction();
        tx.run(db).map_err(SolveError::Transaction)
    }

    /// `yum erase <name>`.
    pub fn erase(&self, db: &mut RpmDb, name: &str) -> Result<TransactionReport, SolveError> {
        let mut tx = TransactionSet::new();
        tx.add_erase(name);
        tx.run(db).map_err(SolveError::Transaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn xnit_like_yum() -> Yum {
        let mut repo = Repository::new("xsede", "XSEDE repo");
        repo.add_package(
            PackageBuilder::new("openmpi", "1.6.5", "1.el6")
                .provides_versioned("mpi")
                .build(),
        );
        repo.add_package(
            PackageBuilder::new("gromacs", "4.6.5", "2.el6")
                .requires_simple("mpi")
                .build(),
        );
        repo.add_package(PackageBuilder::new("R", "3.0.2", "1.el6").build());
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);
        yum
    }

    #[test]
    fn install_pulls_dependencies() {
        let yum = xnit_like_yum();
        let mut db = RpmDb::new();
        let report = yum.install(&mut db, &["gromacs"]).unwrap();
        assert_eq!(report.installed.len(), 2);
        assert!(db.is_installed("openmpi"));
        assert!(db.verify().is_empty());
    }

    #[test]
    fn install_unknown_package_errors() {
        let yum = xnit_like_yum();
        let mut db = RpmDb::new();
        let err = yum.install(&mut db, &["no-such-package"]).unwrap_err();
        assert!(matches!(err, SolveError::NothingProvides { .. }));
    }

    #[test]
    fn update_noop_when_current() {
        let yum = xnit_like_yum();
        let mut db = RpmDb::new();
        yum.install(&mut db, &["R"]).unwrap();
        let report = yum.update(&mut db, None).unwrap();
        assert!(report.upgraded.is_empty());
    }

    #[test]
    fn update_applies_new_version() {
        let mut yum = xnit_like_yum();
        let mut db = RpmDb::new();
        yum.install(&mut db, &["R"]).unwrap();
        yum.repository_mut("xsede")
            .unwrap()
            .add_package(PackageBuilder::new("R", "3.1.0", "1.el6").build());
        let updates = yum.check_update(&db);
        assert_eq!(updates.len(), 1);
        let report = yum.update(&mut db, None).unwrap();
        assert_eq!(report.upgraded.len(), 1);
        assert_eq!(db.newest("R").unwrap().package.evr().version, "3.1.0");
    }

    #[test]
    fn re_adding_repo_replaces() {
        let mut yum = xnit_like_yum();
        let empty = Repository::new("xsede", "replaced");
        yum.add_repository(empty);
        assert_eq!(yum.repositories().len(), 1);
        assert_eq!(yum.repository("xsede").unwrap().package_count(), 0);
    }
}
