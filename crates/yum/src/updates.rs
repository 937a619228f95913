//! `yum check-update` — enumerate available updates without applying them.
//!
//! The paper: "As new packages are created, when 'yum update' is called,
//! it will find any new packages in the repositories your server is using
//! and will try to resolve any dependencies for those packages. Then it
//! will provide the administrator with a full list of packages to be
//! updated."

use crate::repo::Repository;
use crate::solver::Solver;
use std::collections::HashMap;
use xcbc_rpm::{Evr, RpmDb};

/// Classification of an available update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Same version, newer release (packaging/backport fix).
    ReleaseBump,
    /// Newer upstream version.
    VersionBump,
    /// Epoch raised — a forced upgrade.
    EpochBump,
}

/// One row of `yum check-update` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckUpdate {
    pub name: String,
    pub installed: Evr,
    pub available: Evr,
    pub repo_id: String,
    pub kind: UpdateKind,
}

impl CheckUpdate {
    /// Render the way yum prints it: `name.arch  evr  repo`.
    pub fn render(&self) -> String {
        format!(
            "{:<30} {:<20} {}",
            self.name,
            self.available.to_string(),
            self.repo_id
        )
    }
}

/// Compute the available updates for everything installed in `db`,
/// over the candidates `solver` sees.
pub fn check_update(solver: &Solver<'_>, db: &RpmDb) -> Vec<CheckUpdate> {
    // best candidate per name: lowest priority value, then newest EVR
    let mut best: HashMap<&str, (&Repository, &xcbc_rpm::Package)> = HashMap::new();
    for &(repo, p) in solver.candidates() {
        let p: &xcbc_rpm::Package = p;
        best.entry(p.name())
            .and_modify(|slot| {
                let better_prio = repo.priority < slot.0.priority;
                let same_prio_newer =
                    repo.priority == slot.0.priority && p.nevra.evr > slot.1.nevra.evr;
                if better_prio || same_prio_newer {
                    *slot = (repo, p);
                }
            })
            .or_insert((repo, p));
    }

    let mut out: Vec<CheckUpdate> = Vec::new();
    for ip in db.iter() {
        let name = ip.package.name();
        if let Some((repo, candidate)) = best.get(name) {
            let installed = &ip.package.nevra.evr;
            let available = &candidate.nevra.evr;
            if available > installed {
                let kind = if available.epoch > installed.epoch {
                    UpdateKind::EpochBump
                } else if available.version != installed.version {
                    UpdateKind::VersionBump
                } else {
                    UpdateKind::ReleaseBump
                };
                out.push(CheckUpdate {
                    name: name.to_string(),
                    installed: installed.clone(),
                    available: available.clone(),
                    repo_id: repo.id.clone(),
                    kind,
                });
            }
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::YumConfig;
    use xcbc_rpm::PackageBuilder;

    fn setup() -> (Vec<Repository>, YumConfig, RpmDb) {
        let mut repo = Repository::new("xsede", "XSEDE");
        repo.add_package(PackageBuilder::new("R", "3.1.0", "1.el6").build());
        repo.add_package(PackageBuilder::new("gromacs", "4.6.5", "3.el6").build());
        repo.add_package(
            PackageBuilder::new("java", "1.7.0", "1.el6")
                .epoch(1)
                .build(),
        );
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.0.2", "1.el6").build());
        db.install(PackageBuilder::new("gromacs", "4.6.5", "2.el6").build());
        db.install(PackageBuilder::new("java", "1.8.0", "5.el6").build());
        db.install(PackageBuilder::new("local-only", "1.0", "1").build());
        (vec![repo], YumConfig::default(), db)
    }

    #[test]
    fn kinds_classified() {
        let (repos, cfg, db) = setup();
        let updates = check_update(&Solver::new(&repos, &cfg), &db);
        assert_eq!(updates.len(), 3);
        let by_name: HashMap<_, _> = updates.iter().map(|u| (u.name.as_str(), u)).collect();
        assert_eq!(by_name["R"].kind, UpdateKind::VersionBump);
        assert_eq!(by_name["gromacs"].kind, UpdateKind::ReleaseBump);
        assert_eq!(by_name["java"].kind, UpdateKind::EpochBump);
    }

    #[test]
    fn not_installed_packages_not_listed() {
        let (repos, cfg, db) = setup();
        let updates = check_update(&Solver::new(&repos, &cfg), &db);
        assert!(!updates.iter().any(|u| u.name == "local-only"));
    }

    #[test]
    fn current_packages_not_listed() {
        let (repos, cfg, mut db) = setup();
        db.erase("java");
        db.install(
            PackageBuilder::new("java", "1.7.0", "1.el6")
                .epoch(1)
                .build(),
        );
        let updates = check_update(&Solver::new(&repos, &cfg), &db);
        assert!(!updates.iter().any(|u| u.name == "java"));
    }

    #[test]
    fn disabled_repo_produces_no_updates() {
        let (mut repos, cfg, db) = setup();
        repos[0].enabled = false;
        assert!(check_update(&Solver::new(&repos, &cfg), &db).is_empty());
    }

    #[test]
    fn priority_shadowing_limits_updates() {
        let mut base = Repository::new("base", "base").with_priority(1);
        base.add_package(PackageBuilder::new("python", "2.6.6", "52").build());
        let mut xsede = Repository::new("xsede", "xsede").with_priority(50);
        xsede.add_package(PackageBuilder::new("python", "2.7.5", "1").build());
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("python", "2.6.6", "52").build());
        let cfg = YumConfig::default();
        let updates = check_update(&Solver::new(&[base, xsede], &cfg), &db);
        assert!(
            updates.is_empty(),
            "shadowed python 2.7.5 must not appear: {updates:?}"
        );
    }

    #[test]
    fn render_contains_fields() {
        let (repos, cfg, db) = setup();
        let updates = check_update(&Solver::new(&repos, &cfg), &db);
        let line = updates[0].render();
        assert!(line.contains(&updates[0].name));
        assert!(line.contains("xsede"));
    }
}
