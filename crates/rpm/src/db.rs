//! The installed-package database (`/var/lib/rpm` equivalent).
//!
//! Holds the set of installed packages on one host, indexed for the three
//! queries everything else needs: by name, by capability
//! (`whatprovides`), and by file path. Also implements `rpm -V`-style
//! verification of database consistency.
//!
//! The database also carries its own content digest ([`RpmDb::digest`]),
//! memoized so the solve cache can key on it once per database state
//! instead of once per lookup.

use crate::dep::Dependency;
use crate::package::Package;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use xcbc_sim::Fnv64;

/// An installed package plus install-time metadata.
///
/// The package is shared, usually with the repository it was installed
/// from, so cloning a database copies pointers, not package payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledPackage {
    pub package: Arc<Package>,
    /// Monotonic transaction id that installed this package.
    pub install_tid: u64,
}

/// Per-host installed-package database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RpmDb {
    /// name → instances (multiple only for multilib/kernel-style installs).
    by_name: BTreeMap<String, Vec<InstalledPackage>>,
    /// file path → owning package names.
    file_index: HashMap<String, Vec<String>>,
    next_tid: u64,
    digest: DigestMemo,
}

/// The memoized [`RpmDb::digest`]. It is derived state, so `==` ignores
/// it; a clone copies a warm value along with the contents it digests.
#[derive(Debug, Clone, Default)]
struct DigestMemo(OnceLock<u64>);

impl PartialEq for DigestMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A problem found by [`RpmDb::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyProblem {
    /// An installed package has a Requires nothing installed satisfies.
    UnsatisfiedRequire { package: String, require: String },
    /// Two installed packages conflict.
    Conflict {
        package: String,
        conflicts_with: String,
    },
    /// Two installed packages own the same path.
    FileConflict { path: String, packages: Vec<String> },
}

impl std::fmt::Display for VerifyProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyProblem::UnsatisfiedRequire { package, require } => {
                write!(f, "{package}: unsatisfied requirement {require}")
            }
            VerifyProblem::Conflict {
                package,
                conflicts_with,
            } => {
                write!(f, "{package} conflicts with installed {conflicts_with}")
            }
            VerifyProblem::FileConflict { path, packages } => {
                write!(
                    f,
                    "file {path} owned by multiple packages: {}",
                    packages.join(", ")
                )
            }
        }
    }
}

impl RpmDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed packages.
    pub fn len(&self) -> usize {
        self.by_name.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Iterate over every installed package.
    pub fn iter(&self) -> impl Iterator<Item = &InstalledPackage> {
        self.by_name.values().flatten()
    }

    /// All instances installed under `name`.
    pub fn get(&self, name: &str) -> &[InstalledPackage] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The newest installed instance of `name`, if any.
    pub fn newest(&self, name: &str) -> Option<&InstalledPackage> {
        self.get(name)
            .iter()
            .max_by(|a, b| a.package.nevra.evr.cmp(&b.package.nevra.evr))
    }

    pub fn is_installed(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// `rpm -q --whatprovides`: installed packages satisfying `req`
    /// (capability or file dependency).
    pub fn whatprovides(&self, req: &Dependency) -> Vec<&InstalledPackage> {
        if req.is_file_dep() {
            return self
                .file_index
                .get(&req.name)
                .map(|owners| {
                    owners
                        .iter()
                        .flat_map(|n| self.get(n))
                        .filter(|ip| ip.package.files.iter().any(|f| f == &req.name))
                        .collect()
                })
                .unwrap_or_default();
        }
        self.iter().filter(|ip| ip.package.satisfies(req)).collect()
    }

    /// Is `req` satisfied by anything installed?
    pub fn provides(&self, req: &Dependency) -> bool {
        !self.whatprovides(req).is_empty()
    }

    /// `rpm -q --whatrequires`: installed packages whose Requires are
    /// satisfied by capabilities of `name`.
    pub fn whatrequires(&self, name: &str) -> Vec<&InstalledPackage> {
        let providers = self.get(name);
        if providers.is_empty() {
            return Vec::new();
        }
        self.iter()
            .filter(|ip| {
                ip.package.name() != name
                    && ip
                        .package
                        .requires
                        .iter()
                        .any(|req| providers.iter().any(|p| p.package.satisfies(req)))
            })
            .collect()
    }

    /// 64-bit FNV-1a over every installed NEVRA in name order — the
    /// database component of a solve-cache key. Computed on first use
    /// and memoized until [`install`](Self::install),
    /// [`erase`](Self::erase) or [`erase_exact`](Self::erase_exact)
    /// changes the contents.
    pub fn digest(&self) -> u64 {
        *self.digest.0.get_or_init(|| {
            let mut h = Fnv64::new();
            for ip in self.iter() {
                h.write_str(&ip.package.nevra.to_string());
            }
            h.finish()
        })
    }

    /// Low-level install (no dependency checking — that is the
    /// transaction layer's job). Returns the transaction id.
    pub fn install(&mut self, package: impl Into<Arc<Package>>) -> u64 {
        let package = package.into();
        self.digest = DigestMemo::default();
        self.next_tid += 1;
        let tid = self.next_tid;
        for f in &package.files {
            let owners = self.file_index.entry(f.clone()).or_default();
            if !owners.contains(&package.nevra.name) {
                owners.push(package.nevra.name.clone());
            }
        }
        self.by_name
            .entry(package.nevra.name.clone())
            .or_default()
            .push(InstalledPackage {
                package,
                install_tid: tid,
            });
        tid
    }

    /// Low-level erase of every instance of `name`. Returns the erased
    /// packages (empty if the name was not installed).
    pub fn erase(&mut self, name: &str) -> Vec<InstalledPackage> {
        let removed = self.by_name.remove(name).unwrap_or_default();
        if !removed.is_empty() {
            self.digest = DigestMemo::default();
        }
        for ip in &removed {
            for f in &ip.package.files {
                if let Some(owners) = self.file_index.get_mut(f) {
                    owners.retain(|n| n != name);
                    if owners.is_empty() {
                        self.file_index.remove(f);
                    }
                }
            }
        }
        removed
    }

    /// Erase only the instance matching an exact EVR (used by upgrades that
    /// replace one multilib sibling).
    pub fn erase_exact(&mut self, name: &str, evr: &crate::evr::Evr) -> Option<InstalledPackage> {
        let list = self.by_name.get_mut(name)?;
        let idx = list.iter().position(|ip| &ip.package.nevra.evr == evr)?;
        let removed = list.remove(idx);
        self.digest = DigestMemo::default();
        let now_empty = list.is_empty();
        if now_empty {
            self.by_name.remove(name);
        }
        for f in &removed.package.files {
            let still_owned = self.get(name).iter().any(|ip| ip.package.files.contains(f));
            if !still_owned {
                if let Some(owners) = self.file_index.get_mut(f) {
                    owners.retain(|n| n != name);
                    if owners.is_empty() {
                        self.file_index.remove(f);
                    }
                }
            }
        }
        Some(removed)
    }

    /// Total installed size in bytes (drives the kickstart disk-space
    /// requirement that forced LittleFe's mSATA modification).
    pub fn installed_size_bytes(&self) -> u64 {
        self.iter().map(|ip| ip.package.size_bytes).sum()
    }

    /// Verify database consistency: every Requires satisfied, no Conflicts
    /// between installed packages, no duplicate file ownership.
    pub fn verify(&self) -> Vec<VerifyProblem> {
        let mut problems = Vec::new();
        for ip in self.iter() {
            for req in &ip.package.requires {
                if !self.provides(req) {
                    problems.push(VerifyProblem::UnsatisfiedRequire {
                        package: ip.package.nevra.to_string(),
                        require: req.to_string(),
                    });
                }
            }
            for conflict in &ip.package.conflicts {
                for victim in self.whatprovides(conflict) {
                    if victim.package.name() != ip.package.name() {
                        problems.push(VerifyProblem::Conflict {
                            package: ip.package.nevra.to_string(),
                            conflicts_with: victim.package.nevra.to_string(),
                        });
                    }
                }
            }
        }
        for (path, owners) in &self.file_index {
            if owners.len() > 1 {
                problems.push(VerifyProblem::FileConflict {
                    path: path.clone(),
                    packages: owners.clone(),
                });
            }
        }
        problems
    }

    /// Names of all installed packages, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.by_name.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PackageBuilder;

    fn db_with(pkgs: Vec<Package>) -> RpmDb {
        let mut db = RpmDb::new();
        for p in pkgs {
            db.install(p);
        }
        db
    }

    #[test]
    fn install_and_query() {
        let mut db = RpmDb::new();
        assert!(db.is_empty());
        db.install(PackageBuilder::new("gcc", "4.4.7", "17.el6").build());
        assert_eq!(db.len(), 1);
        assert!(db.is_installed("gcc"));
        assert!(!db.is_installed("clang"));
        assert_eq!(db.newest("gcc").unwrap().package.evr().version, "4.4.7");
    }

    #[test]
    fn newest_picks_highest_evr() {
        let db = db_with(vec![
            PackageBuilder::new("kernel", "2.6.32", "431.el6").build(),
            PackageBuilder::new("kernel", "2.6.32", "504.el6").build(),
        ]);
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.newest("kernel").unwrap().package.evr().release,
            "504.el6"
        );
    }

    #[test]
    fn whatprovides_capability_and_file() {
        let db = db_with(vec![
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .file("/usr/lib64/openmpi/bin/mpirun")
                .build(),
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        ]);
        assert_eq!(db.whatprovides(&Dependency::parse("mpi")).len(), 2);
        assert_eq!(db.whatprovides(&Dependency::parse("mpi >= 1.6")).len(), 1);
        assert_eq!(
            db.whatprovides(&Dependency::parse("/usr/lib64/openmpi/bin/mpirun"))
                .len(),
            1
        );
        assert!(db
            .whatprovides(&Dependency::parse("/no/such/file"))
            .is_empty());
    }

    #[test]
    fn whatrequires_reverse_deps() {
        let db = db_with(vec![
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
            PackageBuilder::new("lammps", "2014", "1")
                .requires_simple("openmpi")
                .build(),
            PackageBuilder::new("bash", "4.1.2", "15").build(),
        ]);
        let rdeps = db.whatrequires("openmpi");
        let names: Vec<_> = rdeps.iter().map(|ip| ip.package.name()).collect();
        assert!(names.contains(&"gromacs"));
        assert!(names.contains(&"lammps"));
        assert!(!names.contains(&"bash"));
    }

    #[test]
    fn erase_updates_file_index() {
        let mut db = db_with(vec![PackageBuilder::new("perl", "5.10.1", "136")
            .file("/usr/bin/perl")
            .build()]);
        assert!(db.provides(&Dependency::parse("/usr/bin/perl")));
        let removed = db.erase("perl");
        assert_eq!(removed.len(), 1);
        assert!(!db.provides(&Dependency::parse("/usr/bin/perl")));
        assert!(db.is_empty());
    }

    #[test]
    fn erase_exact_keeps_sibling() {
        let mut db = db_with(vec![
            PackageBuilder::new("kernel", "2.6.32", "431.el6").build(),
            PackageBuilder::new("kernel", "2.6.32", "504.el6").build(),
        ]);
        let gone = db.erase_exact("kernel", &crate::evr::Evr::parse("2.6.32-431.el6"));
        assert!(gone.is_some());
        assert_eq!(db.get("kernel").len(), 1);
        assert_eq!(
            db.newest("kernel").unwrap().package.evr().release,
            "504.el6"
        );
    }

    #[test]
    fn verify_detects_unsatisfied_require() {
        let db = db_with(vec![PackageBuilder::new("gromacs", "4.6.5", "2")
            .requires_simple("mpi")
            .build()]);
        let problems = db.verify();
        assert_eq!(problems.len(), 1);
        assert!(matches!(
            problems[0],
            VerifyProblem::UnsatisfiedRequire { .. }
        ));
    }

    #[test]
    fn verify_detects_conflicts_and_file_conflicts() {
        let db = db_with(vec![
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .file("/usr/bin/qsub")
                .build(),
            PackageBuilder::new("slurm", "14.03", "1")
                .file("/usr/bin/qsub")
                .build(),
        ]);
        let problems = db.verify();
        assert!(problems
            .iter()
            .any(|p| matches!(p, VerifyProblem::Conflict { .. })));
        assert!(problems
            .iter()
            .any(|p| matches!(p, VerifyProblem::FileConflict { .. })));
    }

    #[test]
    fn verify_clean_db_is_clean() {
        let db = db_with(vec![
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        ]);
        assert!(db.verify().is_empty());
    }

    #[test]
    fn installed_size_accumulates() {
        let db = db_with(vec![
            PackageBuilder::new("a", "1", "1").size_mb(10).build(),
            PackageBuilder::new("b", "1", "1").size_mb(5).build(),
        ]);
        assert_eq!(db.installed_size_bytes(), 15 << 20);
    }
}
