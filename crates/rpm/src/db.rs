//! The installed-package database (`/var/lib/rpm` equivalent).
//!
//! Holds the set of installed packages on one host for the three
//! queries everything else needs: by name, by capability
//! (`whatprovides`), and by file path. Also implements `rpm -V`-style
//! verification of database consistency.
//!
//! The store is one vector sorted by name, so a clone copies one
//! pointer per instance. The file index and the content digest
//! ([`RpmDb::digest`]) are derived from it on first use and dropped by
//! every change, so installs pay nothing per file and the solve cache
//! keys on the digest once per database state.

use crate::dep::Dependency;
use crate::package::Package;
use std::ops::Range;
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
    /// Every installed instance, sorted by name and in install order
    /// within a name (several only for multilib/kernel-style installs).
    packages: Vec<InstalledPackage>,
    next_tid: u64,
    digest: Memo<u64>,
    /// `(instance, file)` positions sorted by path, then instance.
    files: Memo<Vec<(usize, usize)>>,
}

/// A value derived from the database contents on first use. `==`
/// ignores it; a clone copies a warm value along with the contents it
/// was derived from.
#[derive(Debug, Clone, Default)]
struct Memo<T>(OnceLock<T>);

impl<T> PartialEq for Memo<T> {
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
        self.packages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Iterate over every installed package, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &InstalledPackage> {
        self.packages.iter()
    }

    /// Positions of the instances installed under `name`.
    fn range(&self, name: &str) -> Range<usize> {
        let start = self.packages.partition_point(|ip| ip.package.name() < name);
        let len = self.packages[start..].partition_point(|ip| ip.package.name() == name);
        start..start + len
    }

    /// All instances installed under `name`, in install order.
    pub fn get(&self, name: &str) -> &[InstalledPackage] {
        &self.packages[self.range(name)]
    }

    /// The newest installed instance of `name`, if any.
    pub fn newest(&self, name: &str) -> Option<&InstalledPackage> {
        self.get(name)
            .iter()
            .max_by(|a, b| a.package.nevra.evr.cmp(&b.package.nevra.evr))
    }

    pub fn is_installed(&self, name: &str) -> bool {
        !self.get(name).is_empty()
    }

    fn path(&self, (instance, file): (usize, usize)) -> &str {
        &self.packages[instance].package.files[file]
    }

    fn file_index(&self) -> &[(usize, usize)] {
        self.files.0.get_or_init(|| {
            let mut index: Vec<(usize, usize)> = self
                .packages
                .iter()
                .enumerate()
                .flat_map(|(i, ip)| (0..ip.package.files.len()).map(move |f| (i, f)))
                .collect();
            // Stable, so each path's owners stay in database order.
            index.sort_by(|&a, &b| self.path(a).cmp(self.path(b)));
            index.dedup_by(|a, b| a.0 == b.0 && self.path(*a) == self.path(*b));
            index
        })
    }

    /// Every installed file path in sorted order, once per owning
    /// instance: a path that two instances own appears twice. Reads the
    /// memoized file index, so a caller holding sorted paths can merge
    /// against it instead of looking each one up.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.file_index().iter().map(|&e| self.path(e))
    }

    /// Installed instances that own `path`, in database order.
    pub(crate) fn file_owners<'a, 'q: 'a>(
        &'q self,
        path: &'a str,
    ) -> impl Iterator<Item = &'q InstalledPackage> + 'a {
        let index = self.file_index();
        let start = index.partition_point(|&e| self.path(e) < path);
        index[start..]
            .iter()
            .take_while(move |&&e| self.path(e) == path)
            .map(|&(i, _)| &self.packages[i])
    }

    /// Installed instances satisfying `req`, in database order, without
    /// collecting them.
    pub(crate) fn providers<'a, 'q: 'a>(
        &'q self,
        req: &'a Dependency,
    ) -> impl Iterator<Item = &'q InstalledPackage> + 'a {
        let file_dep = req.is_file_dep();
        let owners = file_dep
            .then(|| self.file_owners(&req.name))
            .into_iter()
            .flatten();
        let scanned = if file_dep {
            &[][..]
        } else {
            &self.packages[..]
        };
        owners.chain(scanned.iter().filter(move |ip| ip.package.satisfies(req)))
    }

    /// `rpm -q --whatprovides`: installed packages satisfying `req`
    /// (capability or file dependency), in name order.
    pub fn whatprovides(&self, req: &Dependency) -> Vec<&InstalledPackage> {
        self.providers(req).collect()
    }

    /// Is `req` satisfied by anything installed?
    pub fn provides(&self, req: &Dependency) -> bool {
        self.providers(req).next().is_some()
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

    /// Drop the values derived from the old contents.
    fn changed(&mut self) {
        self.digest = Memo::default();
        self.files = Memo::default();
    }

    /// Low-level install (no dependency checking — that is the
    /// transaction layer's job). Returns the transaction id.
    pub fn install(&mut self, package: impl Into<Arc<Package>>) -> u64 {
        let package = package.into();
        self.changed();
        self.next_tid += 1;
        let at = self
            .packages
            .partition_point(|ip| ip.package.name() <= package.name());
        self.packages.insert(
            at,
            InstalledPackage {
                package,
                install_tid: self.next_tid,
            },
        );
        self.next_tid
    }

    /// Low-level erase of every instance of `name`. Returns the erased
    /// packages (empty if the name was not installed).
    pub fn erase(&mut self, name: &str) -> Vec<InstalledPackage> {
        let range = self.range(name);
        if range.is_empty() {
            return Vec::new();
        }
        self.changed();
        self.packages.drain(range).collect()
    }

    /// Erase only the instance matching an exact EVR (used by upgrades that
    /// replace one multilib sibling).
    pub fn erase_exact(&mut self, name: &str, evr: &crate::evr::Evr) -> Option<InstalledPackage> {
        let range = self.range(name);
        let idx = self.packages[range.clone()]
            .iter()
            .position(|ip| &ip.package.nevra.evr == evr)?;
        self.changed();
        Some(self.packages.remove(range.start + idx))
    }

    /// Total installed size in bytes (drives the kickstart disk-space
    /// requirement that forced LittleFe's mSATA modification).
    pub fn installed_size_bytes(&self) -> u64 {
        self.iter().map(|ip| ip.package.size_bytes).sum()
    }

    /// Verify database consistency: every Requires satisfied, no Conflicts
    /// between installed packages, no duplicate file ownership. File
    /// conflicts come last, sorted by path, each naming its owners in
    /// install order.
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
                for victim in self.providers(conflict) {
                    if victim.package.name() != ip.package.name() {
                        problems.push(VerifyProblem::Conflict {
                            package: ip.package.nevra.to_string(),
                            conflicts_with: victim.package.nevra.to_string(),
                        });
                    }
                }
            }
        }
        let index = self.file_index();
        for owners in index.chunk_by(|&a, &b| self.path(a) == self.path(b)) {
            let name = |&(i, _): &(usize, usize)| self.packages[i].package.name();
            if owners.iter().all(|o| name(o) == name(&owners[0])) {
                continue;
            }
            let mut owners = owners.to_vec();
            owners.sort_by_key(|&(i, _)| self.packages[i].install_tid);
            let mut packages: Vec<String> = Vec::new();
            for o in &owners {
                if !packages.iter().any(|p| p == name(o)) {
                    packages.push(name(o).to_string());
                }
            }
            problems.push(VerifyProblem::FileConflict {
                path: self.path(owners[0]).to_string(),
                packages,
            });
        }
        problems
    }

    /// Is every name installed in `other` installed here too? One walk
    /// over both name-sorted stores, with no allocation.
    pub fn has_every_name_of(&self, other: &RpmDb) -> bool {
        let mut mine = self.packages.iter().map(|ip| ip.package.name()).peekable();
        other.packages.iter().all(|ip| {
            let name = ip.package.name();
            while mine.next_if(|m| *m < name).is_some() {}
            mine.peek() == Some(&name)
        })
    }

    /// Names of all installed packages, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.iter().map(|ip| ip.package.name()).collect();
        names.dedup();
        names
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
    fn paths_are_sorted_repeat_shared_paths_and_follow_changes() {
        let mut db = db_with(vec![
            PackageBuilder::new("torque", "4.2.10", "1")
                .files(["/usr/bin/qsub", "/etc/pbs.conf"])
                .build(),
            PackageBuilder::new("slurm", "14.03", "1")
                .files(["/usr/bin/sbatch", "/usr/bin/qsub"])
                .build(),
        ]);
        let paths = |db: &RpmDb| db.paths().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            paths(&db),
            [
                "/etc/pbs.conf",
                "/usr/bin/qsub",
                "/usr/bin/qsub",
                "/usr/bin/sbatch"
            ]
        );
        db.install(
            PackageBuilder::new("bash", "4.1.2", "15")
                .file("/bin/bash")
                .build(),
        );
        assert_eq!(paths(&db)[0], "/bin/bash");
        db.erase("torque");
        assert_eq!(
            paths(&db),
            ["/bin/bash", "/usr/bin/qsub", "/usr/bin/sbatch"]
        );
        db.erase_exact("slurm", &crate::evr::Evr::parse("14.03-1"));
        assert_eq!(paths(&db), ["/bin/bash"]);
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
    fn verify_lists_file_conflicts_by_path_with_owners_in_install_order() {
        let db = db_with(vec![
            PackageBuilder::new("zeta", "1", "1")
                .files(["/usr/bin/qsub", "/etc/pbs.conf", "/usr/bin/qstat"])
                .build(),
            PackageBuilder::new("alpha", "1", "1")
                .files(["/usr/bin/qstat", "/usr/bin/qsub", "/var/spool/pbs"])
                .build(),
            PackageBuilder::new("mid", "1", "1")
                .files(["/var/spool/pbs", "/usr/bin/qsub", "/etc/pbs.conf"])
                .build(),
        ]);
        let conflicts: Vec<(String, Vec<String>)> = db
            .verify()
            .into_iter()
            .map(|p| match p {
                VerifyProblem::FileConflict { path, packages } => (path, packages),
                other => panic!("unexpected problem {other}"),
            })
            .collect();
        let owners = |path: &str, names: &[&str]| {
            (
                path.to_string(),
                names.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            conflicts,
            vec![
                owners("/etc/pbs.conf", &["zeta", "mid"]),
                owners("/usr/bin/qstat", &["zeta", "alpha"]),
                owners("/usr/bin/qsub", &["zeta", "alpha", "mid"]),
                owners("/var/spool/pbs", &["alpha", "mid"]),
            ]
        );
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

    #[test]
    fn has_every_name_of_agrees_with_per_name_lookups() {
        let pkg = |name: &str, release: &str| PackageBuilder::new(name, "1", release).build();
        let dbs = [
            RpmDb::new(),
            db_with(vec![pkg("b", "1")]),
            db_with(vec![pkg("a", "1"), pkg("c", "1"), pkg("c", "2")]),
            db_with(vec![pkg("a", "1"), pkg("b", "1"), pkg("c", "1")]),
            db_with(vec![pkg("d", "1")]),
        ];
        for here in &dbs {
            for other in &dbs {
                let lookups = other.names().iter().all(|name| here.is_installed(name));
                assert_eq!(
                    here.has_every_name_of(other),
                    lookups,
                    "{here:?} / {other:?}"
                );
            }
        }
    }
}
