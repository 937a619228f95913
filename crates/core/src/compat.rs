//! The XSEDE-compatibility checker.
//!
//! §2's definition of "run-alike" compatibility: "libraries are in the
//! same place as on XSEDE clusters, versions are the same, and commands
//! work as they do on XSEDE-supported clusters." Given a host's RPM
//! database, this module grades it against the Stampede reference
//! profile in [`crate::catalog`].

use crate::catalog::xsede_reference;
use std::sync::OnceLock;
use xcbc_rpm::{Evr, RpmDb};

/// One compatibility deviation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompatIssue {
    /// A reference package is absent.
    Missing { package: String },
    /// Installed at a different version than the reference.
    WrongVersion {
        package: String,
        installed: String,
        reference: String,
    },
    /// A reference path (library location / command) is not provided.
    MissingPath { package: String, path: String },
}

impl std::fmt::Display for CompatIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompatIssue::Missing { package } => write!(f, "{package}: not installed"),
            CompatIssue::WrongVersion {
                package,
                installed,
                reference,
            } => {
                write!(
                    f,
                    "{package}: version {installed} != XSEDE reference {reference}"
                )
            }
            CompatIssue::MissingPath { package, path } => {
                write!(f, "{package}: reference path {path} absent")
            }
        }
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct CompatReport {
    /// Reference packages checked.
    pub checked: usize,
    /// Fully matching packages.
    pub matching: usize,
    pub issues: Vec<CompatIssue>,
    /// matching / checked.
    pub score: f64,
}

impl CompatReport {
    /// An XSEDE-compatible cluster: every reference package present at
    /// the reference version and paths.
    pub fn is_compatible(&self) -> bool {
        self.issues.is_empty()
    }

    /// Missing package names (the XNIT to-install list).
    pub fn missing(&self) -> Vec<&str> {
        self.issues
            .iter()
            .filter_map(|i| match i {
                CompatIssue::Missing { package } => Some(package.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Human summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "XSEDE compatibility: {}/{} packages match ({:.1}%)\n",
            self.matching,
            self.checked,
            self.score * 100.0
        );
        for issue in &self.issues {
            out.push_str(&format!("  - {issue}\n"));
        }
        out
    }
}

/// The reference, parsed and sorted once per process so that a grade
/// is two merge walks against the database's sorted stores.
struct Reference {
    /// Each entry's parsed version, in reference order.
    versions: Vec<String>,
    /// Entry positions sorted by name (catalog names are unique).
    by_name: Vec<usize>,
    /// `(path, slot)` sorted by path. Slots number the reference paths
    /// entry by entry, in reference order.
    paths: Vec<(&'static str, usize)>,
}

/// Grade a host against the full XSEDE reference. Issues come in
/// reference order.
pub fn check_compatibility(db: &RpmDb) -> CompatReport {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    let entries = xsede_reference();
    let reference = REFERENCE.get_or_init(|| {
        let mut by_name: Vec<usize> = (0..entries.len()).collect();
        by_name.sort_by_key(|&i| entries[i].name);
        let mut paths: Vec<(&'static str, usize)> = entries
            .iter()
            .flat_map(|e| e.paths.iter().copied())
            .enumerate()
            .map(|(slot, path)| (path, slot))
            .collect();
        paths.sort_unstable();
        Reference {
            versions: entries
                .iter()
                .map(|e| Evr::parse(e.version).version)
                .collect(),
            by_name,
            paths,
        }
    });

    // Name walk: each entry's newest installed instance, with
    // `RpmDb::newest`'s tie-break (`max_by` keeps the last of equals).
    let mut newest = vec![None; entries.len()];
    let mut installed = db.iter().peekable();
    for &i in &reference.by_name {
        let name = entries[i].name;
        while installed.next_if(|ip| ip.package.name() < name).is_some() {}
        newest[i] = std::iter::from_fn(|| installed.next_if(|ip| ip.package.name() == name))
            .max_by(|a, b| a.package.nevra.evr.cmp(&b.package.nevra.evr));
    }

    // Path walk: whether any installed instance owns each path.
    let mut owned = vec![false; reference.paths.len()];
    let mut paths = db.paths().peekable();
    for &(path, slot) in &reference.paths {
        while paths.next_if(|&p| p < path).is_some() {}
        owned[slot] = paths.peek() == Some(&path);
    }

    let mut issues = Vec::new();
    let mut matching = 0;
    let mut owned = &owned[..];
    for ((entry, version), newest) in entries.iter().zip(&reference.versions).zip(newest) {
        let package = || entry.name.to_string();
        let (mine, rest) = owned.split_at(entry.paths.len());
        owned = rest;
        let Some(installed) = newest else {
            issues.push(CompatIssue::Missing { package: package() });
            continue;
        };
        let before = issues.len();
        let installed = &installed.package.evr().version;
        if xcbc_rpm::rpmvercmp(installed, version) != std::cmp::Ordering::Equal {
            issues.push(CompatIssue::WrongVersion {
                package: package(),
                installed: installed.clone(),
                reference: entry.version.to_string(),
            });
        }
        for (path, _) in entry.paths.iter().zip(mine).filter(|(_, &owned)| !owned) {
            issues.push(CompatIssue::MissingPath {
                package: package(),
                path: path.to_string(),
            });
        }
        if issues.len() == before {
            matching += 1;
        }
    }
    CompatReport {
        checked: entries.len(),
        matching,
        score: matching as f64 / entries.len() as f64,
        issues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::xcbc_catalog;
    use xcbc_rpm::{PackageBuilder, TransactionSet};

    fn full_xcbc_db() -> RpmDb {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        for p in xcbc_catalog() {
            tx.add_install(p);
        }
        tx.run(&mut db).unwrap();
        db
    }

    /// The path walk compares reference paths with installed file paths
    /// as text, which is `provides`'s answer only for a file dependency
    /// named by the whole path.
    #[test]
    fn every_reference_path_is_a_file_dependency_on_itself() {
        for entry in xsede_reference() {
            for path in entry.paths {
                let dep = xcbc_rpm::Dependency::parse(path);
                assert!(dep.is_file_dep(), "{}: {path:?}", entry.name);
                assert_eq!(dep.name, *path, "{}", entry.name);
            }
        }
    }

    #[test]
    fn full_xcbc_install_is_fully_compatible() {
        let report = check_compatibility(&full_xcbc_db());
        assert!(report.is_compatible(), "{}", report.render());
        assert_eq!(report.score, 1.0);
        assert_eq!(report.matching, report.checked);
    }

    #[test]
    fn empty_cluster_scores_zero() {
        let report = check_compatibility(&RpmDb::new());
        assert_eq!(report.score, 0.0);
        assert_eq!(report.missing().len(), report.checked);
    }

    #[test]
    fn wrong_version_detected() {
        let mut db = full_xcbc_db();
        db.erase("gromacs");
        db.install(
            PackageBuilder::new("gromacs", "4.5.0", "1.el6")
                .file("/usr/bin/mdrun")
                .file("/usr/bin/grompp")
                .build(),
        );
        let report = check_compatibility(&db);
        assert!(!report.is_compatible());
        assert!(report.issues.iter().any(|i| matches!(
            i,
            CompatIssue::WrongVersion { package, .. } if package == "gromacs"
        )));
    }

    #[test]
    fn wrong_path_detected() {
        // right version, wrong install location: breaks "libraries are
        // in the same place as on XSEDE clusters"
        let mut db = full_xcbc_db();
        db.erase("gromacs");
        db.install(
            PackageBuilder::new("gromacs", "4.6.5", "1.local")
                .file("/opt/apps/gromacs/bin/mdrun") // local convention
                .build(),
        );
        let report = check_compatibility(&db);
        assert!(report.issues.iter().any(
            |i| matches!(i, CompatIssue::MissingPath { path, .. } if path == "/usr/bin/mdrun")
        ));
    }

    #[test]
    fn missing_lists_feed_xnit() {
        let mut db = RpmDb::new();
        // a Limulus-style cluster with only a scheduler preinstalled
        db.install(
            PackageBuilder::new("slurm", "2.6.5", "1.el6")
                .file("/usr/bin/sbatch")
                .build(),
        );
        let report = check_compatibility(&db);
        let missing = report.missing();
        assert!(missing.contains(&"gromacs"));
        assert!(
            !missing.contains(&"slurm"),
            "slurm is present (version+path match)"
        );
    }

    #[test]
    fn render_mentions_issues() {
        let report = check_compatibility(&RpmDb::new());
        let text = report.render();
        assert!(text.contains("not installed"));
        assert!(text.contains("0.0%"));
    }

    #[test]
    fn release_differences_do_not_matter() {
        // only version (not release) must match: sites rebuild RPMs
        let mut db = full_xcbc_db();
        db.erase("valgrind");
        db.install(
            PackageBuilder::new("valgrind", "3.8.1", "99.local")
                .file("/usr/bin/valgrind")
                .build(),
        );
        assert!(check_compatibility(&db).is_compatible());
    }
}
