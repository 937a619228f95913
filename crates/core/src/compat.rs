//! The XSEDE-compatibility checker.
//!
//! §2's definition of "run-alike" compatibility: "libraries are in the
//! same place as on XSEDE clusters, versions are the same, and commands
//! work as they do on XSEDE-supported clusters." Given a host's RPM
//! database, this module grades it against the Stampede reference
//! profile in [`crate::catalog`].

use crate::catalog::{xsede_reference, CatalogEntry};
use std::sync::OnceLock;
use xcbc_rpm::{Dependency, Evr, RpmDb};

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

/// A reference entry with its version and paths parsed, so grading a
/// host parses nothing.
struct ParsedEntry {
    entry: CatalogEntry,
    version: String,
    paths: Vec<Dependency>,
}

impl ParsedEntry {
    fn new(entry: &CatalogEntry) -> Self {
        ParsedEntry {
            entry: *entry,
            version: Evr::parse(entry.version).version,
            paths: entry.paths.iter().map(|p| Dependency::parse(p)).collect(),
        }
    }

    fn check(&self, db: &RpmDb) -> Vec<CompatIssue> {
        let name = self.entry.name;
        let installed = match db.newest(name) {
            None => {
                return vec![CompatIssue::Missing {
                    package: name.to_string(),
                }]
            }
            Some(ip) => ip,
        };
        let mut issues = Vec::new();
        if xcbc_rpm::rpmvercmp(&installed.package.evr().version, &self.version)
            != std::cmp::Ordering::Equal
        {
            issues.push(CompatIssue::WrongVersion {
                package: name.to_string(),
                installed: installed.package.evr().version.clone(),
                reference: self.entry.version.to_string(),
            });
        }
        for (path, dep) in self.entry.paths.iter().zip(&self.paths) {
            if !db.provides(dep) {
                issues.push(CompatIssue::MissingPath {
                    package: name.to_string(),
                    path: path.to_string(),
                });
            }
        }
        issues
    }
}

/// Grade a host against the full XSEDE reference, parsed once per
/// process.
pub fn check_compatibility(db: &RpmDb) -> CompatReport {
    static PARSED: OnceLock<Vec<ParsedEntry>> = OnceLock::new();
    grade(
        db,
        PARSED.get_or_init(|| xsede_reference().iter().map(ParsedEntry::new).collect()),
    )
}

fn grade(db: &RpmDb, reference: &[ParsedEntry]) -> CompatReport {
    let mut issues = Vec::new();
    let mut matching = 0;
    for entry in reference {
        let entry_issues = entry.check(db);
        if entry_issues.is_empty() {
            matching += 1;
        }
        issues.extend(entry_issues);
    }
    CompatReport {
        checked: reference.len(),
        matching,
        score: if reference.is_empty() {
            1.0
        } else {
            matching as f64 / reference.len() as f64
        },
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
