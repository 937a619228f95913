//! Yum package groups (`yum groupinstall`).
//!
//! The XSEDE repo organizes its software into comps-style groups so an
//! administrator can pull a whole capability class at once — the
//! "one-time installations of any particular software capability" §1
//! promises, at group granularity.

use crate::solver::SolveError;
use crate::Yum;
use xcbc_rpm::{RpmDb, TransactionReport};

/// A comps-style package group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageGroupDef {
    /// Group id (`@hpc-libraries`).
    pub id: String,
    pub name: String,
    /// Packages always installed with the group.
    pub mandatory: Vec<String>,
    /// Packages installed unless excluded.
    pub default: Vec<String>,
    /// Packages only installed on request.
    pub optional: Vec<String>,
}

impl PackageGroupDef {
    pub fn new(id: &str, name: &str) -> Self {
        PackageGroupDef {
            id: id.to_string(),
            name: name.to_string(),
            mandatory: Vec::new(),
            default: Vec::new(),
            optional: Vec::new(),
        }
    }

    pub fn mandatory_pkg(mut self, p: &str) -> Self {
        self.mandatory.push(p.to_string());
        self
    }

    pub fn default_pkg(mut self, p: &str) -> Self {
        self.default.push(p.to_string());
        self
    }

    pub fn optional_pkg(mut self, p: &str) -> Self {
        self.optional.push(p.to_string());
        self
    }

    /// Packages a plain `groupinstall` pulls (mandatory + default).
    pub fn install_set(&self) -> Vec<&str> {
        self.mandatory
            .iter()
            .chain(self.default.iter())
            .map(String::as_str)
            .collect()
    }
}

/// `yum groupinstall <group>` against a group catalog.
pub fn group_install(
    yum: &Yum,
    db: &mut RpmDb,
    groups: &[PackageGroupDef],
    group_id: &str,
    with_optional: bool,
) -> Result<TransactionReport, SolveError> {
    let group = groups
        .iter()
        .find(|g| g.id == group_id || g.name == group_id)
        .ok_or_else(|| SolveError::NothingProvides {
            what: format!("@{group_id}"),
            needed_by: String::new(),
        })?;
    let mut names = group.install_set();
    if with_optional {
        names.extend(group.optional.iter().map(String::as_str));
    }
    yum.install(db, &names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Repository, YumConfig};
    use xcbc_rpm::PackageBuilder;

    fn setup() -> (Yum, Vec<PackageGroupDef>) {
        let mut repo = Repository::new("xsede", "XSEDE");
        for name in ["openmpi", "fftw", "hdf5", "gromacs", "lammps", "papi"] {
            let mut b = PackageBuilder::new(name, "1.0", "1.el6");
            if name == "gromacs" || name == "lammps" {
                b = b.requires_simple("openmpi").requires_simple("fftw");
            }
            repo.add_package(b.build());
        }
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);
        let groups = vec![
            PackageGroupDef::new("hpc-md", "Molecular Dynamics")
                .mandatory_pkg("gromacs")
                .default_pkg("lammps")
                .optional_pkg("papi"),
            PackageGroupDef::new("hpc-io", "Parallel I/O").mandatory_pkg("hdf5"),
        ];
        (yum, groups)
    }

    #[test]
    fn groupinstall_pulls_mandatory_default_and_deps() {
        let (yum, groups) = setup();
        let mut db = RpmDb::new();
        group_install(&yum, &mut db, &groups, "hpc-md", false).unwrap();
        for p in ["gromacs", "lammps", "openmpi", "fftw"] {
            assert!(db.is_installed(p), "{p}");
        }
        assert!(!db.is_installed("papi"), "optional not pulled by default");
        assert!(db.verify().is_empty());
    }

    #[test]
    fn groupinstall_with_optional() {
        let (yum, groups) = setup();
        let mut db = RpmDb::new();
        group_install(&yum, &mut db, &groups, "hpc-md", true).unwrap();
        assert!(db.is_installed("papi"));
    }

    #[test]
    fn group_lookup_by_name_too() {
        let (yum, groups) = setup();
        let mut db = RpmDb::new();
        group_install(&yum, &mut db, &groups, "Parallel I/O", false).unwrap();
        assert!(db.is_installed("hdf5"));
    }

    #[test]
    fn unknown_group_errors() {
        let (yum, groups) = setup();
        let mut db = RpmDb::new();
        let err = group_install(&yum, &mut db, &groups, "nope", false).unwrap_err();
        assert!(err.to_string().contains("@nope"));
    }

    #[test]
    fn install_set_order() {
        let g = PackageGroupDef::new("g", "G")
            .mandatory_pkg("a")
            .default_pkg("b")
            .optional_pkg("c");
        assert_eq!(g.install_set(), vec!["a", "b"]);
    }
}
