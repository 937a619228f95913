//! `yum-plugin-priorities` semantics.
//!
//! The paper's manual XNIT setup path starts with "install the
//! yum-plugin-priorities package". The plugin's rule: if a package *name*
//! appears in repositories with different priorities, candidates from any
//! repository with a larger (= worse) priority number are excluded
//! entirely — even if they carry a newer version. This protects a
//! production cluster's base OS from being hijacked by an add-on repo,
//! while still letting the add-on repo supply packages the base lacks.

use crate::repo::Repository;
use std::collections::HashMap;
use std::sync::Arc;
use xcbc_rpm::Package;

/// Apply the priorities rule across enabled repositories, returning the
/// surviving `(repo, package)` candidates.
pub fn apply_priorities<'a>(repos: &[&'a Repository]) -> Vec<(&'a Repository, &'a Arc<Package>)> {
    // name -> best (lowest) priority seen
    let mut best: HashMap<&str, u32> = HashMap::new();
    for repo in repos {
        for p in repo.packages() {
            best.entry(p.name())
                .and_modify(|b| *b = (*b).min(repo.priority))
                .or_insert(repo.priority);
        }
    }
    let mut out = Vec::new();
    for repo in repos {
        for p in repo.packages() {
            if repo.priority <= best[p.name()] {
                out.push((*repo, p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repo(id: &str, prio: u32, pkgs: Vec<Package>) -> Repository {
        let mut r = Repository::new(id, id).with_priority(prio);
        r.add_packages(pkgs);
        r
    }

    #[test]
    fn higher_priority_shadows_same_name() {
        let base = repo(
            "base",
            1,
            vec![PackageBuilder::new("python", "2.6.6", "52").build()],
        );
        let xsede = repo(
            "xsede",
            50,
            vec![PackageBuilder::new("python", "2.7.5", "1").build()],
        );
        let repos = [&base, &xsede];
        let survivors = apply_priorities(&repos);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].1.evr().version, "2.6.6");
    }

    #[test]
    fn unique_names_survive_regardless_of_priority() {
        let base = repo(
            "base",
            1,
            vec![PackageBuilder::new("bash", "4.1.2", "15").build()],
        );
        let xsede = repo(
            "xsede",
            50,
            vec![PackageBuilder::new("gromacs", "4.6.5", "2").build()],
        );
        let repos = [&base, &xsede];
        let survivors = apply_priorities(&repos);
        assert_eq!(survivors.len(), 2);
    }

    #[test]
    fn equal_priorities_keep_both() {
        let a = repo(
            "a",
            50,
            vec![PackageBuilder::new("R", "3.0.2", "1").build()],
        );
        let b = repo(
            "b",
            50,
            vec![PackageBuilder::new("R", "3.1.0", "1").build()],
        );
        let repos = [&a, &b];
        let survivors = apply_priorities(&repos);
        assert_eq!(survivors.len(), 2, "equal priority does not shadow");
    }

    #[test]
    fn multiple_versions_within_one_repo_survive() {
        let a = repo(
            "a",
            50,
            vec![
                PackageBuilder::new("kernel", "2.6.32", "431").build(),
                PackageBuilder::new("kernel", "2.6.32", "504").build(),
            ],
        );
        let repos = [&a];
        assert_eq!(apply_priorities(&repos).len(), 2);
    }

    #[test]
    fn empty_input() {
        let repos: [&Repository; 0] = [];
        assert!(apply_priorities(&repos).is_empty());
    }
}
