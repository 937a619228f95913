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
use crate::YumConfig;
use std::sync::Arc;
use xcbc_rpm::Package;

/// Every `(repo, package)` pair a solver may choose from: enabled
/// repositories in order, each repository's packages in order, minus
/// packages not installable on the host and, with the priorities plugin
/// on, packages a repository with a strictly lower priority value
/// shadows. The order is the solver's tie-break order.
///
/// Only a strictly lower priority value shadows, so with one enabled
/// repository, or all at one priority, nothing is looked up. Otherwise
/// only packages of repositories above the lowest priority are looked
/// up, in a sorted name table of the repositories below the highest.
pub(crate) fn candidates<'a>(
    repos: &'a [Repository],
    config: &YumConfig,
) -> Vec<(&'a Repository, &'a Arc<Package>)> {
    let enabled = || repos.iter().filter(|r| r.enabled);
    let lowest = enabled().map(|r| r.priority).min().unwrap_or(0);
    let highest = enabled().map(|r| r.priority).max().unwrap_or(0);
    let shadowing = config.plugin_priorities && lowest < highest;
    // name -> lowest priority value carrying it, over the repositories
    // that can shadow anything
    let mut shadows: Vec<(&str, u32)> = Vec::new();
    if shadowing {
        for repo in enabled().filter(|r| r.priority < highest) {
            shadows.extend(repo.packages().iter().map(|p| (p.name(), repo.priority)));
        }
        shadows.sort_unstable();
        shadows.dedup_by_key(|(name, _)| *name);
    }
    let shadowed = |repo: &Repository, p: &Package| {
        shadowing
            && repo.priority > lowest
            && shadows
                .binary_search_by(|(name, _)| (*name).cmp(p.name()))
                .is_ok_and(|i| shadows[i].1 < repo.priority)
    };
    let mut out = Vec::with_capacity(enabled().map(Repository::package_count).sum());
    for repo in enabled() {
        for p in repo.packages() {
            if p.arch().installable_on(config.host_arch) && !shadowed(repo, p) {
                out.push((repo, p));
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

    fn survivors(repos: &[Repository]) -> Vec<(&Repository, &Arc<Package>)> {
        candidates(repos, &YumConfig::default())
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
        let repos = [base, xsede];
        let survivors = survivors(&repos);
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
        let repos = [base, xsede];
        assert_eq!(survivors(&repos).len(), 2);
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
        let repos = [a, b];
        assert_eq!(survivors(&repos).len(), 2, "equal priority does not shadow");
    }

    #[test]
    fn middle_priority_shadows_only_the_worse_one() {
        let name = |n: &str| PackageBuilder::new(n, "1", "1").build();
        let repos = [
            repo("top", 1, vec![name("a")]),
            repo("mid", 10, vec![name("a"), name("b")]),
            repo("low", 50, vec![name("b"), name("c")]),
        ];
        let kept: Vec<(&str, &str)> = survivors(&repos)
            .iter()
            .map(|(r, p)| (r.id.as_str(), p.name()))
            .collect();
        assert_eq!(kept, [("top", "a"), ("mid", "b"), ("low", "c")]);
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
        assert_eq!(survivors(&[a]).len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(survivors(&[]).is_empty());
    }
}
