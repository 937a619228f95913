//! A Yum repository: identity, state, and the packages it carries.
//!
//! Packages are held behind [`Arc`], so cloning a repository (attaching
//! the shared XNIT repository to another engine, say) copies pointers,
//! not Requires/Provides payloads, and a solver can hand the repository's
//! own packages to a [`crate::Solution`] without copying them.

use std::sync::Arc;
use xcbc_rpm::{Dependency, Evr, Package};

/// A package repository, e.g. `base`, `updates`, or the paper's `xsede`
/// repo at `http://cb-repo.iu.xsede.org/xsederepo/`.
#[derive(Debug, Clone)]
pub struct Repository {
    /// Short id used in `.repo` section headers (e.g. `xsede`).
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Base URL of the repo.
    pub baseurl: String,
    /// Disabled repos are invisible to the solver.
    pub enabled: bool,
    /// Priority for `yum-plugin-priorities` (1 = highest; yum default 99).
    pub priority: u32,
    /// Whether GPG signature checking is on.
    pub gpgcheck: bool,
    /// Metadata revision, bumped on every package change (repomd revision).
    pub revision: u64,
    packages: Vec<Arc<Package>>,
}

impl Repository {
    pub fn new(id: impl Into<String>, name: impl Into<String>) -> Self {
        let id = id.into();
        Repository {
            baseurl: format!("http://cb-repo.iu.xsede.org/{id}/"),
            id,
            name: name.into(),
            enabled: true,
            priority: 99,
            gpgcheck: true,
            revision: 0,
            packages: Vec::new(),
        }
    }

    /// Builder-style priority setter (the README for the XSEDE repo tells
    /// admins to install `yum-plugin-priorities` and set one).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_baseurl(mut self, url: impl Into<String>) -> Self {
        self.baseurl = url.into();
        self
    }

    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }

    /// Add one package (createrepo + upload, in real life).
    pub fn add_package(&mut self, p: Package) {
        self.revision += 1;
        self.packages.push(Arc::new(p));
    }

    /// Add many packages.
    pub fn add_packages(&mut self, ps: impl IntoIterator<Item = Package>) {
        for p in ps {
            self.add_package(p);
        }
    }

    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    pub fn packages(&self) -> &[Arc<Package>] {
        &self.packages
    }

    /// All candidates with the given name.
    pub fn by_name(&self, name: &str) -> Vec<&Package> {
        self.packages
            .iter()
            .filter(|p| p.name() == name)
            .map(|p| &**p)
            .collect()
    }

    /// Newest candidate with the given name.
    pub fn newest(&self, name: &str) -> Option<&Package> {
        self.by_name(name)
            .into_iter()
            .max_by(|a, b| a.nevra.evr.cmp(&b.nevra.evr))
    }

    /// Specific NEVR lookup.
    pub fn find(&self, name: &str, evr: &Evr) -> Option<&Package> {
        self.packages
            .iter()
            .find(|p| p.name() == name && p.evr() == evr)
            .map(|p| &**p)
    }

    /// Candidates satisfying a dependency (capability or file).
    pub fn whatprovides(&self, req: &Dependency) -> Vec<&Package> {
        self.packages
            .iter()
            .filter(|p| p.satisfies(req))
            .map(|p| &**p)
            .collect()
    }

    /// Total payload size in bytes.
    pub fn total_size_bytes(&self) -> u64 {
        self.packages.iter().map(|p| p.size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repo() -> Repository {
        let mut r = Repository::new("xsede", "XSEDE National Integration Toolkit");
        r.add_package(PackageBuilder::new("R", "3.0.2", "1.el6").build());
        r.add_package(PackageBuilder::new("R", "3.1.0", "1.el6").build());
        r.add_package(
            PackageBuilder::new("openmpi", "1.6.5", "1.el6")
                .provides_versioned("mpi")
                .build(),
        );
        r
    }

    #[test]
    fn defaults() {
        let r = Repository::new("xsede", "x");
        assert!(r.enabled);
        assert_eq!(r.priority, 99);
        assert!(r.baseurl.contains("xsede"));
        assert_eq!(r.package_count(), 0);
    }

    #[test]
    fn newest_picks_highest() {
        let r = repo();
        assert_eq!(r.newest("R").unwrap().evr().version, "3.1.0");
        assert!(r.newest("nope").is_none());
    }

    #[test]
    fn whatprovides_capability() {
        let r = repo();
        let hits = r.whatprovides(&Dependency::parse("mpi >= 1.6"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name(), "openmpi");
    }

    #[test]
    fn revision_bumps_on_change() {
        let mut r = repo();
        let rev = r.revision;
        r.add_package(PackageBuilder::new("hdf5", "1.8.9", "1").build());
        assert_eq!(r.revision, rev + 1);
    }

    #[test]
    fn find_exact() {
        let r = repo();
        assert!(r.find("R", &Evr::parse("3.0.2-1.el6")).is_some());
        assert!(r.find("R", &Evr::parse("9.9-1")).is_none());
    }
}
