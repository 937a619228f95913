//! Module collections (`module save` / `module restore`) — the workflow
//! bits users carry between clusters.
//!
//! The paper's portability argument ("A user's knowledge of software,
//! system commands, etc., becomes portable from one cluster built with
//! XCBC to another") is strongest when a user can save their module set
//! on a campus cluster and restore it on an XSEDE machine.

use crate::system::{ModuleError, ModuleSystem};
use std::collections::BTreeMap;

/// A named, saved set of loaded modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collection {
    pub name: String,
    /// Module keys in load order.
    pub modules: Vec<String>,
}

/// Storage for collections (`~/.module/` equivalent).
#[derive(Debug, Default)]
pub struct CollectionStore {
    collections: BTreeMap<String, Collection>,
}

impl CollectionStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// `module save <name>`: snapshot the currently loaded set.
    pub fn save(&mut self, name: &str, system: &ModuleSystem) -> &Collection {
        let c = Collection {
            name: name.to_string(),
            modules: system.list().to_vec(),
        };
        self.collections.insert(name.to_string(), c);
        &self.collections[name]
    }

    /// `module restore <name>`: purge, then load the saved set in order.
    /// Returns the keys loaded. Fails on the first module the target
    /// system lacks — the portability check.
    pub fn restore(
        &self,
        name: &str,
        system: &mut ModuleSystem,
    ) -> Result<Vec<String>, ModuleError> {
        let c = self
            .collections
            .get(name)
            .ok_or_else(|| ModuleError::NotFound(format!("collection {name}")))?;
        system.purge();
        let mut loaded = Vec::new();
        for key in &c.modules {
            loaded.push(system.load(key)?);
        }
        Ok(loaded)
    }

    pub fn list(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulefile::Modulefile;

    fn campus_cluster() -> ModuleSystem {
        let mut s = ModuleSystem::new();
        s.add(Modulefile::new("openmpi", "1.6.5").prepend_path("PATH", "/usr/lib64/openmpi/bin"));
        s.add(Modulefile::new("gromacs", "4.6.5").prereq("openmpi"));
        s.add(Modulefile::new("R", "3.0.2").prepend_path("PATH", "/usr/lib64/R/bin"));
        s
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut campus = campus_cluster();
        campus.load("openmpi").unwrap();
        campus.load("gromacs").unwrap();
        let mut store = CollectionStore::new();
        store.save("md-work", &campus);

        // restore on a *different* XCBC cluster with the same software
        let mut xsede = campus_cluster();
        let loaded = store.restore("md-work", &mut xsede).unwrap();
        assert_eq!(loaded, vec!["openmpi/1.6.5", "gromacs/4.6.5"]);
        assert_eq!(xsede.list(), campus.list());
    }

    #[test]
    fn restore_purges_first() {
        let mut s = campus_cluster();
        s.load("R").unwrap();
        let mut store = CollectionStore::new();
        let mut donor = campus_cluster();
        donor.load("openmpi").unwrap();
        store.save("mpi-only", &donor);
        store.restore("mpi-only", &mut s).unwrap();
        assert_eq!(s.list(), &["openmpi/1.6.5"]);
    }

    #[test]
    fn restore_fails_on_incompatible_cluster() {
        // the anti-portability case: a cluster NOT built with XCBC lacks
        // the software
        let mut campus = campus_cluster();
        campus.load("R").unwrap();
        let mut store = CollectionStore::new();
        store.save("stats", &campus);

        let mut bare = ModuleSystem::new(); // nothing installed
        assert!(matches!(
            store.restore("stats", &mut bare),
            Err(ModuleError::NotFound(_))
        ));
    }

    #[test]
    fn unknown_collection() {
        let store = CollectionStore::new();
        let mut s = campus_cluster();
        assert!(store.restore("nope", &mut s).is_err());
        assert!(store.list().is_empty());
    }
}
