//! Metadata caching (`yum makecache` / `metadata_expire`).
//!
//! Yum refreshes repository metadata only when the cached copy is older
//! than `metadata_expire` — the reason the paper says "Yum still requires
//! an administrator to periodically run update checks": nothing happens
//! until something asks, and what it sees can be stale.

use crate::metadata::RepoMetadata;
use crate::repo::Repository;
use std::collections::HashMap;

/// A metadata cache over repositories, with simulated clock control.
#[derive(Debug, Default)]
pub struct MetadataCache {
    /// repo id → (fetch time, metadata).
    entries: HashMap<String, (f64, RepoMetadata)>,
    /// Seconds before a cached copy is considered stale (yum default:
    /// 90 minutes).
    pub expire_s: f64,
    /// Fetches performed (metric: how often we went to the mirror).
    pub fetches: u64,
}

impl MetadataCache {
    pub fn new(expire_s: f64) -> Self {
        MetadataCache {
            entries: HashMap::new(),
            expire_s,
            fetches: 0,
        }
    }

    /// Yum's default 90-minute expiry.
    pub fn with_default_expiry() -> Self {
        Self::new(90.0 * 60.0)
    }

    /// Get metadata for `repo` at simulated time `now_s`, refreshing if
    /// missing or stale. Returns `(metadata, was_fetched)`.
    pub fn get(&mut self, repo: &Repository, now_s: f64) -> (&RepoMetadata, bool) {
        let stale = match self.entries.get(&repo.id) {
            None => true,
            Some((t, _)) => now_s - t >= self.expire_s,
        };
        if stale {
            self.fetches += 1;
            self.entries
                .insert(repo.id.clone(), (now_s, repo.metadata()));
        }
        (&self.entries.get(&repo.id).expect("just inserted").1, stale)
    }

    /// `yum clean metadata`.
    pub fn clean(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repo() -> Repository {
        let mut r = Repository::new("xsede", "XSEDE");
        r.add_package(PackageBuilder::new("gromacs", "4.6.5", "1").build());
        r
    }

    #[test]
    fn first_access_fetches() {
        let r = repo();
        let mut cache = MetadataCache::with_default_expiry();
        let (_, fetched) = cache.get(&r, 0.0);
        assert!(fetched);
        assert_eq!(cache.fetches, 1);
    }

    #[test]
    fn within_expiry_serves_cache() {
        let r = repo();
        let mut cache = MetadataCache::new(3600.0);
        cache.get(&r, 0.0);
        let (_, fetched) = cache.get(&r, 1800.0);
        assert!(!fetched);
        assert_eq!(cache.fetches, 1);
    }

    #[test]
    fn past_expiry_refetches() {
        let r = repo();
        let mut cache = MetadataCache::new(3600.0);
        cache.get(&r, 0.0);
        let (_, fetched) = cache.get(&r, 3600.0);
        assert!(fetched);
        assert_eq!(cache.fetches, 2);
    }

    #[test]
    fn refresh_picks_up_new_revision() {
        let mut r = repo();
        let mut cache = MetadataCache::new(3600.0);
        cache.get(&r, 0.0);
        // upstream publishes an update; the next refresh carries it
        r.add_package(PackageBuilder::new("gromacs", "4.6.7", "1").build());
        let (md, fetched) = cache.get(&r, 4000.0);
        assert!(fetched);
        assert_eq!(md.revision, r.revision);
    }

    #[test]
    fn clean_forces_refetch() {
        let r = repo();
        let mut cache = MetadataCache::new(f64::INFINITY);
        cache.get(&r, 0.0);
        cache.clean();
        let (_, fetched) = cache.get(&r, 1.0);
        assert!(fetched);
    }
}
