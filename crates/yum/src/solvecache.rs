//! A concurrent, fleet-shared memo table for depsolve results.
//!
//! Deploying a fleet of near-identical sites re-runs the same dependency
//! closures over and over: every site asks for the same XNIT overlay
//! against the same repositories. [`SolveCache`] memoizes [`Solution`]s
//! keyed by the triple of fingerprints a solve is a pure function of —
//! (repositories + config, installed database, normalized request) —
//! so the second site onward pays one hash lookup instead of a BFS walk.
//!
//! The map sits behind an [`RwLock`]: readers probe it under a read
//! lock, and the (rare) writer inserts in place under the write lock.
//! Cached [`Solution`]s hold `Arc<Package>`s, so a hit shares package
//! payloads across threads without cloning until a site commits the
//! solution into a transaction.
//!
//! Hit/miss counters are plain atomics, exported through the shared
//! [`MetricRegistry`] (see
//! [`register_metrics`](SolveCache::register_metrics)) as
//! `xcbc_solvecache_*` series next to the gmond/gmetad node metrics.
//! The totals depend only on the lookups made, not on how concurrent
//! lookups interleave: a miss whose solve loses the insert race to an
//! equal key is recounted as a hit (see [`insert`](SolveCache::insert)),
//! so two sites missing one key at once count exactly as when one runs
//! after the other. Which site gets the hit still depends on
//! scheduling, so the counters stay out of per-site traces (which must
//! be byte-identical at any thread count).

use crate::fingerprint::{db_fingerprint, repos_fingerprint, Fnv64};
use crate::repo::Repository;
use crate::solver::{Solution, SolveError, SolveRequest, Solver};
use crate::YumConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use xcbc_rpm::RpmDb;
use xcbc_sim::MetricRegistry;

/// Trace source for cache telemetry events.
pub const SOLVECACHE_TRACE_SOURCE: &str = "yum.solvecache";

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Distinct solutions currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Field-wise totals, e.g. a sharded bank's per-shard counters summed
/// into one bank-wide figure.
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |total, s| CacheStats {
            hits: total.hits + s.hits,
            misses: total.misses + s.misses,
            entries: total.entries + s.entries,
        })
    }
}

/// The concurrent solve cache. Cheap to share: wrap it in an [`Arc`]
/// and hand clones to every fleet worker.
#[derive(Debug, Default)]
pub struct SolveCache {
    map: RwLock<HashMap<u64, Arc<Solution>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> SolveCache {
        SolveCache::default()
    }

    /// The cache key for a solve over `repos`/`config` against `db` for
    /// the normalized `request`.
    pub fn key(
        repos: &[Repository],
        config: &YumConfig,
        db: &RpmDb,
        request: &SolveRequest,
    ) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(repos_fingerprint(repos, config))
            .write_u64(db_fingerprint(db))
            .write_u64(request.digest());
        h.finish()
    }

    /// [`key`](Self::key) mixed with a caller-chosen `salt`. Salt `0` is
    /// the identity (so unsalted callers keep their historical keys);
    /// any other value partitions the key space, which is how the
    /// multi-tenant service keeps one tenant's cached solutions
    /// unobservable by another even when both sit in the same shard.
    pub fn salted_key(
        salt: u64,
        repos: &[Repository],
        config: &YumConfig,
        db: &RpmDb,
        request: &SolveRequest,
    ) -> u64 {
        let base = Self::key(repos, config, db, request);
        if salt == 0 {
            base
        } else {
            let mut h = Fnv64::new();
            h.write_u64(salt).write_u64(base);
            h.finish()
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<Solution>>> {
        self.map.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Probe the cache, bumping the hit/miss counter.
    pub fn lookup(&self, key: u64) -> Option<Arc<Solution>> {
        let hit = self.peek(key);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Probe the cache without touching the hit/miss counters. This is
    /// the read path for invariant checkers (xcbc-check's SolveCache
    /// coherence audit): they must be able to inspect cached solutions
    /// without perturbing the statistics the run under test reports.
    pub fn peek(&self, key: u64) -> Option<Arc<Solution>> {
        self.read().get(&key).map(Arc::clone)
    }

    /// Store the solution of a [`lookup`](Self::lookup) that missed,
    /// returning the shared handle. If another thread raced the same key
    /// in first, its entry wins (both computed the same deterministic
    /// solution, so either is correct) and that lookup's miss is
    /// recounted as a hit: had the lookups run one after the other, it
    /// would have hit.
    pub fn insert(&self, key: u64, solution: Solution) -> Arc<Solution> {
        let mut guard = self.map.write().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = guard.get(&key) {
            self.misses.fetch_sub(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        let shared = Arc::new(solution);
        guard.insert(key, Arc::clone(&shared));
        shared
    }

    /// The memoizing front door: answer from the cache, or run the
    /// solver and remember the result. Errors are not cached — a failed
    /// solve re-runs (repositories may have gained the missing package).
    pub fn get_or_solve(
        &self,
        repos: &[Repository],
        config: &YumConfig,
        db: &RpmDb,
        request: &SolveRequest,
    ) -> Result<Arc<Solution>, SolveError> {
        self.get_or_solve_salted(0, repos, config, db, request)
    }

    /// [`get_or_solve`](Self::get_or_solve) under a key salt (see
    /// [`salted_key`](Self::salted_key)). Distinct salts never share
    /// entries: a hit under salt A says nothing about salt B. The solver
    /// view is built only on a miss.
    pub fn get_or_solve_salted(
        &self,
        salt: u64,
        repos: &[Repository],
        config: &YumConfig,
        db: &RpmDb,
        request: &SolveRequest,
    ) -> Result<Arc<Solution>, SolveError> {
        let key = Self::salted_key(salt, repos, config, db, request);
        self.get_or_solve_keyed(key, || Solver::new(repos, config).resolve(db, request))
    }

    /// The lookup → solve → insert body under a precomputed salted key.
    fn get_or_solve_keyed(
        &self,
        key: u64,
        solve: impl FnOnce() -> Result<Solution, SolveError>,
    ) -> Result<Arc<Solution>, SolveError> {
        if let Some(hit) = self.lookup(key) {
            return Ok(hit);
        }
        Ok(self.insert(key, solve()?))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.read().len(),
        }
    }

    /// Export the cache counters into a [`MetricRegistry`] — the one
    /// place fleet-level telemetry is reported. Which site hit depends
    /// on scheduling, so the counters register here rather than into
    /// per-site traces (which must stay byte-identical at any thread
    /// count).
    pub fn register_metrics(&self, registry: &mut MetricRegistry) {
        let stats = self.stats();
        registry.set_counter(
            "xcbc_solvecache_hits_total",
            "Depsolve lookups answered from the shared cache",
            &[],
            stats.hits,
        );
        registry.set_counter(
            "xcbc_solvecache_misses_total",
            "Depsolve lookups that fell through to a real solve",
            &[],
            stats.misses,
        );
        registry.set_gauge(
            "xcbc_solvecache_entries",
            "Distinct solutions currently stored",
            &[],
            stats.entries as f64,
        );
    }
}

/// A bank of independent [`SolveCache`] shards, routed by salted
/// request digest. This is the multi-tenant service's cache plane:
/// each tenant derives a non-zero salt from its name
/// ([`tenant_salt`](ShardedSolveCache::tenant_salt)), the salted key
/// picks a shard, and hit/miss counters live **per shard** rather than
/// in one process-global pair — so shard occupancy and hit rates stay
/// attributable under the `xcbc_svc_*` metric families.
///
/// Isolation falls out of the salting, not the sharding: two tenants
/// may well land in the same shard, but their keys never collide, so
/// neither can observe (or be served) the other's entries.
#[derive(Debug)]
pub struct ShardedSolveCache {
    shards: Vec<Arc<SolveCache>>,
}

impl ShardedSolveCache {
    /// A bank of `shards` empty caches (clamped to at least one).
    pub fn new(shards: usize) -> ShardedSolveCache {
        ShardedSolveCache {
            shards: (0..shards.max(1))
                .map(|_| Arc::new(SolveCache::new()))
                .collect(),
        }
    }

    /// The canonical non-zero salt for a tenant name (FNV-1a over the
    /// name, with the zero value remapped since salt 0 means unsalted).
    pub fn tenant_salt(tenant: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(tenant.as_bytes());
        let salt = h.finish();
        if salt == 0 {
            0x9e3779b97f4a7c15
        } else {
            salt
        }
    }

    /// Which shard a salted key routes to.
    fn shard_index(&self, key: u64) -> usize {
        // fold the high bits in so the modulo sees the whole key
        ((key ^ (key >> 32)) % self.shards.len() as u64) as usize
    }

    /// The shard a salted key routes to.
    pub fn shard(&self, key: u64) -> &Arc<SolveCache> {
        &self.shards[self.shard_index(key)]
    }

    /// A tenant's *home* shard: where engine entry points that compute
    /// their own keys internally (the XNIT overlay deploy path) park
    /// that tenant's solves. Routed by the tenant salt itself so the
    /// choice is stable across requests.
    pub fn home_shard(&self, salt: u64) -> &Arc<SolveCache> {
        self.shard(salt)
    }

    /// Memoized solve against a prebuilt solver view, routed to the
    /// shard the salted key selects. The key covers the view's
    /// repositories and configuration, so one view can serve every
    /// tenant of a run.
    pub fn get_or_solve(
        &self,
        salt: u64,
        solver: &Solver<'_>,
        db: &RpmDb,
        request: &SolveRequest,
    ) -> Result<Arc<Solution>, SolveError> {
        let key = SolveCache::salted_key(salt, solver.repos(), solver.config(), db, request);
        self.shard(key)
            .get_or_solve_keyed(key, || solver.resolve(db, request))
    }

    /// Counter-neutral probe across the bank (routes like
    /// [`get_or_solve`](Self::get_or_solve), touches no counters).
    pub fn peek(&self, key: u64) -> Option<Arc<Solution>> {
        self.shard(key).peek(key)
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Bank-wide aggregate of the per-shard counters.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().map(|s| s.stats()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repos() -> Vec<Repository> {
        let mut r = Repository::new("xsede", "XSEDE");
        r.add_package(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("openmpi")
                .build(),
        );
        r.add_package(PackageBuilder::new("openmpi", "1.6.5", "1").build());
        vec![r]
    }

    #[test]
    fn hit_after_identical_request() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);

        let first = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        let second = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second solve must be shared");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn equivalent_requests_share_one_entry() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        cache
            .get_or_solve(&repos, &cfg, &db, &SolveRequest::install(["gromacs"]))
            .unwrap();
        // duplicate targets normalize away → same key, cache hit
        cache
            .get_or_solve(
                &repos,
                &cfg,
                &db,
                &SolveRequest::install(["gromacs", "gromacs"]),
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn miss_after_repo_mutation() {
        let cache = SolveCache::new();
        let mut repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);

        cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        // mutate the repo: revision bumps, fingerprint changes, entry invalid
        repos[0].add_package(PackageBuilder::new("R", "3.1.0", "1").build());
        cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "mutated repo must not hit");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn miss_after_db_mutation() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let mut db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        db.install(PackageBuilder::new("openmpi", "1.6.5", "1").build());
        let sol = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        assert_eq!(cache.stats().misses, 2, "db change must re-solve");
        assert_eq!(sol.installs.len(), 1, "openmpi now satisfied by db");

        // erase returns the db to its first state: the memoized digest
        // must follow, so the first entry answers (a stale digest would
        // serve the one-install solution above)
        db.erase("openmpi");
        let sol = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
        assert_eq!(sol.installs.len(), 2, "erase must reset the db digest");

        // erase_exact back to {openmpi}: the second entry answers (a
        // stale digest would serve the empty gromacs-installed solution)
        db.install(PackageBuilder::new("openmpi", "1.6.5", "1").build());
        db.install(PackageBuilder::new("gromacs", "4.6.5", "2").build());
        assert!(cache
            .get_or_solve(&repos, &cfg, &db, &req)
            .unwrap()
            .is_empty());
        db.erase_exact("gromacs", &xcbc_rpm::Evr::parse("4.6.5-2"));
        let sol = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 3));
        assert_eq!(
            sol.installs.len(),
            1,
            "erase_exact must reset the db digest"
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SolveCache::new();
        let mut repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["meep"]);
        assert!(cache.get_or_solve(&repos, &cfg, &db, &req).is_err());
        assert_eq!(cache.stats().entries, 0);
        // the repo gains the package: the retry must succeed (and miss,
        // because the fingerprint moved with the revision)
        repos[0].add_package(PackageBuilder::new("meep", "1.2.1", "1").build());
        assert!(cache.get_or_solve(&repos, &cfg, &db, &req).is_ok());
    }

    #[test]
    fn counters_register_into_shared_registry() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
        cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();

        let mut registry = MetricRegistry::new();
        cache.register_metrics(&mut registry);
        assert_eq!(
            registry.counter_value("xcbc_solvecache_hits_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("xcbc_solvecache_misses_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.gauge_value("xcbc_solvecache_entries", &[]),
            Some(1.0)
        );
        let prom = registry.render_prometheus();
        assert!(prom.contains("xcbc_solvecache_hits_total 1"), "{prom}");
    }

    #[test]
    fn salt_zero_is_the_identity_key() {
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        assert_eq!(
            SolveCache::salted_key(0, &repos, &cfg, &db, &req),
            SolveCache::key(&repos, &cfg, &db, &req),
        );
        assert_ne!(
            SolveCache::salted_key(7, &repos, &cfg, &db, &req),
            SolveCache::key(&repos, &cfg, &db, &req),
        );
    }

    #[test]
    fn distinct_salts_never_share_entries() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        cache
            .get_or_solve_salted(1, &repos, &cfg, &db, &req)
            .unwrap();
        cache
            .get_or_solve_salted(2, &repos, &cfg, &db, &req)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn sharded_counters_are_per_shard() {
        let bank = ShardedSolveCache::new(4);
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        let salt = ShardedSolveCache::tenant_salt("campus-a");
        let solver = Solver::new(&repos, &cfg);
        bank.get_or_solve(salt, &solver, &db, &req).unwrap();
        bank.get_or_solve(salt, &solver, &db, &req).unwrap();

        let key = SolveCache::salted_key(salt, &repos, &cfg, &db, &req);
        let home = bank.shard_index(key);
        let stats = bank.shard_stats();
        assert_eq!((stats[home].hits, stats[home].misses), (1, 1));
        for (i, s) in stats.iter().enumerate() {
            if i != home {
                assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0), "shard {i}");
            }
        }
        assert_eq!(bank.stats().entries, 1);
        assert!(bank.peek(key).is_some());
    }

    #[test]
    fn a_miss_that_loses_the_insert_race_counts_as_a_hit() {
        let cache = SolveCache::new();
        let repos = repos();
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install(["gromacs"]);
        let key = SolveCache::key(&repos, &cfg, &db, &req);
        let solve = || Solver::new(&repos, &cfg).resolve(&db, &req).unwrap();
        // two sites miss the same key before either inserts
        assert!(cache.lookup(key).is_none());
        assert!(cache.lookup(key).is_none());
        let first = cache.insert(key, solve());
        let second = cache.insert(key, solve());
        assert!(Arc::ptr_eq(&first, &second), "the first insert wins");
        // the same totals as one lookup after the other
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn concurrent_lookups_share_solutions() {
        let cache = Arc::new(SolveCache::new());
        let repos = Arc::new(repos());
        let cfg = Arc::new(YumConfig::default());
        let req = SolveRequest::install(["gromacs"]);

        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let repos = Arc::clone(&repos);
                let cfg = Arc::clone(&cfg);
                let req = req.clone();
                scope.spawn(move || {
                    let db = RpmDb::new();
                    let sol = cache.get_or_solve(&repos, &cfg, &db, &req).unwrap();
                    assert_eq!(sol.installs.len(), 2);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1), "one solve counted");
        assert_eq!(stats.entries, 1, "all threads share one entry");
    }
}
