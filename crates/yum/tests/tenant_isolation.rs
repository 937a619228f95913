//! Tenant-isolation properties of the sharded, salted solve cache:
//! concurrent tenants routed through one [`ShardedSolveCache`] can
//! never observe each other's entries, and the per-shard counters
//! account for every lookup exactly once.

use proptest::prelude::*;
use std::sync::Arc;
use xcbc_rpm::{PackageBuilder, RpmDb};
use xcbc_yum::{Repository, ShardedSolveCache, SolveCache, SolveRequest, Solver, YumConfig};

/// A small solvable catalog: `pkg{i}` requires `pkg{i-1}`.
fn chain_repo(n: usize) -> Repository {
    let mut repo = Repository::new("gen", "generated");
    for i in 0..n {
        let mut b = PackageBuilder::new(&format!("pkg{i}"), "1.0", "1");
        if i > 0 {
            b = b.requires_simple(&format!("pkg{}", i - 1));
        }
        repo.add_package(b.build());
    }
    repo
}

proptest! {
    /// Identical requests under distinct tenant salts occupy distinct
    /// entries: neither tenant's probe can be answered by (or even see)
    /// the other's cached solution.
    #[test]
    fn identical_requests_stay_tenant_disjoint(
        n in 2usize..10,
        shards in 1usize..6,
        target in 0usize..10,
    ) {
        let repos = vec![chain_repo(n)];
        let cfg = YumConfig::default();
        let db = RpmDb::new();
        let req = SolveRequest::install([format!("pkg{}", target % n).as_str()]);
        let bank = ShardedSolveCache::new(shards);

        let salt_a = ShardedSolveCache::tenant_salt("campus-a");
        let salt_b = ShardedSolveCache::tenant_salt("campus-b");
        prop_assert_ne!(salt_a, salt_b);

        let solver = Solver::new(&repos, &cfg);
        bank.get_or_solve(salt_a, &solver, &db, &req).unwrap();
        // tenant B's first probe of the very same request must miss
        bank.get_or_solve(salt_b, &solver, &db, &req).unwrap();
        let stats = bank.stats();
        prop_assert_eq!(stats.hits, 0, "tenant B observed tenant A's entry");
        prop_assert_eq!(stats.misses, 2);
        prop_assert_eq!(stats.entries, 2);

        // cross-tenant peek at the other tenant's key misses too
        let key_b = SolveCache::salted_key(salt_b, &repos, &cfg, &db, &req);
        prop_assert!(bank.peek(key_b).is_some());
        let key_a = SolveCache::salted_key(salt_a, &repos, &cfg, &db, &req);
        prop_assert_ne!(key_a, key_b);
    }

    /// Concurrent tenants hammering one bank: every lookup lands in some
    /// shard's counters, the entry count equals the number of distinct
    /// (tenant, request) pairs, and each tenant's second pass is all hits
    /// — i.e. warmth is per-tenant, never borrowed across tenants.
    #[test]
    fn concurrent_tenants_account_per_shard(
        n in 2usize..8,
        shards in 1usize..5,
        tenants in 2usize..5,
    ) {
        let repos = vec![chain_repo(n)];
        let cfg = YumConfig::default();
        let bank = Arc::new(ShardedSolveCache::new(shards));
        let req = SolveRequest::install([format!("pkg{}", n - 1).as_str()]);
        // one view shared by every tenant thread, as `xcbcd` shares it
        let solver = Solver::new(&repos, &cfg);

        std::thread::scope(|scope| {
            for t in 0..tenants {
                let bank = Arc::clone(&bank);
                let (solver, req) = (&solver, req.clone());
                scope.spawn(move || {
                    let db = RpmDb::new();
                    let salt = ShardedSolveCache::tenant_salt(&format!("tenant-{t}"));
                    let first = bank.get_or_solve(salt, solver, &db, &req).unwrap();
                    let second = bank.get_or_solve(salt, solver, &db, &req).unwrap();
                    assert!(Arc::ptr_eq(&first, &second));
                });
            }
        });

        let stats = bank.stats();
        prop_assert_eq!(stats.entries, tenants, "one entry per tenant");
        prop_assert_eq!(stats.hits + stats.misses, 2 * tenants as u64);
        prop_assert_eq!(stats.misses, tenants as u64, "no tenant borrowed another's warmth");
        let per_shard = bank.shard_stats();
        prop_assert_eq!(per_shard.len(), shards);
        let summed: usize = per_shard.iter().map(|s| s.entries).sum();
        prop_assert_eq!(summed, stats.entries, "aggregate equals the shard sum");
    }
}
