//! Property-based tests for the RPM substrate: rpmvercmp is a total order,
//! EVR ordering is consistent, transactions preserve database
//! invariants, and the memoized database digest never goes stale.

use proptest::prelude::*;
use std::cmp::Ordering;
use xcbc_rpm::{rpmvercmp, Dependency, Evr, Fnv64, PackageBuilder, RpmDb, TransactionSet};

/// The database digest computed from scratch: FNV-1a over every
/// installed NEVRA in name order. The oracle for the memoized
/// [`RpmDb::digest`].
fn digest_from_scratch(db: &RpmDb) -> u64 {
    let mut h = Fnv64::new();
    for ip in db.iter() {
        h.write_str(&ip.package.nevra.to_string());
    }
    h.finish()
}

/// Version-string alphabet close to what real RPM versions use.
fn version_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[0-9a-z.~^_]{0,12}").unwrap()
}

proptest! {
    /// Antisymmetry: cmp(a,b) is the reverse of cmp(b,a).
    #[test]
    fn vercmp_antisymmetric(a in version_strategy(), b in version_strategy()) {
        prop_assert_eq!(rpmvercmp(&a, &b), rpmvercmp(&b, &a).reverse());
    }

    /// Reflexivity.
    #[test]
    fn vercmp_reflexive(a in version_strategy()) {
        prop_assert_eq!(rpmvercmp(&a, &a), Ordering::Equal);
    }

    /// Transitivity over random triples.
    #[test]
    fn vercmp_transitive(a in version_strategy(), b in version_strategy(), c in version_strategy()) {
        let mut v = [a, b, c];
        v.sort_by(|x, y| rpmvercmp(x, y));
        // after sorting, pairwise order must be consistent
        prop_assert_ne!(rpmvercmp(&v[0], &v[1]), Ordering::Greater);
        prop_assert_ne!(rpmvercmp(&v[1], &v[2]), Ordering::Greater);
        prop_assert_ne!(rpmvercmp(&v[0], &v[2]), Ordering::Greater);
    }

    /// Appending a ~suffix never makes a version newer.
    #[test]
    fn tilde_suffix_never_newer(a in proptest::string::string_regex("[0-9a-z.]{1,8}").unwrap()) {
        let pre = format!("{a}~rc1");
        prop_assert_eq!(rpmvercmp(&pre, &a), Ordering::Less);
    }

    /// Evr::parse . to_string . parse is a fixpoint.
    #[test]
    fn evr_display_parse_fixpoint(
        e in 0u32..5,
        v in proptest::string::string_regex("[0-9][0-9a-z.]{0,6}").unwrap(),
        r in proptest::string::string_regex("[0-9][0-9a-z.]{0,6}").unwrap(),
    ) {
        let evr = Evr::new(e, v, r);
        let reparsed = Evr::parse(&evr.to_string());
        prop_assert_eq!(reparsed, evr);
    }

    /// A self-provide always satisfies an unversioned require of the same
    /// name and an >= require at or below its version.
    #[test]
    fn self_provide_satisfies(
        v1 in 1u32..50, v2 in 1u32..50,
    ) {
        let pkg = PackageBuilder::new("p", &format!("{v1}.0"), "1").build();
        let req = Dependency::parse(&format!("p >= {v2}.0"));
        prop_assert_eq!(pkg.satisfies(&req), v1 >= v2);
    }

    /// Installing a dependency-closed random set and erasing it in reverse
    /// leaves the database empty and clean at every step.
    #[test]
    fn install_erase_roundtrip(n in 1usize..12) {
        let mut db = RpmDb::new();
        // chain: p0 <- p1 <- ... <- p(n-1)
        let mut tx = TransactionSet::new();
        for i in 0..n {
            let mut b = PackageBuilder::new(&format!("p{i}"), "1.0", "1");
            if i > 0 {
                b = b.requires_simple(&format!("p{}", i - 1));
            }
            tx.add_install(b.build());
        }
        prop_assert!(tx.check(&db).is_empty());
        tx.run(&mut db).unwrap();
        prop_assert!(db.verify().is_empty());
        prop_assert_eq!(db.len(), n);

        // erase from the top of the chain down
        for i in (0..n).rev() {
            let mut etx = TransactionSet::new();
            etx.add_erase(format!("p{i}"));
            prop_assert!(etx.check(&db).is_empty(), "erase p{} should be safe", i);
            etx.run(&mut db).unwrap();
            prop_assert!(db.verify().is_empty());
        }
        prop_assert!(db.is_empty());
    }

    /// Erasing the *bottom* of a dependency chain is always rejected while
    /// dependents remain.
    #[test]
    fn erase_bottom_rejected(n in 2usize..10) {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        for i in 0..n {
            let mut b = PackageBuilder::new(&format!("p{i}"), "1.0", "1");
            if i > 0 {
                b = b.requires_simple(&format!("p{}", i - 1));
            }
            tx.add_install(b.build());
        }
        tx.run(&mut db).unwrap();
        let mut etx = TransactionSet::new();
        etx.add_erase("p0");
        prop_assert!(!etx.check(&db).is_empty());
    }

    /// Transaction ordering puts every dependency before its dependent for
    /// random DAGs.
    #[test]
    fn ordering_respects_dag(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..16)) {
        // build a DAG: edge (a,b) with a<b means "b requires a"
        let mut requires: Vec<Vec<usize>> = vec![Vec::new(); 8];
        for (a, b) in edges {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo != hi && !requires[hi].contains(&lo) {
                requires[hi].push(lo);
            }
        }
        let mut tx = TransactionSet::new();
        for (i, deps) in requires.iter().enumerate() {
            let mut b = PackageBuilder::new(&format!("n{i}"), "1.0", "1");
            for &dep in deps {
                b = b.requires_simple(&format!("n{dep}"));
            }
            tx.add_install(b.build());
        }
        let order = tx.order();
        let pos: std::collections::HashMap<String, usize> = order
            .iter()
            .enumerate()
            .map(|(i, e)| (e.label(), i))
            .collect();
        for (i, deps) in requires.iter().enumerate() {
            for &dep in deps {
                let pi = pos[&format!("install n{i}-1.0-1.x86_64")];
                let pd = pos[&format!("install n{dep}-1.0-1.x86_64")];
                prop_assert!(pd < pi, "n{} must precede n{}", dep, i);
            }
        }
    }

    /// Random sequences of `install`, `erase` and `erase_exact`: after
    /// every step the memoized digest equals a from-scratch digest, a
    /// clone taken before the memo was warmed compares equal to the
    /// warmed original, and a clone taken before the step does not see
    /// it.
    #[test]
    fn memoized_digest_tracks_every_mutation(
        ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..3), 0..40),
    ) {
        let mut db = RpmDb::new();
        prop_assert_eq!(db.digest(), digest_from_scratch(&db));
        for (op, name, release) in ops {
            let name = format!("n{name}");
            let evr = Evr::new(0, "1.0".to_string(), format!("{release}"));
            let before = db.clone();
            let before_digest = digest_from_scratch(&db);
            match op {
                0 => {
                    db.install(PackageBuilder::new(&name, "1.0", &format!("{release}")).build());
                }
                1 => {
                    db.erase(&name);
                }
                _ => {
                    db.erase_exact(&name, &evr);
                }
            }
            prop_assert_eq!(digest_from_scratch(&before), before_digest);
            prop_assert_eq!(before.digest(), before_digest);
            let cold = db.clone();
            prop_assert_eq!(db.digest(), digest_from_scratch(&db));
            prop_assert!(cold == db, "a cold clone must equal the warmed original");
            prop_assert_eq!(cold.digest(), db.digest());
            // a clone of the warm original carries the same value
            prop_assert_eq!(db.clone().digest(), digest_from_scratch(&db));
        }
    }
}
