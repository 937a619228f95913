//! Property-based tests for the RPM substrate: rpmvercmp is a total order,
//! EVR ordering is consistent, transactions preserve database
//! invariants, the memoized database digest never goes stale, and the
//! indexed matching, checking, ordering and database layout agree with
//! plain reference definitions kept here as oracles.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use xcbc_rpm::{
    rpmvercmp, Arch, DepFlag, Dependency, Evr, Fnv64, InstalledPackage, Package, PackageBuilder,
    RpmDb, TransactionElement, TransactionProblem, TransactionSet, VerifyProblem,
};

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

    /// Two handles cloned from one database share its store until one
    /// of them changes. Random installs and erases interleaved on both
    /// (and re-cloning one from the other) must leave each handle's
    /// contents, digest, sorted paths and file lookups equal to a
    /// rebuild from scratch, even though each step's checks warm the
    /// derived values first; and `==` must mean equal contents and
    /// equal next transaction id, shared store or not.
    #[test]
    fn cloned_handles_share_a_store_until_one_changes(
        ops in proptest::collection::vec((0usize..2, 0u8..4, 0usize..4, 0usize..3), 0..48),
    ) {
        let mut dbs = [RpmDb::new(), RpmDb::new()];
        dbs[0].install(shared_store_package(0, 0));
        dbs[0].install(shared_store_package(1, 1));
        dbs[1] = dbs[0].clone();
        // each handle's history from empty, and its install count
        let start = vec![(0u8, 0usize, 0usize), (0, 1, 1)];
        let mut histories = [start.clone(), start];
        for (handle, op, name, release) in ops {
            if op == 3 {
                dbs[handle] = dbs[1 - handle].clone();
                histories[handle] = histories[1 - handle].clone();
            } else {
                apply_shared_store_op(&mut dbs[handle], (op, name, release));
                histories[handle].push((op, name, release));
            }
            for (db, history) in dbs.iter().zip(&histories) {
                let mut rebuilt = RpmDb::new();
                for &step in history {
                    apply_shared_store_op(&mut rebuilt, step);
                }
                let listed = |db: &RpmDb| {
                    db.iter()
                        .map(|ip| (ip.package.nevra.to_string(), ip.install_tid))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(listed(db), listed(&rebuilt));
                prop_assert_eq!(db.digest(), digest_from_scratch(db));
                let mut paths: Vec<&str> = db
                    .iter()
                    .flat_map(|ip| {
                        let mut own: Vec<&str> = ip.package.files.iter().map(String::as_str).collect();
                        own.sort();
                        own.dedup();
                        own
                    })
                    .collect();
                paths.sort();
                prop_assert_eq!(db.paths().collect::<Vec<_>>(), paths);
                let shared = Dependency::parse("/etc/shared");
                let owners = |found: Vec<&InstalledPackage>| {
                    found.iter().map(|ip| ip.install_tid).collect::<Vec<_>>()
                };
                let scanned: Vec<&InstalledPackage> = db
                    .iter()
                    .filter(|ip| ip.package.files.iter().any(|f| f == "/etc/shared"))
                    .collect();
                prop_assert_eq!(owners(db.whatprovides(&shared)), owners(scanned));
                // equal contents in a store of its own compare equal
                prop_assert!(*db == rebuilt, "a rebuild must equal the handle");
                let mut bumped = db.clone();
                bumped.install(shared_store_package(9, 0));
                bumped.erase("n9");
                prop_assert_eq!(listed(&bumped), listed(db));
                prop_assert!(bumped != *db, "a later next transaction id must compare unequal");
            }
            let installs = |history: &[(u8, usize, usize)]| {
                history.iter().filter(|(op, _, _)| *op == 0).count()
            };
            let same = dbs[0].iter().eq(dbs[1].iter())
                && installs(&histories[0]) == installs(&histories[1]);
            prop_assert_eq!(dbs[0] == dbs[1], same);
        }
    }
}

/// Package `n{name}-1.0-{release}`: a file of its own, one every
/// package owns, and one per release.
fn shared_store_package(name: usize, release: usize) -> Package {
    PackageBuilder::new(&format!("n{name}"), "1.0", &format!("{release}"))
        .files([
            format!("/usr/bin/n{name}"),
            "/etc/shared".to_string(),
            format!("/lib/r{release}"),
        ])
        .build()
}

/// Apply one `(op, name, release)` step: 0 installs, 1 erases every
/// instance of the name, 2 erases the one instance with that release.
fn apply_shared_store_op(db: &mut RpmDb, (op, name, release): (u8, usize, usize)) {
    match op {
        0 => {
            db.install(shared_store_package(name, release));
        }
        1 => {
            db.erase(&format!("n{name}"));
        }
        _ => {
            let evr = Evr::new(0, "1.0".to_string(), format!("{release}"));
            db.erase_exact(&format!("n{name}"), &evr);
        }
    }
}

/// A tiny deterministic generator (SplitMix64) for the structured
/// inputs below; the property's `seed` argument drives it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
const CAPS: [&str; 2] = ["cap", "mpi"];
const PATHS: [&str; 3] = ["/bin/x", "/bin/y", "/etc/z"];
const FLAGS: [DepFlag; 6] = [
    DepFlag::Any,
    DepFlag::Eq,
    DepFlag::Lt,
    DepFlag::Le,
    DepFlag::Gt,
    DepFlag::Ge,
];

fn gen_evr(g: &mut Gen) -> Evr {
    let epoch = if g.below(5) == 0 { 1 } else { 0 };
    Evr::new(
        epoch,
        (1 + g.below(3)).to_string(),
        (1 + g.below(2)).to_string(),
    )
}

fn gen_dep(g: &mut Gen, targets: &[&str]) -> Dependency {
    let name = g.pick(targets);
    match FLAGS[g.below(FLAGS.len())] {
        DepFlag::Any => Dependency::any(name),
        flag => Dependency::versioned(name, flag, gen_evr(g)),
    }
}

fn gen_package(g: &mut Gen) -> Package {
    let evr = gen_evr(g);
    let mut b = PackageBuilder::new(g.pick(&NAMES), &evr.version, &evr.release).epoch(evr.epoch);
    if g.below(3) == 0 {
        b = b.arch(Arch::I686);
    }
    let mut targets: Vec<&str> = NAMES.to_vec();
    targets.extend(CAPS);
    targets.extend(PATHS);
    for _ in 0..g.below(3) {
        b = b.provides(gen_dep(g, &CAPS));
    }
    for _ in 0..g.below(4) {
        b = b.requires(gen_dep(g, &targets));
    }
    for _ in 0..g.below(2) {
        b = b.conflicts(gen_dep(g, &targets));
    }
    for _ in 0..g.below(2) {
        b = b.obsoletes(gen_dep(g, &NAMES));
    }
    for _ in 0..g.below(3) {
        b = b.file(g.pick(&PATHS));
    }
    b.build()
}

/// The reference `satisfies`: match against the materialised
/// Provides list, self-provide included.
fn satisfies_ref(p: &Package, req: &Dependency) -> bool {
    if req.is_file_dep() {
        return p.files.iter().any(|f| f == &req.name);
    }
    p.all_provides().iter().any(|prov| prov.satisfies(req))
}

/// The reference `obsoletes_package`: a cloned `name = EVR` target.
fn obsoletes_ref(p: &Package, other: &Package) -> bool {
    let target = Dependency::versioned(
        other.nevra.name.clone(),
        DepFlag::Eq,
        other.nevra.evr.clone(),
    );
    p.obsoletes.iter().any(|o| target.satisfies(o))
}

fn incoming_ref(elements: &[TransactionElement]) -> Vec<&Package> {
    elements
        .iter()
        .filter_map(|e| match e {
            TransactionElement::Install(p) | TransactionElement::Upgrade(p) => Some(&**p),
            TransactionElement::Erase(_) => None,
        })
        .collect()
}

fn removed_ref(elements: &[TransactionElement], db: &RpmDb) -> HashSet<String> {
    let mut removed = HashSet::new();
    for e in elements {
        match e {
            TransactionElement::Erase(n) => {
                removed.insert(n.clone());
            }
            TransactionElement::Upgrade(p) => {
                if db.is_installed(p.name()) {
                    removed.insert(p.name().to_string());
                }
                for ip in db.iter() {
                    if obsoletes_ref(p, &ip.package) {
                        removed.insert(ip.package.name().to_string());
                    }
                }
            }
            TransactionElement::Install(_) => {}
        }
    }
    removed
}

fn satisfied_post_ref(
    elements: &[TransactionElement],
    db: &RpmDb,
    req: &Dependency,
    removed: &HashSet<String>,
) -> bool {
    if incoming_ref(elements).iter().any(|p| satisfies_ref(p, req)) {
        return true;
    }
    db.iter()
        .any(|ip| satisfies_ref(&ip.package, req) && !removed.contains(ip.package.name()))
}

/// The quadratic `TransactionSet::check` the provides index replaced.
fn check_ref(elements: &[TransactionElement], db: &RpmDb) -> Vec<TransactionProblem> {
    let mut problems = Vec::new();
    let removed = removed_ref(elements, db);
    let incoming = incoming_ref(elements);
    for e in elements {
        match e {
            TransactionElement::Install(p) => {
                if let Some(existing) = db.newest(p.name()) {
                    if existing.package.nevra.evr >= p.nevra.evr {
                        problems.push(TransactionProblem::AlreadyInstalled {
                            package: p.nevra.to_string(),
                        });
                    }
                }
            }
            TransactionElement::Upgrade(p) => {
                if let Some(existing) = db.newest(p.name()) {
                    if existing.package.nevra.evr >= p.nevra.evr {
                        problems.push(TransactionProblem::NotAnUpgrade {
                            package: p.nevra.to_string(),
                            installed: existing.package.nevra.to_string(),
                        });
                    }
                }
            }
            TransactionElement::Erase(name) => {
                if !db.is_installed(name) {
                    problems.push(TransactionProblem::NotInstalled { name: name.clone() });
                    continue;
                }
                for dependent in db.iter() {
                    if removed.contains(dependent.package.name()) {
                        continue;
                    }
                    for req in &dependent.package.requires {
                        if db
                            .get(name)
                            .iter()
                            .any(|ip| satisfies_ref(&ip.package, req))
                            && !satisfied_post_ref(elements, db, req, &removed)
                        {
                            problems.push(TransactionProblem::BreaksDependents {
                                erased: name.clone(),
                                dependent: dependent.package.nevra.to_string(),
                                require: req.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
    for p in &incoming {
        for req in &p.requires {
            if !satisfied_post_ref(elements, db, req, &removed) {
                problems.push(TransactionProblem::UnresolvedRequire {
                    package: p.nevra.to_string(),
                    require: req.to_string(),
                });
            }
        }
    }
    for p in &incoming {
        for conflict in &p.conflicts {
            for ip in db.iter().filter(|ip| satisfies_ref(&ip.package, conflict)) {
                if !removed.contains(ip.package.name()) && ip.package.name() != p.name() {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: ip.package.nevra.to_string(),
                    });
                }
            }
            for other in &incoming {
                if other.name() != p.name() && satisfies_ref(other, conflict) {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: other.nevra.to_string(),
                    });
                }
            }
        }
        for ip in db.iter() {
            if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                continue;
            }
            if ip.package.conflicts.iter().any(|c| satisfies_ref(p, c)) {
                problems.push(TransactionProblem::Conflict {
                    package: p.nevra.to_string(),
                    with: ip.package.nevra.to_string(),
                });
            }
        }
    }
    let mut owners: BTreeMap<&str, &Package> = BTreeMap::new();
    for p in &incoming {
        for f in &p.files {
            if let Some(other) = owners.get(f.as_str()) {
                if other.name() != p.name() {
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: other.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            } else {
                owners.insert(f, p);
            }
        }
    }
    for p in &incoming {
        for f in &p.files {
            for ip in db.iter() {
                if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                    continue;
                }
                if ip.package.files.contains(f) {
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: ip.package.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            }
        }
    }
    problems
}

/// The quadratic `TransactionSet::order` the provides index replaced:
/// pairwise edges, a re-sort of the ready list before every pick, and
/// a pointer search mapping packages back to elements.
fn order_ref(elements: &[TransactionElement]) -> Vec<String> {
    let incoming = incoming_ref(elements);
    let n = incoming.len();
    let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (vi, v) in incoming.iter().enumerate() {
        for req in &v.requires {
            for (ui, u) in incoming.iter().enumerate() {
                if ui != vi && satisfies_ref(u, req) {
                    before[ui].push(vi);
                    indeg[vi] += 1;
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    while order.len() < n {
        ready.sort_by(|&a, &b| incoming[b].name().cmp(incoming[a].name()));
        let next = match ready.pop() {
            Some(i) => i,
            None => (0..n)
                .filter(|&i| !done[i])
                .min_by(|&a, &b| incoming[a].name().cmp(incoming[b].name()))
                .expect("cycle-break candidate exists"),
        };
        if done[next] {
            continue;
        }
        done[next] = true;
        order.push(next);
        for &v in &before[next] {
            if indeg[v] > 0 {
                indeg[v] -= 1;
                if indeg[v] == 0 && !done[v] {
                    ready.push(v);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(elements.len());
    let mut used = vec![false; elements.len()];
    for &idx in &order {
        let target = incoming[idx];
        for (ei, e) in elements.iter().enumerate() {
            if used[ei] {
                continue;
            }
            match e {
                TransactionElement::Install(p) | TransactionElement::Upgrade(p)
                    if std::ptr::eq(&**p, target) =>
                {
                    used[ei] = true;
                    out.push(e.label());
                    break;
                }
                _ => {}
            }
        }
    }
    for (ei, e) in elements.iter().enumerate() {
        if !used[ei] {
            if let TransactionElement::Erase(_) = e {
                out.push(e.label());
            }
        }
    }
    out
}

/// The `BTreeMap` database the flat `RpmDb` replaced: name → instances
/// in install order, each with its transaction id.
#[derive(Default)]
struct ModelDb {
    by_name: BTreeMap<String, Vec<(u64, Arc<Package>)>>,
    next_tid: u64,
}

impl ModelDb {
    fn install(&mut self, p: Arc<Package>) {
        self.next_tid += 1;
        self.by_name
            .entry(p.name().to_string())
            .or_default()
            .push((self.next_tid, p));
    }

    fn erase(&mut self, name: &str) {
        self.by_name.remove(name);
    }

    fn erase_exact(&mut self, name: &str, evr: &Evr) {
        if let Some(list) = self.by_name.get_mut(name) {
            if let Some(i) = list.iter().position(|(_, p)| &p.nevra.evr == evr) {
                list.remove(i);
            }
            if list.is_empty() {
                self.by_name.remove(name);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, Arc<Package>)> {
        self.by_name.values().flatten()
    }

    fn whatprovides(&self, req: &Dependency) -> Vec<String> {
        self.iter()
            .filter(|(_, p)| satisfies_ref(p, req))
            .map(|(_, p)| p.nevra.to_string())
            .collect()
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (_, p) in self.iter() {
            h.write_str(&p.nevra.to_string());
        }
        h.finish()
    }

    /// `rpm -V` with file conflicts sorted by path and each path's
    /// owners in install order.
    fn verify(&self) -> Vec<VerifyProblem> {
        let mut problems = Vec::new();
        for (_, p) in self.iter() {
            for req in &p.requires {
                if self.whatprovides(req).is_empty() {
                    problems.push(VerifyProblem::UnsatisfiedRequire {
                        package: p.nevra.to_string(),
                        require: req.to_string(),
                    });
                }
            }
            for conflict in &p.conflicts {
                for (_, victim) in self.iter().filter(|(_, v)| satisfies_ref(v, conflict)) {
                    if victim.name() != p.name() {
                        problems.push(VerifyProblem::Conflict {
                            package: p.nevra.to_string(),
                            conflicts_with: victim.nevra.to_string(),
                        });
                    }
                }
            }
        }
        let mut owners: BTreeMap<&str, Vec<(u64, &str)>> = BTreeMap::new();
        for (tid, p) in self.iter() {
            for f in &p.files {
                owners.entry(f).or_default().push((*tid, p.name()));
            }
        }
        for (path, mut list) in owners {
            list.sort();
            let mut names: Vec<String> = Vec::new();
            for (_, n) in list {
                if !names.iter().any(|m| m == n) {
                    names.push(n.to_string());
                }
            }
            if names.len() > 1 {
                problems.push(VerifyProblem::FileConflict {
                    path: path.to_string(),
                    packages: names,
                });
            }
        }
        problems
    }
}

fn nevras<'a>(ips: impl IntoIterator<Item = &'a InstalledPackage>) -> Vec<String> {
    ips.into_iter()
        .map(|ip| ip.package.nevra.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Allocation-free matching agrees with the materialised
    /// definitions: file deps, epochs, all six flags, and names that
    /// match while versions do not.
    #[test]
    fn matching_agrees_with_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let p = gen_package(&mut g);
        let other = gen_package(&mut g);
        let mut targets: Vec<&str> = NAMES.to_vec();
        targets.extend(CAPS);
        targets.extend(PATHS);
        for _ in 0..16 {
            let req = gen_dep(&mut g, &targets);
            prop_assert_eq!(p.satisfies(&req), satisfies_ref(&p, &req), "{} vs {}", p, req);
        }
        prop_assert_eq!(p.obsoletes_package(&other), obsoletes_ref(&p, &other));
    }

    /// (b) `check` and `order` agree with the quadratic reference on
    /// random sets: conflicts, obsoletes, file conflicts, cycles,
    /// multilib duplicate names, and erases and upgrades against a
    /// non-empty database.
    #[test]
    fn check_and_order_agree_with_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut db = RpmDb::new();
        for _ in 0..g.below(7) {
            db.install(gen_package(&mut g));
        }
        let mut tx = TransactionSet::new();
        for _ in 0..1 + g.below(8) {
            match g.below(4) {
                0 => tx.add_erase(g.pick(&NAMES)),
                1 => tx.add_upgrade(gen_package(&mut g)),
                _ => tx.add_install(gen_package(&mut g)),
            };
        }
        prop_assert_eq!(tx.check(&db), check_ref(tx.elements(), &db));
        let labels: Vec<String> = tx.order().iter().map(|e| e.label()).collect();
        prop_assert_eq!(labels, order_ref(tx.elements()));
    }

    /// (c) The flat `RpmDb` agrees with the `BTreeMap` model over random
    /// `install`/`erase`/`erase_exact` sequences.
    #[test]
    fn flat_db_agrees_with_btreemap_model(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut db = RpmDb::new();
        let mut model = ModelDb::default();
        let mut targets: Vec<&str> = NAMES.to_vec();
        targets.extend(CAPS);
        targets.extend(PATHS);
        for _ in 0..g.below(24) {
            match g.below(5) {
                0 => {
                    let name = g.pick(&NAMES);
                    db.erase(name);
                    model.erase(name);
                }
                1 => {
                    let (name, evr) = (g.pick(&NAMES), gen_evr(&mut g));
                    db.erase_exact(name, &evr);
                    model.erase_exact(name, &evr);
                }
                _ => {
                    let p = Arc::new(gen_package(&mut g));
                    db.install(Arc::clone(&p));
                    model.install(p);
                }
            }
            let model_iter: Vec<(u64, String)> =
                model.iter().map(|(t, p)| (*t, p.nevra.to_string())).collect();
            let db_iter: Vec<(u64, String)> =
                db.iter().map(|ip| (ip.install_tid, ip.package.nevra.to_string())).collect();
            prop_assert_eq!(db_iter, model_iter);
            prop_assert_eq!(db.len(), model.iter().count());
            let names: Vec<&str> = model.by_name.keys().map(String::as_str).collect();
            prop_assert_eq!(db.names(), names);
            for name in NAMES {
                let list = model.by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
                prop_assert_eq!(
                    nevras(db.get(name)),
                    list.iter().map(|(_, p)| p.nevra.to_string()).collect::<Vec<_>>()
                );
                let newest = list.iter().map(|(_, p)| p).max_by(|a, b| a.nevra.evr.cmp(&b.nevra.evr));
                prop_assert_eq!(
                    db.newest(name).map(|ip| ip.package.nevra.to_string()),
                    newest.map(|p| p.nevra.to_string())
                );
            }
            for _ in 0..4 {
                let req = gen_dep(&mut g, &targets);
                prop_assert_eq!(nevras(db.whatprovides(&req)), model.whatprovides(&req));
            }
            prop_assert_eq!(db.digest(), model.digest());
            prop_assert_eq!(db.verify(), model.verify());
        }
    }
}
