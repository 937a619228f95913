//! Ordered install/erase/upgrade transactions over an [`RpmDb`].
//!
//! Mirrors RPM's transaction-set flow: elements are added, the set is
//! *checked* against the database (unresolved requires, conflicts, file
//! conflicts, already-installed, not-installed), *ordered* so that
//! dependencies install before their dependents (Kahn's algorithm with
//! deterministic cycle-breaking, as RPM does for dependency loops), and
//! then *run*, producing a [`TransactionReport`] with a scriptlet trace.

use crate::db::RpmDb;
use crate::dep::Dependency;
use crate::package::Package;
use crate::scriptlet::ScriptletTrace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;
use std::sync::Arc;
use xcbc_fault::{FaultInjector, InjectionPoint};

/// One element of a transaction set. Packages are shared (see
/// [`crate::InstalledPackage`]), so ordering a set and committing it
/// copy no package payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TransactionElement {
    /// Install a new package.
    Install(Arc<Package>),
    /// Upgrade: install `new`, erase older instances of the same name
    /// (and anything it Obsoletes).
    Upgrade(Arc<Package>),
    /// Erase an installed package by name.
    Erase(String),
}

impl TransactionElement {
    pub fn label(&self) -> String {
        match self {
            TransactionElement::Install(p) => format!("install {}", p.nevra),
            TransactionElement::Upgrade(p) => format!("upgrade {}", p.nevra),
            TransactionElement::Erase(n) => format!("erase {n}"),
        }
    }
}

/// A problem detected by [`TransactionSet::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum TransactionProblem {
    /// A Requires of an incoming package is satisfied neither by the
    /// post-transaction database nor by another incoming package.
    UnresolvedRequire { package: String, require: String },
    /// An incoming package conflicts with an installed or incoming one.
    Conflict { package: String, with: String },
    /// Two packages in the result set would own the same file.
    FileConflict { path: String, a: String, b: String },
    /// Install of something already installed at the same or newer EVR.
    AlreadyInstalled { package: String },
    /// Erase of something not installed.
    NotInstalled { name: String },
    /// Erasing this package would break an installed package's Requires.
    BreaksDependents {
        erased: String,
        dependent: String,
        require: String,
    },
    /// Upgrade target is not actually newer.
    NotAnUpgrade { package: String, installed: String },
}

impl fmt::Display for TransactionProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionProblem::UnresolvedRequire { package, require } => {
                write!(f, "{package} requires {require} which is not provided")
            }
            TransactionProblem::Conflict { package, with } => {
                write!(f, "{package} conflicts with {with}")
            }
            TransactionProblem::FileConflict { path, a, b } => {
                write!(f, "file {path} conflicts between {a} and {b}")
            }
            TransactionProblem::AlreadyInstalled { package } => {
                write!(f, "{package} is already installed")
            }
            TransactionProblem::NotInstalled { name } => write!(f, "{name} is not installed"),
            TransactionProblem::BreaksDependents {
                erased,
                dependent,
                require,
            } => {
                write!(
                    f,
                    "erasing {erased} breaks {dependent} (requires {require})"
                )
            }
            TransactionProblem::NotAnUpgrade { package, installed } => {
                write!(f, "{package} is not newer than installed {installed}")
            }
        }
    }
}

/// Error returned by [`TransactionSet::run`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransactionError {
    /// `check` found problems; the database was not touched.
    CheckFailed(Vec<TransactionProblem>),
    /// The set was empty.
    Empty,
    /// A scriptlet failed mid-transaction (fault-injected). The database
    /// was rolled back to its pre-transaction state; `completed` lists
    /// the element labels that had executed before the failure.
    ScriptletFailed {
        package: String,
        completed: Vec<String>,
    },
}

impl fmt::Display for TransactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionError::CheckFailed(ps) => {
                writeln!(f, "transaction check failed ({} problems):", ps.len())?;
                for p in ps {
                    writeln!(f, "  - {p}")?;
                }
                Ok(())
            }
            TransactionError::Empty => write!(f, "empty transaction"),
            TransactionError::ScriptletFailed { package, completed } => write!(
                f,
                "scriptlet failed for {package} after {} element(s); transaction rolled back",
                completed.len()
            ),
        }
    }
}

impl std::error::Error for TransactionError {}

/// Result of a successful [`TransactionSet::run`].
#[derive(Debug, Clone, Default)]
pub struct TransactionReport {
    /// Elements in execution order (labels).
    pub executed: Vec<String>,
    pub installed: Vec<String>,
    pub upgraded: Vec<String>,
    pub erased: Vec<String>,
    pub scriptlets: Vec<ScriptletTrace>,
    /// Net change in installed bytes (can be negative for erases).
    pub size_delta_bytes: i64,
}

/// A set of package operations applied atomically to an [`RpmDb`].
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    elements: Vec<TransactionElement>,
}

impl TransactionSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn add_install(&mut self, p: impl Into<Arc<Package>>) -> &mut Self {
        self.elements.push(TransactionElement::Install(p.into()));
        self
    }

    pub fn add_upgrade(&mut self, p: impl Into<Arc<Package>>) -> &mut Self {
        self.elements.push(TransactionElement::Upgrade(p.into()));
        self
    }

    pub fn add_erase(&mut self, name: impl Into<String>) -> &mut Self {
        self.elements.push(TransactionElement::Erase(name.into()));
        self
    }

    pub fn elements(&self) -> &[TransactionElement] {
        &self.elements
    }

    /// Names that will be *removed* from the db by this transaction
    /// (explicit erases + upgrade victims + obsoleted packages).
    fn removed_names<'a>(&'a self, db: &'a RpmDb) -> HashSet<&'a str> {
        let mut removed = HashSet::new();
        for e in &self.elements {
            match e {
                TransactionElement::Erase(n) => {
                    removed.insert(n.as_str());
                }
                TransactionElement::Upgrade(p) => {
                    if db.is_installed(p.name()) {
                        removed.insert(p.name());
                    }
                    for ip in db.iter() {
                        if p.obsoletes_package(&ip.package) {
                            removed.insert(ip.package.name());
                        }
                    }
                }
                TransactionElement::Install(_) => {}
            }
        }
        removed
    }

    /// Is `req` satisfied in the post-transaction world: by an incoming
    /// package, or by an installed package that is not being removed?
    fn satisfied_post(
        index: &ProvideIndex<'_>,
        db: &RpmDb,
        req: &Dependency,
        removed: &HashSet<&str>,
    ) -> bool {
        index.satisfying(req).next().is_some()
            || db
                .providers(req)
                .any(|ip| !removed.contains(ip.package.name()))
    }

    /// Run RPM's pre-flight checks. An empty vector means the transaction
    /// is sound and [`run`](Self::run) will succeed.
    pub fn check(&self, db: &RpmDb) -> Vec<TransactionProblem> {
        self.check_indexed(&ProvideIndex::new(&self.elements), db)
    }

    fn check_indexed(&self, index: &ProvideIndex<'_>, db: &RpmDb) -> Vec<TransactionProblem> {
        let mut problems = Vec::new();
        let removed = self.removed_names(db);

        for e in &self.elements {
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
                    // Would the erase break a surviving dependent?
                    for dependent in db.iter() {
                        if removed.contains(dependent.package.name()) {
                            continue;
                        }
                        for req in &dependent.package.requires {
                            let only_from_erased =
                                db.get(name).iter().any(|ip| ip.package.satisfies(req))
                                    && !Self::satisfied_post(index, db, req, &removed);
                            if only_from_erased {
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

        // Requires of incoming packages.
        for &(_, p) in &index.incoming {
            for req in &p.requires {
                if !Self::satisfied_post(index, db, req, &removed) {
                    problems.push(TransactionProblem::UnresolvedRequire {
                        package: p.nevra.to_string(),
                        require: req.to_string(),
                    });
                }
            }
        }

        // Conflicts: incoming vs (surviving installed + other incoming).
        for &(_, p) in &index.incoming {
            for conflict in &p.conflicts {
                for ip in db.providers(conflict) {
                    if !removed.contains(ip.package.name()) && ip.package.name() != p.name() {
                        problems.push(TransactionProblem::Conflict {
                            package: p.nevra.to_string(),
                            with: ip.package.nevra.to_string(),
                        });
                    }
                }
                for other in index.satisfying(conflict).map(|o| index.incoming[o].1) {
                    if other.name() != p.name() {
                        problems.push(TransactionProblem::Conflict {
                            package: p.nevra.to_string(),
                            with: other.nevra.to_string(),
                        });
                    }
                }
            }
            // Reverse direction: surviving installed packages that conflict
            // with the incoming package.
            for ip in db.iter() {
                if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                    continue;
                }
                if ip.package.conflicts.iter().any(|c| p.satisfies(c)) {
                    problems.push(TransactionProblem::Conflict {
                        package: p.nevra.to_string(),
                        with: ip.package.nevra.to_string(),
                    });
                }
            }
        }

        // File conflicts among the post-transaction set: each path's first
        // incoming owner against the later ones, then the surviving
        // installed owners.
        for &(_, p) in &index.incoming {
            for f in &p.files {
                let first = index
                    .candidates(f)
                    .map(|o| index.incoming[o].1)
                    .find(|o| o.files.contains(f))
                    .expect("the package itself owns the path");
                if first.name() != p.name() {
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: first.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            }
        }
        for &(_, p) in &index.incoming {
            for f in &p.files {
                for ip in db.file_owners(f) {
                    if removed.contains(ip.package.name()) || ip.package.name() == p.name() {
                        continue;
                    }
                    problems.push(TransactionProblem::FileConflict {
                        path: f.clone(),
                        a: ip.package.nevra.to_string(),
                        b: p.nevra.to_string(),
                    });
                }
            }
        }

        problems
    }

    /// Topologically order the install-side elements so dependencies come
    /// first (Kahn's algorithm; ties and cycles broken by name order, the
    /// way RPM falls back on presentation order for dependency loops).
    /// Erases run last, in reverse-dependency order.
    pub fn order(&self) -> Vec<TransactionElement> {
        self.order_indexed(&ProvideIndex::new(&self.elements))
            .into_iter()
            .map(|ei| self.elements[ei].clone())
            .collect()
    }

    /// [`order`](Self::order) as element indices.
    fn order_indexed(&self, index: &ProvideIndex<'_>) -> Vec<usize> {
        let incoming = &index.incoming;
        let n = incoming.len();
        // edge u -> v  means "u must install before v" (v requires u).
        let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (vi, &(_, v)) in incoming.iter().enumerate() {
            for req in &v.requires {
                for ui in index.satisfying(req) {
                    if ui != vi {
                        before[ui].push(vi);
                        indeg[vi] += 1;
                    }
                }
            }
        }
        // Deterministic Kahn: pick the ready node with the smallest name;
        // among equal names, the one readied last.
        let name = |i: usize| incoming[i].1.name();
        let mut ready: BinaryHeap<(Reverse<&str>, usize, usize)> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .enumerate()
            .map(|(seq, i)| (Reverse(name(i)), seq, i))
            .collect();
        let mut readied = ready.len();
        let mut order: Vec<usize> = Vec::with_capacity(self.elements.len());
        let mut done = vec![false; n];
        while order.len() < n {
            let next = match ready.pop() {
                Some((_, _, i)) => i,
                None => {
                    // Cycle: break it at the not-yet-done node with the
                    // smallest name.
                    (0..n)
                        .filter(|&i| !done[i])
                        .min_by(|&a, &b| name(a).cmp(name(b)))
                        .expect("cycle-break candidate exists")
                }
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
                        ready.push((Reverse(name(v)), readied, v));
                        readied += 1;
                    }
                }
            }
        }

        for pos in &mut order {
            *pos = incoming[*pos].0;
        }
        order.extend(
            self.elements
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, TransactionElement::Erase(_)))
                .map(|(ei, _)| ei),
        );
        order
    }

    /// Check, order, and execute the transaction against `db`.
    pub fn run(&self, db: &mut RpmDb) -> Result<TransactionReport, TransactionError> {
        let order = self.preflight(db)?;
        Ok(self
            .execute(db, &order, &mut |_| false)
            .expect("ungated execution cannot fail"))
    }

    /// Like [`run`](Self::run), but scriptlets can be failed by a
    /// `rpm.scriptlet` fault from `injector` (keyed by package name).
    /// On a scriptlet fault the database is rolled back to its
    /// pre-transaction state and
    /// [`TransactionError::ScriptletFailed`] reports how far execution
    /// had gotten.
    pub fn run_injected(
        &self,
        db: &mut RpmDb,
        injector: &mut FaultInjector,
    ) -> Result<TransactionReport, TransactionError> {
        let order = self.preflight(db)?;
        let snapshot = db.clone();
        self.execute(db, &order, &mut |p| {
            injector
                .should_fault(InjectionPoint::RpmScriptlet, p.name())
                .is_some()
        })
        .inspect_err(|_| *db = snapshot)
    }

    /// Check the set against `db` and, if it is sound, return its
    /// execution order as element indices. Both passes share one
    /// provides index.
    fn preflight(&self, db: &RpmDb) -> Result<Vec<usize>, TransactionError> {
        if self.is_empty() {
            return Err(TransactionError::Empty);
        }
        let index = ProvideIndex::new(&self.elements);
        let problems = self.check_indexed(&index, db);
        if !problems.is_empty() {
            return Err(TransactionError::CheckFailed(problems));
        }
        Ok(self.order_indexed(&index))
    }

    /// The execution loop shared by [`run`](Self::run) and
    /// [`run_injected`](Self::run_injected), over the elements at
    /// `order`. `scriptlet_fails` is consulted once per install-side
    /// element, before its scriptlets run; a `true` aborts with
    /// [`TransactionError::ScriptletFailed`] (the caller owns rollback).
    fn execute(
        &self,
        db: &mut RpmDb,
        order: &[usize],
        scriptlet_fails: &mut dyn FnMut(&Package) -> bool,
    ) -> Result<TransactionReport, TransactionError> {
        let mut report = TransactionReport::default();
        for e in order.iter().map(|&ei| &self.elements[ei]) {
            if let TransactionElement::Install(p) | TransactionElement::Upgrade(p) = e {
                if scriptlet_fails(p) {
                    return Err(TransactionError::ScriptletFailed {
                        package: p.nevra.to_string(),
                        completed: report.executed,
                    });
                }
            }
            report.executed.push(e.label());
            match e {
                TransactionElement::Install(p) => {
                    run_scriptlets(p, true, &mut report);
                    report.size_delta_bytes += p.size_bytes as i64;
                    report.installed.push(p.nevra.to_string());
                    db.install(Arc::clone(p));
                }
                TransactionElement::Upgrade(p) => {
                    // Erase obsoleted + older same-name instances first.
                    let mut victims: Vec<String> = Vec::new();
                    if db.is_installed(p.name()) {
                        victims.push(p.name().to_string());
                    }
                    for ip in db.iter() {
                        if p.obsoletes_package(&ip.package) {
                            victims.push(ip.package.name().to_string());
                        }
                    }
                    victims.dedup();
                    run_scriptlets(p, true, &mut report);
                    for v in victims {
                        for old in db.erase(&v) {
                            report.size_delta_bytes -= old.package.size_bytes as i64;
                            run_scriptlets(&old.package, false, &mut report);
                        }
                    }
                    report.size_delta_bytes += p.size_bytes as i64;
                    report.upgraded.push(p.nevra.to_string());
                    db.install(Arc::clone(p));
                }
                TransactionElement::Erase(name) => {
                    for old in db.erase(name) {
                        report.size_delta_bytes -= old.package.size_bytes as i64;
                        run_scriptlets(&old.package, false, &mut report);
                        report.erased.push(old.package.nevra.to_string());
                    }
                }
            }
        }
        Ok(report)
    }
}

/// The install-side packages of one transaction set, indexed once by
/// every name they can answer to: the package name, each Provides name
/// and each owned path. Lookups return candidates that
/// [`Package::satisfies`] then confirms, so `check` and `order` cost one
/// index build plus one lookup per Requires instead of a scan of the
/// whole set.
struct ProvideIndex<'a> {
    /// Install-side packages in element order, each with its element
    /// index; a package's position here is its index position.
    incoming: Vec<(usize, &'a Package)>,
    /// `(name, position)` pairs sorted by name, then position.
    keys: Vec<(&'a str, usize)>,
}

impl<'a> ProvideIndex<'a> {
    fn new(elements: &'a [TransactionElement]) -> Self {
        let incoming: Vec<(usize, &Package)> = elements
            .iter()
            .enumerate()
            .filter_map(|(ei, e)| match e {
                TransactionElement::Install(p) | TransactionElement::Upgrade(p) => Some((ei, &**p)),
                TransactionElement::Erase(_) => None,
            })
            .collect();
        let mut keys: Vec<(&str, usize)> = Vec::new();
        for (pos, &(_, p)) in incoming.iter().enumerate() {
            keys.push((p.name(), pos));
            keys.extend(p.provides.iter().map(|d| (d.name.as_str(), pos)));
            keys.extend(p.files.iter().map(|f| (f.as_str(), pos)));
        }
        keys.sort_unstable();
        keys.dedup();
        ProvideIndex { incoming, keys }
    }

    /// Positions of the packages indexed under `name`, ascending.
    fn candidates<'s>(&'s self, name: &'s str) -> impl Iterator<Item = usize> + 's {
        let start = self.keys.partition_point(|&(k, _)| k < name);
        self.keys[start..]
            .iter()
            .take_while(move |&&(k, _)| k == name)
            .map(|&(_, pos)| pos)
    }

    /// Positions of the packages satisfying `req`, ascending.
    fn satisfying<'s>(&'s self, req: &'s Dependency) -> impl Iterator<Item = usize> + 's {
        self.candidates(&req.name)
            .filter(move |&pos| self.incoming[pos].1.satisfies(req))
    }
}

fn run_scriptlets(p: &Package, install_side: bool, report: &mut TransactionReport) {
    for s in &p.scriptlets {
        if s.phase.is_install_phase() == install_side {
            report.scriptlets.push(ScriptletTrace {
                package: p.nevra.to_string(),
                phase: s.phase,
                action: s.action.clone(),
                succeeded: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PackageBuilder;
    use crate::scriptlet::{Scriptlet, ScriptletPhase};

    #[test]
    fn empty_transaction_is_error() {
        let mut db = RpmDb::new();
        assert!(matches!(
            TransactionSet::new().run(&mut db),
            Err(TransactionError::Empty)
        ));
    }

    #[test]
    fn simple_install() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gcc", "4.4.7", "17")
                .size_mb(80)
                .build(),
        );
        let report = tx.run(&mut db).unwrap();
        assert_eq!(report.installed, vec!["gcc-4.4.7-17.x86_64"]);
        assert_eq!(report.size_delta_bytes, 80 << 20);
        assert!(db.is_installed("gcc"));
    }

    #[test]
    fn unresolved_require_rejected() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        match tx.run(&mut db) {
            Err(TransactionError::CheckFailed(ps)) => {
                assert!(matches!(
                    ps[0],
                    TransactionProblem::UnresolvedRequire { .. }
                ))
            }
            other => panic!("expected check failure, got {other:?}"),
        }
        assert!(db.is_empty(), "failed transaction must not touch the db");
    }

    #[test]
    fn require_satisfied_by_co_installed() {
        let mut db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        assert!(tx.check(&db).is_empty());
        let report = tx.run(&mut db).unwrap();
        // dependency must be installed first
        let pos_mpi = report
            .executed
            .iter()
            .position(|l| l.contains("openmpi"))
            .unwrap();
        let pos_gro = report
            .executed
            .iter()
            .position(|l| l.contains("gromacs"))
            .unwrap();
        assert!(
            pos_mpi < pos_gro,
            "openmpi must install before gromacs: {:?}",
            report.executed
        );
    }

    #[test]
    fn ordering_is_topological_chain() {
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("c", "1", "1")
                .requires_simple("b")
                .build(),
        );
        tx.add_install(PackageBuilder::new("a", "1", "1").build());
        tx.add_install(
            PackageBuilder::new("b", "1", "1")
                .requires_simple("a")
                .build(),
        );
        let order: Vec<String> = tx.order().iter().map(|e| e.label()).collect();
        let pos = |n: &str| {
            order
                .iter()
                .position(|l| l.contains(&format!("install {n}-")))
                .unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn cycle_is_broken_deterministically() {
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("x", "1", "1")
                .requires_simple("y")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("y", "1", "1")
                .requires_simple("x")
                .build(),
        );
        let order = tx.order();
        assert_eq!(order.len(), 2);
        let mut db = RpmDb::new();
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("x") && db.is_installed("y"));
    }

    #[test]
    fn order_tie_break_is_pinned() {
        use crate::arch::Arch;
        // Two builds of `foo` become ready together once `base` installs,
        // and `cyc-a`/`cyc-b` form a loop that only cycle breaking ends.
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("foo", "1", "1")
                .requires_simple("base")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("foo", "1", "1")
                .arch(Arch::I686)
                .requires_simple("base")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("cyc-b", "1", "1")
                .requires_simple("cyc-a")
                .build(),
        );
        tx.add_install(PackageBuilder::new("zed", "1", "1").build());
        tx.add_install(
            PackageBuilder::new("cyc-a", "1", "1")
                .requires_simple("cyc-b")
                .requires_simple("foo")
                .build(),
        );
        tx.add_erase("old");
        tx.add_install(PackageBuilder::new("base", "1", "1").build());
        let labels: Vec<String> = tx.order().iter().map(|e| e.label()).collect();
        // Smallest name first; between the two `foo` builds, the one
        // readied last (i686, the later element) first; the loop is
        // entered at its smallest name.
        assert_eq!(
            labels,
            [
                "install base-1-1.x86_64",
                "install foo-1-1.i686",
                "install foo-1-1.x86_64",
                "install zed-1-1.x86_64",
                "install cyc-a-1-1.x86_64",
                "install cyc-b-1-1.x86_64",
                "erase old",
            ]
        );
    }

    #[test]
    fn conflict_with_installed_rejected() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("slurm", "14.03", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::Conflict { .. })));
    }

    #[test]
    fn conflict_resolved_by_erasing_other_side() {
        // The paper's XNIT workflow: "change the schedulers" — erase slurm,
        // install torque, in one transaction.
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("slurm", "14.03", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_erase("slurm");
        tx.add_install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("torque"));
        assert!(!db.is_installed("slurm"));
    }

    #[test]
    fn reverse_conflict_detected() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("torque", "4.2.10", "1")
                .conflicts_spec("slurm")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_install(PackageBuilder::new("slurm", "14.03", "1").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::Conflict { .. })));
    }

    #[test]
    fn erase_that_breaks_dependent_rejected() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        db.install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_erase("openmpi");
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::BreaksDependents { .. })));
    }

    #[test]
    fn erase_ok_when_replacement_provided() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        db.install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_erase("openmpi");
        tx.add_install(
            PackageBuilder::new("mpich2", "1.4.1", "1")
                .provides_versioned("mpi")
                .build(),
        );
        assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
    }

    #[test]
    fn upgrade_replaces_old_and_runs_scriptlets() {
        let mut db = RpmDb::new();
        db.install(
            PackageBuilder::new("R", "3.0.2", "1.el6")
                .size_mb(60)
                .scriptlet(Scriptlet::new(ScriptletPhase::PostUn, "cleanup R 3.0"))
                .build(),
        );
        let mut tx = TransactionSet::new();
        tx.add_upgrade(
            PackageBuilder::new("R", "3.1.0", "1.el6")
                .size_mb(70)
                .scriptlet(Scriptlet::new(ScriptletPhase::Post, "register R 3.1"))
                .build(),
        );
        let report = tx.run(&mut db).unwrap();
        assert_eq!(db.get("R").len(), 1);
        assert_eq!(db.newest("R").unwrap().package.evr().version, "3.1.0");
        assert_eq!(report.size_delta_bytes, (70i64 - 60) << 20);
        assert!(report
            .scriptlets
            .iter()
            .any(|s| s.action == "register R 3.1"));
        assert!(report
            .scriptlets
            .iter()
            .any(|s| s.action == "cleanup R 3.0"));
    }

    #[test]
    fn downgrade_rejected_as_upgrade() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("R", "3.1.0", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_upgrade(PackageBuilder::new("R", "3.0.2", "1").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::NotAnUpgrade { .. })));
    }

    #[test]
    fn obsoletes_pulls_out_old_package() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("pbs", "2.3.16", "1").build());
        let mut tx = TransactionSet::new();
        tx.add_upgrade(
            PackageBuilder::new("torque", "4.2.10", "1")
                .obsoletes(Dependency::parse("pbs < 3.0"))
                .build(),
        );
        tx.run(&mut db).unwrap();
        assert!(db.is_installed("torque"));
        assert!(!db.is_installed("pbs"));
    }

    #[test]
    fn file_conflict_between_incoming_rejected() {
        let db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("a", "1", "1")
                .file("/usr/bin/tool")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("b", "1", "1")
                .file("/usr/bin/tool")
                .build(),
        );
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::FileConflict { .. })));
    }

    #[test]
    fn already_installed_rejected() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let mut tx = TransactionSet::new();
        tx.add_install(PackageBuilder::new("gcc", "4.4.7", "17").build());
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::AlreadyInstalled { .. })));
    }

    #[test]
    fn erase_not_installed_rejected() {
        let db = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_erase("ghost");
        let ps = tx.check(&db);
        assert!(ps
            .iter()
            .any(|p| matches!(p, TransactionProblem::NotInstalled { .. })));
    }

    #[test]
    fn injected_scriptlet_fault_rolls_back_cleanly() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("base", "1", "1").build());
        let before = db.clone();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("openmpi", "1.6.5", "1")
                .provides_versioned("mpi")
                .build(),
        );
        tx.add_install(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .requires_simple("mpi")
                .scriptlet(Scriptlet::new(ScriptletPhase::Post, "register gromacs"))
                .build(),
        );
        let plan = FaultPlan::new(3).fail(
            InjectionPoint::RpmScriptlet,
            Some("gromacs"),
            FaultWindow::Always,
        );
        let mut inj = plan.injector();
        match tx.run_injected(&mut db, &mut inj) {
            Err(TransactionError::ScriptletFailed { package, completed }) => {
                assert!(package.contains("gromacs"));
                // openmpi orders first, so one element had executed.
                assert_eq!(completed, vec!["install openmpi-1.6.5-1.x86_64"]);
            }
            other => panic!("expected scriptlet failure, got {other:?}"),
        }
        assert_eq!(db, before, "rollback must restore the pre-transaction db");
        assert!(
            !db.is_installed("openmpi"),
            "partial installs must be undone"
        );
    }

    #[test]
    fn injected_run_without_matching_fault_behaves_like_run() {
        use xcbc_fault::FaultPlan;
        let mut db_a = RpmDb::new();
        let mut db_b = RpmDb::new();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("gcc", "4.4.7", "17")
                .size_mb(80)
                .build(),
        );
        let plain = tx.run(&mut db_a).unwrap();
        let mut inj = FaultPlan::new(5).injector();
        let injected = tx.run_injected(&mut db_b, &mut inj).unwrap();
        assert_eq!(plain.executed, injected.executed);
        assert_eq!(db_a, db_b);
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn install_erase_roundtrip_restores_db() {
        let mut db = RpmDb::new();
        let before = db.len();
        let mut tx = TransactionSet::new();
        tx.add_install(
            PackageBuilder::new("valgrind", "3.8.1", "3")
                .file("/usr/bin/valgrind")
                .build(),
        );
        tx.run(&mut db).unwrap();
        let mut tx2 = TransactionSet::new();
        tx2.add_erase("valgrind");
        let report = tx2.run(&mut db).unwrap();
        assert_eq!(db.len(), before);
        assert_eq!(report.erased.len(), 1);
        assert_eq!(db.installed_size_bytes(), 0);
    }
}
