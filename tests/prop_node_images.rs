//! Property: one result per distinct node image changes no result.
//!
//! A Rocks install gives every node with the same kickstart package
//! list one committed database, and an XNIT overlay gives every node
//! with the same starting database one transaction. Two invariants,
//! checked over soak scenarios (random LittleFe-shaped clusters under
//! random fault plans), say that the sharing is invisible:
//!
//! * `images.rocks`: every committed node's database equals a fresh
//!   `TransactionSet` over that node's kickstart list. This holds for
//!   the fleet's own installs and for re-runs of each from-scratch site
//!   under a plan that arms no `rpm.scriptlet` fault (nodes share), an
//!   `rpm.scriptlet` rate and an `rpm.scriptlet` spec (nodes must each
//!   run their own transaction), and a power loss resumed from its
//!   checkpoint. Under the spec `key=P on=nth:k` the one fault must land
//!   on the k-th install of `P`, which only happens if every node
//!   consulted the injector itself. The from-scratch sites deployed as
//!   one fleet, whose sites share one image store, at 1 and at 4
//!   threads, commit the same databases and each give the report the
//!   site gets deployed alone.
//! * `images.media`: a from-scratch site installed from the one XCBC
//!   install media, into one image store that every site of the seed
//!   shares, equals the site installed from freshly built rolls into a
//!   fresh store: node databases, traces, checkpoints (at every power
//!   loss and at the end) and post-mortems. The plans are those of
//!   `images.rocks` plus a boot fault that quarantines one node.
//! * `images.overlay`: an N-node overlay gives the same node databases,
//!   compat report, per-node trace spans and solve-cache counters as the
//!   same N nodes overlaid one node per call on a fresh cache, for a mix
//!   of equal and unequal starting databases. So does every site of a
//!   fleet of such overlays, one per soak site, whose sites share one
//!   image store and one solve cache, at 1 and at 4 threads: each site
//!   against its nodes overlaid one per call, all sites in order on one
//!   fresh cache.
//!
//! A failing seed is shrunk by the soak shrinker
//! (`xcbc::check::shrink`) before the test reports it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc::check::scenario::SiteBlueprint;
use xcbc::check::{run_seed, shrink, Invariant, Scenario, ScenarioLimits, SoakOutcome, Violation};
use xcbc::cluster::{ClusterSpec, NodeRole};
use xcbc::core::deploy::{
    deploy_from_scratch_resilient, deploy_xnit_overlay_salted, limulus_factory_image,
    DeploymentReport,
};
use xcbc::core::fleet::{Fleet, FleetReport, FleetSite};
use xcbc::core::xnit::XnitSetupMethod;
use xcbc::core::{xcbc_catalog, xcbc_install_media, xsede_roll};
use xcbc::fault::{FaultEvent, FaultPlan, InjectionPoint, InstallCheckpoint};
use xcbc::rocks::install::InstallErrorKind;
use xcbc::rocks::{
    kickstart, standard_rolls, Appliance, ClusterInstall, InstallError, NodeImageStore,
    ResilienceConfig, ResilientReport, Roll,
};
use xcbc::rpm::{Package, PackageBuilder, RpmDb, TransactionSet};
use xcbc::sim::Fnv64;
use xcbc::yum::SolveCache;

const SEEDS: u64 = 32;
const ROCKS: &str = "images.rocks";
const MEDIA: &str = "images.media";
const OVERLAY: &str = "images.overlay";

/// The roll set of a from-scratch deploy.
fn rolls() -> Vec<Roll> {
    let mut rolls = standard_rolls();
    rolls.push(xsede_roll());
    rolls
}

/// A per-site RNG stream, independent of every other site.
fn site_rng(seed: u64, site: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ Fnv64::new().write(site.as_bytes()).finish())
}

/// Every node's kickstart package list and the database a fresh
/// transaction over that list commits.
fn fresh_images(cluster: &ClusterSpec) -> BTreeMap<String, (Vec<String>, RpmDb)> {
    let rolls = rolls();
    let install = ClusterInstall::new(cluster.clone(), rolls.clone());
    let catalog: BTreeMap<&str, &Arc<Package>> = rolls
        .iter()
        .flat_map(|r| &r.packages)
        .map(|p| (p.name(), p))
        .collect();
    cluster
        .nodes
        .iter()
        .map(|n| {
            let appliance = match n.role {
                NodeRole::Frontend => Appliance::Frontend,
                _ => Appliance::Compute,
            };
            let ks = kickstart::generate(install.media(), n, appliance).expect("kickstart");
            let mut tx = TransactionSet::new();
            for name in &ks.walk.packages {
                tx.add_install(Arc::clone(catalog[name.as_str()]));
            }
            let mut db = RpmDb::new();
            tx.run(&mut db).expect("fresh transaction commits");
            (n.hostname.clone(), (ks.walk.packages.clone(), db))
        })
        .collect()
}

fn rocks_violation(detail: String) -> Violation {
    Violation {
        invariant: ROCKS,
        detail,
    }
}

fn compare_dbs(
    label: &str,
    dbs: &BTreeMap<String, RpmDb>,
    fresh: &BTreeMap<String, (Vec<String>, RpmDb)>,
    out: &mut Vec<Violation>,
) {
    for (host, db) in dbs {
        if fresh.get(host).map(|(_, f)| f) != Some(db) {
            out.push(rocks_violation(format!(
                "{label}: {host} committed a database unlike a fresh transaction over its kickstart list"
            )));
        }
    }
}

/// Run `install` of `cluster` under `plan` over `store`, resuming after
/// each power loss, at most once per node: the text of every power
/// loss's checkpoint, then the last run's result.
fn resumed(
    cluster: &ClusterSpec,
    install: &ClusterInstall,
    plan: &FaultPlan,
    store: &NodeImageStore,
) -> (Vec<String>, Result<ResilientReport, InstallError>) {
    let mut losses = Vec::new();
    let mut checkpoint = InstallCheckpoint::new();
    loop {
        let result = install.run_resilient_in(
            &mut plan.injector(),
            &ResilienceConfig::default(),
            checkpoint,
            store,
        );
        match result {
            Err(e)
                if matches!(e.kind, InstallErrorKind::PowerLoss)
                    && losses.len() < cluster.nodes.len() =>
            {
                losses.push(e.progress.checkpoint.to_text());
                checkpoint = e.progress.checkpoint;
            }
            result => return (losses, result),
        }
    }
}

/// Install `cluster` from fresh rolls under `plan`, resuming after each
/// power loss. Returns the committed databases and the faults of the
/// last run, or `None` when the install failed for another reason (a
/// frontend whose retries ran out).
fn install(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
) -> Option<(BTreeMap<String, RpmDb>, Vec<FaultEvent>)> {
    let install = ClusterInstall::new(cluster.clone(), rolls());
    match resumed(cluster, &install, plan, &NodeImageStore::default()) {
        (_, Ok(r)) => Some((r.report.node_dbs, r.post_mortem.faults)),
        (_, Err(_)) => None,
    }
}

/// The fault plans a from-scratch site is re-installed under.
struct SitePlans {
    /// The plans' `seed=`.
    seed: u64,
    /// A random compute node.
    victim: String,
    /// One that arms no `rpm.scriptlet` fault, an `rpm.scriptlet` rate,
    /// and a power loss on the victim.
    plans: [String; 3],
    /// The `rpm.scriptlet` spec `key=P on=nth:k`, with `P` and `k`.
    spec: (String, String, usize),
}

fn site_plans(
    seed: u64,
    site: &str,
    cluster: &ClusterSpec,
    fresh: &BTreeMap<String, (Vec<String>, RpmDb)>,
) -> SitePlans {
    let mut rng = site_rng(seed, site);
    let s = rng.gen_range(0u64..1 << 32);
    let computes: Vec<&str> = cluster
        .nodes
        .iter()
        .filter(|n| n.role == NodeRole::Compute)
        .map(|n| n.hostname.as_str())
        .collect();
    let victim = computes[rng.gen_range(0..computes.len())];
    let shared = format!(
        "seed={s}; rate dhcp.discover {:.3}; rate node.boot {:.3}",
        rng.gen_range(0.0..0.3),
        rng.gen_range(0.0..0.2)
    );
    let rate = format!(
        "seed={s}; rate rpm.scriptlet {:.4}",
        rng.gen_range(0.0005..0.004)
    );
    let power = format!("seed={s}; rate dhcp.discover 0.1; power.loss key={victim} on=nth:0");

    // The k-th install of a package every compute node carries: the
    // fault lands there only if every node consults the injector.
    let (names, _) = &fresh[victim];
    let package = names[rng.gen_range(0..names.len())].clone();
    let carriers = fresh.values().filter(|(n, _)| n.contains(&package)).count();
    let k = rng.gen_range(0..carriers);
    let text = format!("seed={s}; rpm.scriptlet key={package} on=nth:{k}");
    SitePlans {
        seed: s,
        victim: victim.to_string(),
        plans: [shared, rate, power],
        spec: (text, package, k),
    }
}

fn check_rocks_site(
    seed: u64,
    site: &str,
    cluster: &ClusterSpec,
    report: Option<&DeploymentReport>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let fresh = fresh_images(cluster);
    if let Some(report) = report {
        compare_dbs(
            &format!("{site} fleet install"),
            &report.node_dbs,
            &fresh,
            &mut out,
        );
    }
    let SitePlans {
        plans,
        spec: (text, package, k),
        ..
    } = site_plans(seed, site, cluster, &fresh);
    for text in &plans {
        let plan = FaultPlan::parse(text).expect("plan parses");
        if let Some((dbs, _)) = install(cluster, &plan) {
            compare_dbs(&format!("{site} under `{text}`"), &dbs, &fresh, &mut out);
        }
    }

    let plan = FaultPlan::parse(&text).expect("plan parses");
    match install(cluster, &plan) {
        Some((dbs, faults)) => {
            compare_dbs(&format!("{site} under `{text}`"), &dbs, &fresh, &mut out);
            let hits: Vec<(InjectionPoint, &str, u64)> = faults
                .iter()
                .map(|f| (f.point, f.key.as_str(), f.hit))
                .collect();
            if hits != [(InjectionPoint::RpmScriptlet, package.as_str(), k as u64)] {
                out.push(rocks_violation(format!(
                    "{site} under `{text}`: injected {hits:?}, not the one fault at hit {k}"
                )));
            }
        }
        None => out.push(rocks_violation(format!(
            "{site} under `{text}`: one retried scriptlet fault failed the install"
        ))),
    }
    out
}

/// Deploy `sites` as one fleet at 1 and at 4 threads.
fn fleet_at_1_and_4(sites: &[FleetSite]) -> [(usize, FleetReport); 2] {
    [1, 4].map(|threads| {
        let fleet = sites
            .iter()
            .cloned()
            .fold(Fleet::new().with_threads(threads), Fleet::add_site);
        (threads, fleet.deploy())
    })
}

/// The from-scratch sites as one fleet over a shared image store.
fn check_rocks_fleet(sites: &[(&str, &ClusterSpec, &FaultPlan)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let fleet_sites: Vec<FleetSite> = sites
        .iter()
        .map(|(name, cluster, plan)| {
            FleetSite::from_scratch_with_faults(*name, (*cluster).clone(), (*plan).clone())
        })
        .collect();
    let fleets = fleet_at_1_and_4(&fleet_sites);
    for (i, (name, cluster, plan)) in sites.iter().enumerate() {
        let fresh = fresh_images(cluster);
        let alone = deploy_from_scratch_resilient(
            cluster,
            plan,
            &ResilienceConfig::default(),
            InstallCheckpoint::new(),
        );
        for (threads, fleet) in &fleets {
            let label = format!("{name} in a shared-store fleet at {threads} thread(s)");
            match (&fleet.sites[i].result, &alone) {
                (Ok(got), Ok(want)) => {
                    compare_dbs(&label, &got.node_dbs, &fresh, &mut out);
                    if got.trace_jsonl() != want.trace_jsonl() || got.render() != want.render() {
                        out.push(rocks_violation(format!(
                            "{label}: report differs from the site deployed alone"
                        )));
                    }
                }
                (Err(got), Err(want)) if got.to_string().ends_with(&want.to_string()) => {}
                (got, want) => out.push(rocks_violation(format!(
                    "{label}: succeeded={} but alone succeeded={}",
                    got.is_ok(),
                    want.is_ok()
                ))),
            }
        }
    }
    out
}

/// The rocks half of the property.
struct RocksImages;

impl Invariant for RocksImages {
    fn name(&self) -> &'static str {
        ROCKS
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        // Site blueprints do not depend on the limits, so the full
        // scenario names every cluster the (possibly shrunk) fleet ran.
        let scenario = Scenario::generate(outcome.seed, outcome.faults, &ScenarioLimits::default());
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for site in &outcome.fleet.sites {
            let blueprint = scenario.sites.iter().find(|(name, _)| *name == site.name);
            if let Some((_, SiteBlueprint::Scratch { cluster, plan })) = blueprint {
                out.extend(check_rocks_site(
                    outcome.seed,
                    &site.name,
                    cluster,
                    site.result.as_ref().ok(),
                ));
                scratch.push((site.name.as_str(), cluster, plan));
            }
        }
        out.extend(check_rocks_fleet(&scratch));
        out
    }
}

/// `site` installed from the XCBC media into `store` against the same
/// site installed from fresh rolls into a fresh store, under every plan
/// of `images.rocks` and a boot fault that quarantines the victim.
fn check_media_site(
    seed: u64,
    site: &str,
    cluster: &ClusterSpec,
    store: &NodeImageStore,
) -> Vec<Violation> {
    let SitePlans {
        seed: s,
        victim,
        plans,
        spec: (spec, ..),
    } = site_plans(seed, site, cluster, &fresh_images(cluster));
    let quarantine = format!("seed={s}; node.boot key={victim}");
    let media = ClusterInstall::with_media(cluster.clone(), xcbc_install_media());
    let fresh_rolls = ClusterInstall::new(cluster.clone(), rolls());
    let mut out = Vec::new();
    for text in plans.iter().chain([&spec, &quarantine]) {
        let plan = FaultPlan::parse(text).expect("plan parses");
        let (media_losses, from_media) = resumed(cluster, &media, &plan, store);
        let (roll_losses, from_rolls) =
            resumed(cluster, &fresh_rolls, &plan, &NodeImageStore::default());
        let mut fail = |what: &str| {
            out.push(Violation {
                invariant: MEDIA,
                detail: format!("{site} under `{text}`: {what}"),
            })
        };
        if media_losses != roll_losses {
            fail("the power-loss checkpoints differ from fresh rolls'");
        }
        match (from_media, from_rolls) {
            (Ok(a), Ok(b)) => {
                let differs = [
                    ("node databases", a.report.node_dbs != b.report.node_dbs),
                    ("traces", a.report.trace != b.report.trace),
                    (
                        "checkpoints",
                        a.checkpoint.to_text() != b.checkpoint.to_text(),
                    ),
                    ("post-mortems", a.post_mortem != b.post_mortem),
                    ("quarantines", a.quarantined != b.quarantined),
                ];
                for (what, _) in differs.iter().filter(|(_, differs)| *differs) {
                    fail(&format!("the {what} differ from fresh rolls'"));
                }
                if *text == quarantine && !a.quarantined.iter().any(|(n, _)| *n == victim) {
                    fail(&format!("{victim} was not quarantined"));
                }
            }
            (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
            (a, b) => fail(&format!(
                "succeeded={} but from fresh rolls succeeded={}",
                a.is_ok(),
                b.is_ok()
            )),
        }
    }
    out
}

/// Installs from the shared media against installs from fresh rolls.
struct MediaImages;

impl Invariant for MediaImages {
    fn name(&self) -> &'static str {
        MEDIA
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let scenario = Scenario::generate(outcome.seed, outcome.faults, &ScenarioLimits::default());
        let store = NodeImageStore::default();
        let mut out = Vec::new();
        for site in &outcome.fleet.sites {
            let blueprint = scenario.sites.iter().find(|(name, _)| *name == site.name);
            if let Some((_, SiteBlueprint::Scratch { cluster, .. })) = blueprint {
                out.extend(check_media_site(outcome.seed, &site.name, cluster, &store));
            }
        }
        out
    }
}

/// `n` hosts whose starting databases mix repeats and differences:
/// the factory image, with one catalog package added, with one site
/// package added, or with `slurm` gone.
fn starting_images(rng: &mut StdRng) -> BTreeMap<String, RpmDb> {
    let leaves: Vec<Package> = xcbc_catalog()
        .into_iter()
        .filter(|p| p.requires.is_empty())
        .take(3)
        .collect();
    let n = rng.gen_range(2usize..=7);
    (0..n)
        .map(|i| {
            let mut db = limulus_factory_image();
            let pick = rng.gen_range(0usize..3);
            match rng.gen_range(0u32..4) {
                0 => {}
                1 => {
                    db.install(leaves[pick].clone());
                }
                2 => {
                    db.install(
                        PackageBuilder::new(&format!("site-tool-{pick}"), "1.0", "1.local")
                            .file(format!("/opt/site/bin/tool{pick}"))
                            .build(),
                    );
                }
                _ => {
                    db.erase("slurm");
                }
            }
            (format!("node-{i:02}"), db)
        })
        .collect()
}

/// One overlay site's starting databases, setup method and cache salt.
fn overlay_site(seed: u64, site: &str) -> (BTreeMap<String, RpmDb>, XnitSetupMethod, u64) {
    let mut rng = site_rng(seed, site);
    let existing = starting_images(&mut rng);
    let method = if rng.gen_bool(0.5) {
        XnitSetupMethod::RepoRpm
    } else {
        XnitSetupMethod::ManualRepoFile
    };
    let salt = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1u64..u64::MAX)
    };
    (existing, method, salt)
}

fn overlay_violation(site: &str, detail: String) -> Violation {
    Violation {
        invariant: OVERLAY,
        detail: format!("{site}: {detail}"),
    }
}

/// `existing` overlaid one node per call through `cache`.
fn one_node_per_call(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
    cache: &Arc<SolveCache>,
    salt: u64,
) -> Vec<DeploymentReport> {
    existing
        .iter()
        .map(|(host, db)| {
            let one = BTreeMap::from([(host.clone(), db.clone())]);
            deploy_xnit_overlay_salted(&one, method, Some(Arc::clone(cache)), salt)
                .expect("overlay deploys")
        })
        .collect()
}

/// How `whole` differs from the same nodes overlaid one per call.
fn compare_to_singles(
    whole: &DeploymentReport,
    existing: &BTreeMap<String, RpmDb>,
    singles: &[DeploymentReport],
) -> Vec<String> {
    let mut out = Vec::new();
    for (single, host) in singles.iter().zip(existing.keys()) {
        if whole.node_dbs[host] != single.node_dbs[host] {
            out.push(format!(
                "{host}'s database differs from its one-node overlay"
            ));
        }
    }
    let first = &singles[0];
    if whole.compat.render() != first.compat.render() {
        out.push("compat report differs from the first node's one-node overlay".into());
    }
    if whole.preexisting_preserved != singles.iter().all(|s| s.preexisting_preserved) {
        out.push("preserved flag differs from the one-node overlays".into());
    }
    // one shared "enable" span, then each node's own install span
    let mut expected: Vec<String> = vec![first.trace[0].to_jsonl()];
    expected.extend(singles.iter().map(|s| s.trace[1].to_jsonl()));
    let actual: Vec<String> = whole.trace.iter().map(|e| e.to_jsonl()).collect();
    if actual != expected {
        out.push(format!(
            "trace {actual:#?} differs from the one-node traces {expected:#?}"
        ));
    }
    out
}

fn check_overlay_site(seed: u64, site: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |detail: String| out.push(overlay_violation(site, detail));
    let (existing, method, salt) = overlay_site(seed, site);

    let whole_cache = Arc::new(SolveCache::new());
    let whole = deploy_xnit_overlay_salted(&existing, method, Some(Arc::clone(&whole_cache)), salt)
        .expect("overlay deploys");
    let per_cache = Arc::new(SolveCache::new());
    let singles = one_node_per_call(&existing, method, &per_cache, salt);
    for detail in compare_to_singles(&whole, &existing, &singles) {
        fail(detail);
    }
    if whole_cache.stats() != per_cache.stats() {
        fail(format!(
            "solve cache {:?} differs from one node per call {:?}",
            whole_cache.stats(),
            per_cache.stats()
        ));
    }
    let uncached =
        deploy_xnit_overlay_salted(&existing, method, None, salt).expect("overlay deploys");
    if uncached.node_dbs != whole.node_dbs {
        fail("node databases depend on the solve cache".into());
    }
    out
}

/// One overlay site per soak site, as one fleet over a shared image
/// store and solve cache (unsalted, as a fleet deploys).
fn check_overlay_fleet(seed: u64, names: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    let sites: Vec<_> = names
        .iter()
        .map(|name| {
            let (existing, method, _) = overlay_site(seed, name);
            (*name, existing, method)
        })
        .collect();
    let fleet_sites: Vec<FleetSite> = sites
        .iter()
        .map(|(name, existing, method)| FleetSite::overlay(*name, existing.clone(), *method))
        .collect();
    let per_cache = Arc::new(SolveCache::new());
    let singles: Vec<Vec<DeploymentReport>> = sites
        .iter()
        .map(|(_, existing, method)| one_node_per_call(existing, *method, &per_cache, 0))
        .collect();
    for (threads, fleet) in fleet_at_1_and_4(&fleet_sites) {
        for ((name, existing, _), (site, singles)) in
            sites.iter().zip(fleet.sites.iter().zip(&singles))
        {
            let label = format!("{name} in a shared-store fleet at {threads} thread(s)");
            match &site.result {
                Ok(whole) => out.extend(
                    compare_to_singles(whole, existing, singles)
                        .into_iter()
                        .map(|detail| overlay_violation(&label, detail)),
                ),
                Err(e) => out.push(overlay_violation(&label, format!("failed: {e}"))),
            }
        }
        if fleet.cache != per_cache.stats() {
            out.push(overlay_violation(
                &format!("fleet at {threads} thread(s)"),
                format!(
                    "solve cache {:?} differs from one node per call {:?}",
                    fleet.cache,
                    per_cache.stats()
                ),
            ));
        }
    }
    out
}

/// The overlay half of the property.
struct OverlayImages;

impl Invariant for OverlayImages {
    fn name(&self) -> &'static str {
        OVERLAY
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let names: Vec<&str> = outcome
            .fleet
            .sites
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        let mut out: Vec<Violation> = names
            .iter()
            .flat_map(|name| check_overlay_site(outcome.seed, name))
            .collect();
        out.extend(check_overlay_fleet(outcome.seed, &names));
        out
    }
}

#[test]
fn shared_and_per_node_results_agree() {
    let invariants: Vec<Box<dyn Invariant + Send + Sync>> = vec![
        Box::new(RocksImages),
        Box::new(MediaImages),
        Box::new(OverlayImages),
    ];
    let limits = ScenarioLimits::default();
    for seed in 0..SEEDS {
        let violations = run_seed(seed, true, &limits, &invariants);
        if let Some(first) = violations.first() {
            let shrunk = shrink(
                seed,
                true,
                &limits,
                first.invariant,
                &invariants,
                violations.clone(),
            );
            panic!(
                "seed {seed}: {first}\nshrunk in {} step(s) to {:?}:\n{:#?}",
                shrunk.steps, shrunk.limits, shrunk.violations
            );
        }
    }
}
