//! The two deployment paths and their comparison.
//!
//! §3: from scratch, "using the XSEDE roll during the Rocks cluster
//! install will add the packages necessary for an XSEDE-compatible basic
//! cluster"; piecemeal, "using XNIT to create an XSEDE-compatible
//! cluster is a fairly easy task". §8 adds the key property of the
//! overlay path: "XNIT in particular enables such compatibility to be
//! added to an existing, operating cluster in part or in whole, without
//! changing the pre-existing cluster setup."

use crate::compat::{check_compatibility, CompatReport};
use crate::roll::xcbc_install_media;
use crate::xnit::{set_up_host, xnit_repository, XnitSetupMethod};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use xcbc_cluster::{ClusterSpec, DegradedCluster};
use xcbc_fault::{FaultPlan, InstallCheckpoint, PostMortem};
use xcbc_rocks::{
    ClusterInstall, InstallError, InstallErrorKind, NodeImageStore, ResilienceConfig,
};
use xcbc_rpm::{PackageBuilder, PackageGroup, RpmDb, TransactionReport};
use xcbc_sim::{events_to_jsonl, pool::Memo, span_end, SpanRecorder, TraceEvent};
use xcbc_yum::{SolveCache, SolveError, SolveRequest, Yum, YumConfig};

/// `source` tag on trace events recorded by the XNIT overlay path.
/// (From-scratch deployments carry the installer's own
/// `xcbc_rocks::install::TRACE_SOURCE` spans instead.)
pub const OVERLAY_TRACE_SOURCE: &str = "xnit.overlay";

/// Which way a cluster becomes XSEDE-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentPath {
    /// Bare-metal Rocks install with the XSEDE roll.
    FromScratch,
    /// XNIT overlay on an existing, operating cluster.
    XnitOverlay(XnitSetupMethod),
}

/// The outcome of a deployment.
#[derive(Debug)]
pub struct DeploymentReport {
    pub path: DeploymentPath,
    /// Administrator-visible steps, in order.
    pub admin_steps: Vec<String>,
    /// Every span the deployment recorded on the shared simulation
    /// timebase; deterministic for a fixed cluster and fault-plan seed.
    pub trace: Vec<TraceEvent>,
    /// Nodes whose OS was wiped and reinstalled.
    pub nodes_reinstalled: usize,
    /// Did packages present before the deployment survive it?
    pub preexisting_preserved: bool,
    /// Post-deployment compatibility of a representative compute node.
    pub compat: CompatReport,
    /// Per-node package databases after deployment.
    pub node_dbs: BTreeMap<String, RpmDb>,
    /// Resilience telemetry (faults, retries, backoff, quarantines) of
    /// a from-scratch deployment, which always runs under a fault plan;
    /// a plain [`deploy_from_scratch`] carries a clean one. `None` on
    /// the overlay path.
    pub post_mortem: Option<PostMortem>,
    /// The cluster minus quarantined nodes, when any were quarantined.
    pub degraded: Option<DegradedCluster>,
    /// Final install checkpoint, for resuming an aborted deployment.
    pub checkpoint: Option<InstallCheckpoint>,
}

/// The software a Limulus HPC200 ships with from the factory:
/// Scientific Linux base plus Basement Supercomputing's management
/// stack and a preconfigured SLURM ("delivered with software cluster
/// management utilities off the shelf").
///
/// Built once per process; each call returns a clone of one shared
/// database (one `Arc` bump, see [`RpmDb`]), so the images share their
/// digest memo and a node that installs into its copy copies it first.
pub fn limulus_factory_image() -> RpmDb {
    static FACTORY: OnceLock<RpmDb> = OnceLock::new();
    FACTORY.get_or_init(factory_image).clone()
}

fn factory_image() -> RpmDb {
    let mut db = RpmDb::new();
    for p in [
        PackageBuilder::new("sl-release", "6.5", "1.sl6")
            .group(PackageGroup::Basics)
            .summary("Scientific Linux release")
            .build(),
        PackageBuilder::new("bash", "4.1.2", "15.sl6")
            .group(PackageGroup::Basics)
            .build(),
        PackageBuilder::new("limulus-tools", "2.1", "1")
            .group(PackageGroup::Basics)
            .summary("Basement Supercomputing cluster management utilities")
            .file("/usr/sbin/limulus-power")
            .build(),
        PackageBuilder::new("warewulf-provision", "3.5", "1")
            .group(PackageGroup::Basics)
            .summary("Diskless node provisioning")
            .build(),
        PackageBuilder::new("slurm", "2.6.5", "1.sl6")
            .group(PackageGroup::SchedulerResourceManager)
            .file("/usr/bin/sbatch")
            .file("/usr/sbin/slurmctld")
            .build(),
    ] {
        db.install(p);
    }
    db
}

/// Deploy from scratch: Rocks + XSEDE roll on bare metal, with no
/// faults — [`deploy_from_scratch_resilient`] under an empty plan.
pub fn deploy_from_scratch(cluster: &ClusterSpec) -> Result<DeploymentReport, InstallError> {
    deploy_from_scratch_resilient(
        cluster,
        &FaultPlan::new(0),
        &ResilienceConfig::default(),
        InstallCheckpoint::new(),
    )
}

/// Deploy from scratch under a fault plan: same Rocks + XSEDE roll
/// install, but every risky step (mirror fetch, DHCP discovery,
/// kickstart generation, RPM scriptlets, node boot) runs behind the
/// retry/checkpoint machinery of [`ClusterInstall::run_resilient`].
///
/// Nodes that exhaust their retry budget are quarantined rather than
/// failing the deployment: the report then carries a [`DegradedCluster`]
/// view of the survivors and a [`PostMortem`] accounting of every fault,
/// retry, and second lost to backoff. A power-loss fault aborts with a
/// checkpoint inside the returned [`InstallError`]; passing that
/// checkpoint back as `resume_from` continues the install without
/// re-provisioning committed nodes.
pub fn deploy_from_scratch_resilient(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    config: &ResilienceConfig,
    resume_from: InstallCheckpoint,
) -> Result<DeploymentReport, InstallError> {
    deploy_from_scratch_in(
        cluster,
        plan,
        config,
        resume_from,
        &NodeImageStore::default(),
    )
}

/// Deploy from scratch under `plan` the way an administrator re-running
/// the installer would: a power loss aborts with a checkpoint, which
/// `on_power_loss` sees, and the install resumes from that checkpoint
/// until the deployment lands (possibly degraded, with a post-mortem).
/// Every attempt shares one Rocks image store, so a node the last
/// attempt committed rebuilds its view from the stored image. Each
/// power loss strictly grows the committed set, so this terminates; the
/// cap of one attempt per node plus one only guards against future plan
/// mistakes, and past it the last power-loss error is returned.
pub fn deploy_from_scratch_resuming(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    config: &ResilienceConfig,
    mut on_power_loss: impl FnMut(&InstallError),
) -> Result<DeploymentReport, InstallError> {
    let images = NodeImageStore::default();
    let mut checkpoint = InstallCheckpoint::new();
    let mut attempts = 0;
    loop {
        attempts += 1;
        match deploy_from_scratch_in(cluster, plan, config, checkpoint, &images) {
            Err(e) if matches!(e.kind, InstallErrorKind::PowerLoss) => {
                on_power_loss(&e);
                if attempts > cluster.nodes.len() {
                    return Err(e);
                }
                checkpoint = e.progress.checkpoint;
            }
            result => return result,
        }
    }
}

/// [`deploy_from_scratch_resilient`] over a run's shared Rocks image
/// store (see [`ClusterInstall::run_resilient_in`]), from the one
/// [`xcbc_install_media`].
pub(crate) fn deploy_from_scratch_in(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    config: &ResilienceConfig,
    resume_from: InstallCheckpoint,
    images: &NodeImageStore,
) -> Result<DeploymentReport, InstallError> {
    let install = ClusterInstall::with_media(cluster.clone(), xcbc_install_media());
    let mut injector = plan.injector();
    let resilient = install.run_resilient_in(&mut injector, config, resume_from, images)?;

    let compute = resilient
        .report
        .node_dbs
        .iter()
        .find(|(name, _)| name.starts_with("compute-"))
        .map(|(_, db)| db)
        .or_else(|| resilient.report.node_dbs.values().next())
        .expect("install produced at least one node");
    let compat = check_compatibility(compute);

    let mut admin_steps = vec![
        "burn Rocks 6.1.1 + XSEDE roll install media".to_string(),
        "boot frontend from media, answer installer screens".to_string(),
        "select rolls: base kernel os web-server + xsede".to_string(),
        "wait for frontend install".to_string(),
        "run insert-ethers, power nodes on in order".to_string(),
        "wait for compute PXE installs".to_string(),
        "verify with cluster-fork + qsub test job".to_string(),
    ];

    let degraded = if resilient.quarantined.is_empty() {
        None
    } else {
        for (node, kind) in &resilient.quarantined {
            admin_steps.push(format!(
                "service quarantined node {node} ({}), then reinstall it",
                kind.as_str()
            ));
        }
        Some(DegradedCluster::from_quarantine(
            cluster.clone(),
            resilient.quarantined.iter().map(|(n, k)| (n.as_str(), *k)),
        ))
    };

    // faulted runs carry their last moments: replay the trace through
    // a bounded flight recorder and pin the tail to the post-mortem
    let mut post_mortem = resilient.post_mortem;
    if !post_mortem.is_clean() {
        let flight = xcbc_sim::FlightRecorder::from_events(
            xcbc_sim::FLIGHT_RECORDER_CAPACITY,
            &resilient.report.trace,
        );
        post_mortem.record_flight_tail(
            flight.tail().iter().map(|ev| ev.to_jsonl()),
            flight.seen(),
            flight.dropped(),
        );
    }

    Ok(DeploymentReport {
        path: DeploymentPath::FromScratch,
        admin_steps,
        nodes_reinstalled: resilient.report.node_dbs.len(),
        preexisting_preserved: false, // bare metal wipes everything
        compat,
        trace: resilient.report.trace,
        node_dbs: resilient.report.node_dbs,
        post_mortem: Some(post_mortem),
        degraded,
        checkpoint: Some(resilient.checkpoint),
    })
}

/// One distinct starting image's overlay: what every node that starts
/// from `before` ends up with under `method`.
#[derive(Debug)]
struct Overlaid {
    method: XnitSetupMethod,
    before: RpmDb,
    /// After the XNIT setup step: the database the depsolve ran against.
    enabled: RpmDb,
    /// Graded on `enabled`; its missing list is `request`.
    compat: CompatReport,
    request: SolveRequest,
    after: RpmDb,
    tx_report: TransactionReport,
    /// Every package in `before` is still installed in `after`.
    preserved: bool,
}

impl Overlaid {
    fn starts_from(&self, method: XnitSetupMethod, before: &RpmDb) -> bool {
        self.method == method && self.before == *before
    }
}

/// Every distinct starting image an overlay has computed, by
/// `RpmDb::digest()` and confirmed with `==`. The overlay's repository
/// and yum configuration are fixed and the setup method is part of the
/// match, so a stored image never goes stale: a caller may keep one
/// store across any number of [`deploy_xnit_overlay_kept`] calls, on
/// any number of threads. Only overlays that succeeded are stored.
#[derive(Debug, Default)]
pub struct OverlayImages(Memo<u64, Arc<Overlaid>>);

/// Deploy via XNIT overlay: take existing per-node databases (an
/// operating cluster) and add the full XCBC software set without
/// touching what is already there.
pub fn deploy_xnit_overlay(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
) -> Result<DeploymentReport, SolveError> {
    deploy_xnit_overlay_with(existing, method, None)
}

/// [`deploy_xnit_overlay`] with an optional fleet-shared
/// [`SolveCache`]: identical nodes (and identical sites in a fleet)
/// then reuse one memoized depsolve instead of re-walking the closure
/// per node. The cache never changes *what* is installed — the solver
/// is deterministic, so a hit returns exactly the solution a fresh
/// solve would — which keeps the recorded trace byte-identical with
/// and without the cache.
pub fn deploy_xnit_overlay_with(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
    solve_cache: Option<Arc<SolveCache>>,
) -> Result<DeploymentReport, SolveError> {
    deploy_xnit_overlay_salted(existing, method, solve_cache, 0)
}

/// [`deploy_xnit_overlay_with`] under a cache-key salt (see
/// [`SolveCache::salted_key`](xcbc_yum::SolveCache::salted_key)). The
/// multi-tenant service passes each tenant's salt here together with
/// that tenant's home cache shard, so overlay solves memoize per tenant
/// without ever serving one tenant a solution another tenant computed.
/// Salt `0` is the fleet-shared (unsalted) behavior of
/// [`deploy_xnit_overlay_with`].
pub fn deploy_xnit_overlay_salted(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
    solve_cache: Option<Arc<SolveCache>>,
    cache_salt: u64,
) -> Result<DeploymentReport, SolveError> {
    deploy_xnit_overlay_kept(
        existing,
        method,
        solve_cache,
        cache_salt,
        &OverlayImages::default(),
    )
}

/// [`deploy_xnit_overlay_salted`] over a caller-kept image store: a
/// node whose starting image is already in `images` reuses its result,
/// and each image computed here is added. The report is the one a
/// fresh store gives. A reused node still makes its own solve-cache
/// lookup, so hit and miss totals count nodes, not images.
pub fn deploy_xnit_overlay_kept(
    existing: &BTreeMap<String, RpmDb>,
    method: XnitSetupMethod,
    solve_cache: Option<Arc<SolveCache>>,
    cache_salt: u64,
    images: &OverlayImages,
) -> Result<DeploymentReport, SolveError> {
    let mut node_dbs = existing.clone();
    let mut rec = SpanRecorder::new(OVERLAY_TRACE_SOURCE);
    let mut admin_steps: Vec<String> = method.steps().iter().map(|s| s.to_string()).collect();

    rec.record("enable XSEDE yum repository", 300.0);

    let mut yum = Yum::new(YumConfig::default()).with_cache_salt(cache_salt);
    if let Some(cache) = solve_cache {
        yum = yum.with_solve_cache(cache);
    }
    yum.add_repository(xnit_repository());

    let mut preserved = true;
    let mut first = true;
    // the first node's pre-install report, while it is still current
    let mut first_compat: Option<CompatReport> = None;
    for (host, db) in node_dbs.iter_mut() {
        let digest = db.digest();
        let image = match images.0.get(&digest, |o| o.starts_from(method, db)) {
            Some(image) => {
                // the node's own solve-cache lookup: hit and miss
                // totals count nodes, not images
                if yum.solve_cache().is_some() {
                    yum.solve(&image.enabled, &image.request)?;
                }
                *db = image.after.clone();
                image
            }
            None => {
                let before = db.clone();
                set_up_host(db, method).map_err(SolveError::Transaction)?;
                let enabled = db.clone();
                // install everything the compat report says is missing
                let compat = check_compatibility(db);
                let tx_report = yum.install(db, &compat.missing())?;
                // §8's invariant: nothing pre-existing was removed
                let preserved = db.has_every_name_of(&before);
                let image = Arc::new(Overlaid {
                    method,
                    before,
                    enabled,
                    request: SolveRequest::install(compat.missing()),
                    compat,
                    after: db.clone(),
                    tx_report,
                    preserved,
                });
                images.0.insert(digest, Arc::clone(&image), |o| {
                    o.starts_from(method, &image.before)
                });
                image
            }
        };
        preserved &= image.preserved;
        if first && image.tx_report.executed.is_empty() {
            first_compat = Some(image.compat.clone());
        }

        let installed = image.tx_report.installed.len();
        let secs = 60.0 + installed as f64 * 2.0;
        let label = format!("{host}: yum install of {installed} packages");
        if first {
            rec.record(label, secs);
            first = false;
        } else {
            rec.record_parallel(label, secs);
        }
    }
    admin_steps.push("yum install <missing packages> across nodes".to_string());
    admin_steps.push("verify with compat checker".to_string());

    // an unchanged first node keeps its pre-install report
    let compat = first_compat.unwrap_or_else(|| {
        node_dbs
            .values()
            .next()
            .map(check_compatibility)
            .expect("at least one node")
    });

    Ok(DeploymentReport {
        path: DeploymentPath::XnitOverlay(method),
        admin_steps,
        nodes_reinstalled: 0,
        preexisting_preserved: preserved,
        compat,
        trace: rec.into_events(),
        node_dbs,
        post_mortem: None,
        degraded: None,
        checkpoint: None,
    })
}

impl DeploymentReport {
    /// The deployment's event log as JSONL, one event per line.
    ///
    /// Byte-deterministic: the same cluster, fault-plan seed, and
    /// resume checkpoint always yield the identical string, which makes
    /// the log diffable across runs and machines (asserted by the
    /// cross-crate property tests).
    pub fn trace_jsonl(&self) -> String {
        events_to_jsonl(&self.trace)
    }

    /// Render the comparison row for this path.
    pub fn render_row(&self) -> String {
        format!(
            "{:<28} steps={:<2} wall={:>6.0}s reinstalls={:<2} preserves-existing={:<5} compat={:>5.1}%",
            match self.path {
                DeploymentPath::FromScratch => "Rocks from-scratch".to_string(),
                DeploymentPath::XnitOverlay(m) => format!("XNIT overlay ({m:?})"),
            },
            self.admin_steps.len(),
            span_end(&self.trace).as_secs_f64(),
            self.nodes_reinstalled,
            self.preexisting_preserved,
            self.compat.score * 100.0
        )
    }

    /// Render the comparison row plus, when the deployment ran under
    /// fault injection, the resilience post-mortem and degraded view.
    pub fn render(&self) -> String {
        let mut out = self.render_row();
        out.push('\n');
        if let Some(pm) = &self.post_mortem {
            out.push_str(&pm.render());
        }
        if let Some(degraded) = &self.degraded {
            let offline = degraded.offline_nodes();
            out.push_str(&format!(
                "degraded view       : {}/{} node(s) usable, offline: [{}], full-linpack: {}\n",
                degraded.usable_nodes().len(),
                degraded.spec.nodes.len(),
                offline.join(", "),
                degraded.can_run_full_linpack()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};

    fn limulus_dbs() -> BTreeMap<String, RpmDb> {
        let cluster = limulus_hpc200();
        cluster
            .nodes
            .iter()
            .map(|n| (n.hostname.clone(), limulus_factory_image()))
            .collect()
    }

    #[test]
    fn from_scratch_on_littlefe_reaches_full_compat() {
        let report = deploy_from_scratch(&littlefe_modified()).unwrap();
        assert!(report.compat.is_compatible(), "{}", report.compat.render());
        assert_eq!(report.nodes_reinstalled, 6);
        assert!(
            !report.preexisting_preserved,
            "bare metal wipes the previous system"
        );
        assert!(span_end(&report.trace) > xcbc_sim::SimTime::ZERO);
        assert!(report.post_mortem.as_ref().unwrap().is_clean());
        assert!(report.degraded.is_none());
    }

    #[test]
    fn from_scratch_on_limulus_fails() {
        // diskless blades: the reason the paper pairs Limulus with XNIT
        assert!(matches!(
            deploy_from_scratch(&limulus_hpc200()).map_err(|e| e.kind),
            Err(xcbc_rocks::InstallErrorKind::NotInstallable(_))
        ));
    }

    #[test]
    fn xnit_overlay_on_limulus_reaches_full_compat() {
        let report = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::RepoRpm).unwrap();
        assert!(report.compat.is_compatible(), "{}", report.compat.render());
        assert_eq!(
            report.nodes_reinstalled, 0,
            "no reinstalls on the overlay path"
        );
    }

    #[test]
    fn overlay_preserves_preexisting_setup() {
        // §8: "without changing the pre-existing cluster setup"
        let report = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::ManualRepoFile).unwrap();
        assert!(report.preexisting_preserved);
        for db in report.node_dbs.values() {
            assert!(db.is_installed("limulus-tools"), "factory tooling survives");
            assert!(db.is_installed("slurm"), "factory scheduler survives");
            assert!(db.is_installed("warewulf-provision"));
        }
    }

    #[test]
    fn overlay_is_incremental_second_run_noop() {
        let first = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::RepoRpm).unwrap();
        let second = deploy_xnit_overlay(&first.node_dbs, XnitSetupMethod::RepoRpm).unwrap();
        assert!(second.compat.is_compatible());
        // nothing left to install: wall time is just repo setup + probes
        assert!(span_end(&second.trace) < span_end(&first.trace));
    }

    #[test]
    fn overlay_wall_time_beats_reinstall() {
        // "Using XNIT to create an XSEDE-compatible cluster is a fairly
        // easy task" — quantified: fewer reinstalls, less wall time than
        // a from-scratch build of the same scale
        let scratch = deploy_from_scratch(&littlefe_modified()).unwrap();
        let overlay = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::RepoRpm).unwrap();
        assert!(span_end(&overlay.trace) < span_end(&scratch.trace));
        assert!(overlay.nodes_reinstalled < scratch.nodes_reinstalled);
    }

    #[test]
    fn render_rows() {
        let overlay = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::RepoRpm).unwrap();
        let row = overlay.render_row();
        assert!(row.contains("XNIT overlay"));
        assert!(row.contains("reinstalls=0"));
    }

    #[test]
    fn salted_overlay_deploys_are_tenant_disjoint() {
        let cache = Arc::new(SolveCache::new());
        let salt_a = xcbc_yum::ShardedSolveCache::tenant_salt("campus-a");
        let salt_b = xcbc_yum::ShardedSolveCache::tenant_salt("campus-b");
        let a = deploy_xnit_overlay_salted(
            &limulus_dbs(),
            XnitSetupMethod::RepoRpm,
            Some(Arc::clone(&cache)),
            salt_a,
        )
        .unwrap();
        let after_a = cache.stats();
        assert!(after_a.entries > 0, "overlay solves were memoized");

        // an identical tenant under a different salt must not hit A's entries
        let b = deploy_xnit_overlay_salted(
            &limulus_dbs(),
            XnitSetupMethod::RepoRpm,
            Some(Arc::clone(&cache)),
            salt_b,
        )
        .unwrap();
        let after_b = cache.stats();
        assert_eq!(
            after_b.entries,
            2 * after_a.entries,
            "tenant B re-solved under its own keys"
        );
        assert_eq!(after_b.hits, 2 * after_a.hits, "no cross-tenant hits");
        // the cache never changes *what* is deployed
        assert_eq!(a.node_dbs, b.node_dbs);
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn a_kept_image_store_changes_no_report_and_no_cache_count() {
        let salt = xcbc_yum::ShardedSolveCache::tenant_salt("campus-a");
        let (kept_cache, fresh_cache) = (Arc::new(SolveCache::new()), Arc::new(SolveCache::new()));
        let solve = |cache: &Arc<SolveCache>, db: &RpmDb, round: usize| {
            let mut yum = Yum::new(YumConfig::default())
                .with_cache_salt(salt)
                .with_solve_cache(Arc::clone(cache));
            yum.add_repository(xnit_repository());
            let request = SolveRequest::install([["gromacs", "R", "no-such-package"][round % 3]]);
            yum.solve(db, &request)
                .map(|s| s.installs.len())
                .map_err(|e| e.to_string())
        };
        let images = OverlayImages::default();
        let (mut kept_nodes, mut fresh_nodes) = (limulus_dbs(), limulus_dbs());
        for round in 0..5 {
            let method = [XnitSetupMethod::RepoRpm, XnitSetupMethod::ManualRepoFile][round % 2];
            if round == 1 {
                // the kept factory image again, under the other method
                (kept_nodes, fresh_nodes) = (limulus_dbs(), limulus_dbs());
            }
            if round == 3 {
                // one node leaves the shared image: a new image next to a kept one
                for nodes in [&mut kept_nodes, &mut fresh_nodes] {
                    nodes.values_mut().last().unwrap().erase("gromacs");
                }
            }
            let frontend = |nodes: &BTreeMap<String, RpmDb>| nodes.values().next().unwrap().clone();
            assert_eq!(
                solve(&kept_cache, &frontend(&kept_nodes), round),
                solve(&fresh_cache, &frontend(&fresh_nodes), round)
            );
            let kept = deploy_xnit_overlay_kept(
                &kept_nodes,
                method,
                Some(Arc::clone(&kept_cache)),
                salt,
                &images,
            )
            .unwrap();
            let fresh = deploy_xnit_overlay_salted(
                &fresh_nodes,
                method,
                Some(Arc::clone(&fresh_cache)),
                salt,
            )
            .unwrap();
            assert_eq!(kept.node_dbs, fresh.node_dbs, "round {round}");
            assert_eq!(format!("{:?}", kept.compat), format!("{:?}", fresh.compat));
            assert_eq!(kept.trace_jsonl(), fresh.trace_jsonl(), "round {round}");
            assert_eq!(kept.preexisting_preserved, fresh.preexisting_preserved);
            assert_eq!(kept_cache.stats(), fresh_cache.stats(), "round {round}");
            (kept_nodes, fresh_nodes) = (kept.node_dbs, fresh.node_dbs);
        }
        assert!(images.0.len() < 2 * 5, "later rounds reused kept images");
    }

    #[test]
    fn resilient_deploy_quarantines_and_reports() {
        use xcbc_fault::{FaultWindow, InjectionPoint};
        let plan = FaultPlan::new(7).fail(
            InjectionPoint::NodeBoot,
            Some("compute-0-2"),
            FaultWindow::Always,
        );
        let report = deploy_from_scratch_resilient(
            &littlefe_modified(),
            &plan,
            &ResilienceConfig::default(),
            InstallCheckpoint::new(),
        )
        .unwrap();

        // deployment completed on the survivors
        assert!(!report.node_dbs.contains_key("compute-0-2"));
        assert_eq!(report.node_dbs.len(), 5);
        assert!(report.compat.is_compatible());

        // the degraded view marks the hung node offline
        let degraded = report.degraded.as_ref().unwrap();
        assert_eq!(degraded.offline_nodes(), vec!["compute-0-2"]);
        assert!(!degraded.can_run_full_linpack());

        // post-mortem + admin steps call out the quarantine
        let pm = report.post_mortem.as_ref().unwrap();
        assert!(!pm.is_clean());
        assert!(pm.render().contains("compute-0-2"));
        assert!(report
            .admin_steps
            .iter()
            .any(|s| s.contains("quarantined node compute-0-2")));
        let rendered = report.render();
        assert!(rendered.contains("degraded view"));
        assert!(rendered.contains("5/6 node(s) usable"));
    }

    #[test]
    fn fixed_seed_resilient_deploy_trace_is_byte_identical() {
        use xcbc_fault::{FaultWindow, InjectionPoint};
        let plan = FaultPlan::new(42)
            .with_rate(InjectionPoint::DhcpDiscover, 0.3)
            .fail(
                InjectionPoint::NodeBoot,
                Some("compute-0-1"),
                FaultWindow::Nth(0),
            );
        let deploy = || {
            deploy_from_scratch_resilient(
                &littlefe_modified(),
                &plan,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap()
        };
        let (a, b) = (deploy(), deploy());
        assert!(!a.trace.is_empty());
        assert_eq!(
            a.trace_jsonl(),
            b.trace_jsonl(),
            "same seed must replay byte-identically"
        );
        assert_eq!(
            a.post_mortem.as_ref().unwrap(),
            b.post_mortem.as_ref().unwrap()
        );
    }

    #[test]
    fn deployment_timeline_agrees_with_trace() {
        let is_span = |e: &TraceEvent| matches!(e.kind, xcbc_sim::TraceKind::Span { .. });
        let report = deploy_from_scratch(&littlefe_modified()).unwrap();
        assert!(report.trace.iter().all(is_span));
        let overlay = deploy_xnit_overlay(&limulus_dbs(), XnitSetupMethod::RepoRpm).unwrap();
        assert!(overlay
            .trace
            .iter()
            .all(|e| e.source == OVERLAY_TRACE_SOURCE));
        assert!(overlay.trace.iter().all(is_span));
        assert!(overlay.trace_jsonl().lines().count() == overlay.trace.len());
    }

    #[test]
    fn factory_image_is_far_from_compatible() {
        let db = limulus_factory_image();
        let report = check_compatibility(&db);
        assert!(!report.is_compatible());
        assert!(report.score < 0.1);
        // the factory scheduler is not *against* the reference: slurm is
        // a Table 1 "choose one" option, not a Table 2 requirement
        assert!(!report.missing().contains(&"slurm"));
        assert!(report.missing().contains(&"gromacs"));
    }
}
