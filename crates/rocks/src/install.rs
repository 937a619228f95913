//! The bare-metal cluster install workflow.
//!
//! §3: "Using the XSEDE roll during the Rocks cluster install will add
//! the packages necessary for an XSEDE-compatible basic cluster." This
//! module runs the whole "all at once, from scratch" flow on a simulated
//! cluster: installability checks, frontend install, insert-ethers
//! discovery, per-node kickstart, package installation into per-node RPM
//! databases, and a `rocks.install` span trace (read as a wall-clock
//! Gantt by [`render_gantt`](xcbc_sim::render_gantt)).
//!
//! There is one install path, [`ClusterInstall::run_resilient`]: it runs
//! under a fault plan with retries, quarantine and checkpoints. A plain
//! [`ClusterInstall::run`] is that install under an empty plan from a
//! fresh checkpoint, so a clean run records exactly the spans, package
//! sets and errors of a faulted run whose faults never fire.

use crate::database::RocksDb;
use crate::graph::Appliance;
use crate::insert_ethers::{DhcpRequest, InsertEthers};
use crate::kickstart::{self, KickstartError};
use crate::media::{ApplianceWalk, InstallMedia};
use crate::roll::Roll;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_cluster::{ClusterSpec, NodeRole};
use xcbc_fault::{
    retry_with, FaultInjector, FaultKind, FaultPlan, InjectionPoint, InstallCheckpoint, NodeStage,
    PostMortem, RetryPolicy,
};
use xcbc_rpm::{Package, RpmDb, TransactionError, TransactionSet};
use xcbc_sim::{pool::Memo, Fnv64, SimTime, SpanRecorder, TraceEvent};

/// `source` tag carried by every trace event this module records.
pub const TRACE_SOURCE: &str = "rocks.install";

/// How far the install had gotten when an error aborted it. Attached to
/// every [`InstallError`] so callers can tell committed nodes from
/// wasted work — and, for a power loss, resume from the checkpoint
/// instead of rewiping healthy nodes.
#[derive(Debug, Clone, Default)]
pub struct InstallProgress {
    /// Hostnames whose package transactions had committed.
    pub completed: Vec<String>,
    /// The host being provisioned when the install aborted, if any.
    pub aborted_on: Option<String>,
    /// Full per-node stage checkpoint at abort time.
    pub checkpoint: InstallCheckpoint,
}

/// Why an install could not proceed.
///
/// Marked `#[non_exhaustive]`: new failure modes may appear as the
/// fault model grows, so downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum InstallErrorKind {
    /// The hardware cannot host Rocks (diskless nodes, missing frontend).
    NotInstallable(Vec<String>),
    /// Kickstart generation failed for a node.
    Kickstart(KickstartError),
    /// The graph references a package no selected roll carries.
    MissingPackage { node: String, package: String },
    /// The package transaction failed on a node.
    Transaction {
        node: String,
        error: TransactionError,
    },
    /// A `power.loss` fault cut the install short; the progress
    /// checkpoint says what survives for a resumed run.
    PowerLoss,
}

/// An install failure plus the per-node progress made before it.
/// (Progress is boxed to keep the `Err` variant small on the hot
/// `Result` paths.)
#[derive(Debug)]
pub struct InstallError {
    pub kind: InstallErrorKind,
    pub progress: Box<InstallProgress>,
}

impl InstallError {
    pub fn new(kind: InstallErrorKind) -> Self {
        InstallError {
            kind,
            progress: Box::default(),
        }
    }

    /// Attach the progress recorded in `checkpoint`, aborted on `node`.
    fn at(mut self, checkpoint: &InstallCheckpoint, node: &str) -> Self {
        self.progress = Box::new(InstallProgress {
            completed: checkpoint
                .committed_nodes()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            aborted_on: Some(node.to_string()),
            checkpoint: checkpoint.clone(),
        });
        self
    }
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            InstallErrorKind::NotInstallable(reasons) => write!(
                f,
                "cluster is not Rocks-installable: {}",
                reasons.join("; ")
            )?,
            InstallErrorKind::Kickstart(e) => write!(f, "kickstart generation failed: {e}")?,
            InstallErrorKind::MissingPackage { node, package } => write!(
                f,
                "{node}: package {package} not found in any selected roll"
            )?,
            InstallErrorKind::Transaction { node, error } => write!(f, "{node}: {error}")?,
            InstallErrorKind::PowerLoss => write!(f, "power lost mid-install")?,
        }
        if !self.progress.completed.is_empty() || self.progress.aborted_on.is_some() {
            write!(f, " [{} node(s) committed", self.progress.completed.len())?;
            if let Some(on) = &self.progress.aborted_on {
                write!(f, ", aborted on {on}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl std::error::Error for InstallError {}

impl From<KickstartError> for InstallError {
    fn from(e: KickstartError) -> Self {
        InstallError::new(InstallErrorKind::Kickstart(e))
    }
}

/// Result of a completed install.
#[derive(Debug)]
pub struct InstallReport {
    /// The cluster database after discovery.
    pub rocks_db: RocksDb,
    /// Per-host installed-package databases.
    pub node_dbs: BTreeMap<String, RpmDb>,
    /// Every span the install recorded, tagged [`TRACE_SOURCE`] on the
    /// shared simulation timebase.
    pub trace: Vec<TraceEvent>,
    /// Names of the rolls that were installed.
    pub rolls_installed: Vec<String>,
}

impl InstallReport {
    /// Packages installed on a given host.
    pub fn package_count(&self, host: &str) -> usize {
        self.node_dbs.get(host).map(RpmDb::len).unwrap_or(0)
    }
}

/// Install throughput assumption: anaconda lays down ~20 MB/s from the
/// frontend's HTTP tree over GbE.
const INSTALL_MBPS: f64 = 20.0;
/// Fixed overheads (seconds).
const FRONTEND_SCREENS_S: f64 = 600.0; // answering the installer screens
const NODE_PXE_S: f64 = 90.0; // BIOS + PXE + anaconda start
const FRONTEND_POST_S: f64 = 300.0; // db init, dhcpd, tree build
/// Cost of one failed DHCP discovery exchange (insert-ethers waits this
/// long before giving the node another chance).
const DHCP_TIMEOUT_S: f64 = 30.0;
/// Cost of one hung node boot before the operator power-cycles it.
const BOOT_HANG_S: f64 = 180.0;

/// Per-operation retry policies for [`ClusterInstall::run_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// insert-ethers DHCP discovery (`dhcp.discover` faults).
    pub dhcp_retry: RetryPolicy,
    /// Node PXE/BIOS boot (`node.boot` faults).
    pub boot_retry: RetryPolicy,
    /// Kickstart generation (`kickstart.generate` faults).
    pub kickstart_retry: RetryPolicy,
    /// Per-node RPM transactions (`rpm.scriptlet` faults).
    pub transaction_retry: RetryPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            dhcp_retry: RetryPolicy::default(),
            boot_retry: RetryPolicy::patient(),
            kickstart_retry: RetryPolicy::default(),
            transaction_retry: RetryPolicy::default(),
        }
    }
}

/// Result of a resilient install: the ordinary report plus the
/// checkpoint (for a later resume), the post-mortem, and the fault
/// kinds that quarantined nodes (for degraded-cluster mapping).
#[derive(Debug)]
pub struct ResilientReport {
    pub report: InstallReport,
    /// Final per-node progress; feed back into
    /// [`ClusterInstall::run_resilient`] to resume after an abort.
    pub checkpoint: InstallCheckpoint,
    pub post_mortem: PostMortem,
    /// Nodes pulled from the install, with the fault kind that
    /// exhausted their retry budget.
    pub quarantined: Vec<(String, FaultKind)>,
}

/// Pull `node` from the install, recording the reason everywhere it
/// matters: the checkpoint (so a resume skips it), the post-mortem, and
/// the kind list (for hardware-failure mapping).
fn quarantine_node(
    node: &str,
    at: SimTime,
    kind: FaultKind,
    point: InjectionPoint,
    checkpoint: &mut InstallCheckpoint,
    pm: &mut PostMortem,
    kinds: &mut Vec<(String, FaultKind)>,
) {
    let reason = format!(
        "{} at {}: retry budget exhausted",
        kind.as_str(),
        point.as_str()
    );
    checkpoint.quarantine(node, &reason);
    pm.record_quarantine(node, &reason);
    pm.record_moment(at, format!("quarantined {node} ({reason})"));
    kinds.push((node.to_string(), kind));
}

/// Recover the fault kind from a quarantine reason written by
/// [`quarantine_node`] (used when resuming from a parsed checkpoint).
fn quarantine_kind(reason: &str) -> FaultKind {
    reason
        .split(' ')
        .next()
        .and_then(FaultKind::parse)
        .unwrap_or(FaultKind::Transient)
}

/// Every node image the Rocks installs of one run have committed. A
/// node's transaction starts from an empty database, so its kickstart
/// package list and the packages that list resolves to fix the database
/// it commits. An image is stored under a digest of its list and matched
/// on equal packages, so installs whose roll catalogs differ never share
/// one, and a stored image never goes stale: a run may hand one store to
/// any number of installs ([`ClusterInstall::run_resilient_in`]), on any
/// number of threads. Installs from one [`InstallMedia`] hold the same
/// `Arc<Package>`s, so their images match on pointer equality alone.
#[derive(Debug, Default)]
pub struct NodeImageStore(Memo<u64, Arc<CommittedImage>>);

#[derive(Debug)]
struct CommittedImage {
    packages: Vec<Arc<Package>>,
    db: RpmDb,
}

impl CommittedImage {
    fn installs(&self, resolved: &[Arc<Package>]) -> bool {
        self.packages.len() == resolved.len()
            && self
                .packages
                .iter()
                .zip(resolved)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// The package step of one install call: the run's image store, unless
/// the plan arms `rpm.scriptlet` (then every node runs its own
/// transaction, so the store is neither read nor written).
struct NodeImages<'c> {
    store: Option<&'c NodeImageStore>,
}

impl NodeImages<'_> {
    /// Install `walk`'s packages on `node` into a fresh database. A node
    /// whose image is already in the store takes a clone of it: its own
    /// transaction would commit the same database on its first attempt,
    /// and the injector calls it skips could decide nothing. Otherwise
    /// the node runs its own transaction under scriptlet fault
    /// injection, retrying (the rollback in
    /// [`TransactionSet::run_injected`] makes each attempt start from a
    /// clean database). Outer `Err` is a hard install error (missing
    /// package); inner `Err` is the transaction error left after the
    /// retry budget ran out.
    fn install(
        &self,
        node: &str,
        walk: &ApplianceWalk,
        injector: &mut FaultInjector,
        policy: &RetryPolicy,
        rec: &mut SpanRecorder,
        pm: &mut PostMortem,
    ) -> Result<Result<RpmDb, TransactionError>, InstallError> {
        let packages = walk.resolved.as_deref().map_err(|name| {
            InstallError::new(InstallErrorKind::MissingPackage {
                node: node.to_string(),
                package: name.clone(),
            })
        })?;
        if let Some(image) = self
            .store
            .and_then(|s| s.0.get(&walk.key, |image| image.installs(packages)))
        {
            return Ok(Ok(image.db.clone()));
        }
        let mut tx = TransactionSet::new();
        for pkg in packages {
            tx.add_install(Arc::clone(pkg));
        }
        let mut rng = injector.rng_for(&format!("tx.{node}"));
        let outcome = retry_with(policy, &mut rng, |_| {
            let mut db = RpmDb::new();
            tx.run_injected(&mut db, injector).map(|_| db)
        });
        pm.charge_retries(outcome.retries(), outcome.backoff_s);
        rec.record_backoff(
            format!("{node}: rpm transaction retries"),
            outcome.backoff_s,
        );
        if outcome.succeeded() && outcome.retries() > 0 {
            pm.record_moment(
                rec.cursor(),
                format!(
                    "{node}: rpm.scriptlet absorbed {} retry(ies)",
                    outcome.retries()
                ),
            );
        }
        if let (Some(store), Ok(db)) = (self.store, &outcome.result) {
            let image = CommittedImage {
                packages: packages.to_vec(),
                db: db.clone(),
            };
            store
                .0
                .insert(walk.key, Arc::new(image), |i| i.installs(packages));
        }
        Ok(outcome.result)
    }

    /// Rebuild a committed node's database on resume. The node is not
    /// rewiped, so no fault can fire and nothing is charged: this is
    /// [`install`](Self::install) under an empty plan, one attempt, and
    /// a recorder and post-mortem that are thrown away.
    fn rebuild(&self, node: &str, walk: &ApplianceWalk) -> Result<RpmDb, InstallError> {
        self.install(
            node,
            walk,
            &mut FaultPlan::new(0).injector(),
            &RetryPolicy::none(),
            &mut SpanRecorder::new(TRACE_SOURCE),
            &mut PostMortem::default(),
        )?
        .map_err(|error| {
            InstallError::new(InstallErrorKind::Transaction {
                node: node.to_string(),
                error,
            })
        })
    }
}

/// A from-scratch install: one cluster and the media it installs from.
#[derive(Debug)]
pub struct ClusterInstall {
    cluster: ClusterSpec,
    media: Arc<InstallMedia>,
}

impl ClusterInstall {
    /// Prepare an install of `cluster` from fresh media for `rolls` (see
    /// [`InstallMedia::new`]).
    pub fn new(cluster: ClusterSpec, rolls: Vec<Roll>) -> Self {
        Self::with_media(cluster, Arc::new(InstallMedia::new(rolls)))
    }

    /// Prepare an install of `cluster` from existing media.
    pub fn with_media(cluster: ClusterSpec, media: Arc<InstallMedia>) -> Self {
        ClusterInstall { cluster, media }
    }

    pub fn media(&self) -> &InstallMedia {
        &self.media
    }

    /// Run the install with no faults: [`run_resilient`] under an
    /// empty fault plan, from a fresh checkpoint.
    ///
    /// [`run_resilient`]: ClusterInstall::run_resilient
    pub fn run(&self) -> Result<InstallReport, InstallError> {
        self.run_resilient(
            &mut FaultPlan::new(0).injector(),
            &ResilienceConfig::default(),
            InstallCheckpoint::new(),
        )
        .map(|resilient| resilient.report)
    }

    /// Run the install under fault injection, with retry/backoff,
    /// checkpointing, and graceful degradation. Every error carries the
    /// [`InstallProgress`] made before it.
    ///
    /// * Faults from `injector` fire at `dhcp.discover`, `node.boot`,
    ///   `kickstart.generate`, `rpm.scriptlet`, and `power.loss`; each
    ///   is retried under the matching [`ResilienceConfig`] policy, with
    ///   backoff charged to the timeline as `backoff:` phases.
    /// * A node that exhausts its retry budget is **quarantined** — the
    ///   install continues on the survivors instead of aborting.
    /// * Progress is tracked in an [`InstallCheckpoint`]. A `power.loss`
    ///   fault aborts with [`InstallErrorKind::PowerLoss`] carrying that
    ///   checkpoint; pass it back as `resume_from` to skip
    ///   already-committed nodes on the next run (pass
    ///   `InstallCheckpoint::new()` for a fresh install).
    pub fn run_resilient(
        &self,
        injector: &mut FaultInjector,
        config: &ResilienceConfig,
        resume_from: InstallCheckpoint,
    ) -> Result<ResilientReport, InstallError> {
        self.run_resilient_in(injector, config, resume_from, &NodeImageStore::default())
    }

    /// [`run_resilient`](Self::run_resilient) over a run's shared
    /// [`NodeImageStore`]: a node whose image the store holds takes it
    /// instead of running its transaction, and every image this install
    /// commits is added. The report is the one a fresh store gives. A
    /// plan that arms `rpm.scriptlet` leaves the store untouched.
    pub fn run_resilient_in(
        &self,
        injector: &mut FaultInjector,
        config: &ResilienceConfig,
        resume_from: InstallCheckpoint,
        store: &NodeImageStore,
    ) -> Result<ResilientReport, InstallError> {
        let (ok, reasons) = self.cluster.rocks_installable();
        if !ok {
            return Err(InstallError::new(InstallErrorKind::NotInstallable(reasons)));
        }
        let shared = !injector.plan().arms(InjectionPoint::RpmScriptlet);
        let images = NodeImages {
            store: shared.then_some(store),
        };
        let mut rec = SpanRecorder::new(TRACE_SOURCE);
        let mut node_dbs: BTreeMap<String, RpmDb> = BTreeMap::new();
        let mut checkpoint = resume_from;
        let mut pm = PostMortem::new(Some(injector.plan().seed));
        let mut quarantined: Vec<(String, FaultKind)> = Vec::new();

        // Nodes quarantined by a previous (aborted) run stay quarantined.
        for (node, reason) in checkpoint.quarantined() {
            pm.record_quarantine(node, reason);
            pm.record_moment(
                SimTime::ZERO,
                format!("carried quarantine of {node} from previous run"),
            );
            quarantined.push((node.to_string(), quarantine_kind(reason)));
        }

        // --- frontend ---
        let fe = self.cluster.frontend().expect("checked above");
        let fe_ks = kickstart::generate(&self.media, fe, Appliance::Frontend)
            .map_err(|e| InstallError::from(e).at(&checkpoint, &fe.hostname))?;
        if checkpoint.is_committed(&fe.hostname) {
            // Resume: the frontend survived the abort; rebuild its view
            // of the package set without charging install time.
            let fe_db = images
                .rebuild(&fe.hostname, fe_ks.walk)
                .map_err(|e| e.at(&checkpoint, &fe.hostname))?;
            node_dbs.insert(fe.hostname.clone(), fe_db);
            pm.record_resumed(&fe.hostname);
            pm.record_moment(
                rec.cursor(),
                format!("resumed {} from checkpoint", fe.hostname),
            );
        } else {
            let fe_db = match images
                .install(
                    &fe.hostname,
                    fe_ks.walk,
                    injector,
                    &config.transaction_retry,
                    &mut rec,
                    &mut pm,
                )
                .map_err(|e| e.at(&checkpoint, &fe.hostname))?
            {
                Ok(db) => db,
                Err(error) => {
                    // No frontend, no cluster: transaction failure that
                    // survives all retries is fatal, not quarantinable.
                    return Err(InstallError::new(InstallErrorKind::Transaction {
                        node: fe.hostname.clone(),
                        error,
                    })
                    .at(&checkpoint, &fe.hostname));
                }
            };
            let fe_payload: u64 = fe_db.installed_size_bytes();
            rec.record(
                "frontend: installer screens & roll selection",
                FRONTEND_SCREENS_S,
            );
            rec.with_field("node", fe.hostname.clone());
            rec.record(
                "frontend: package installation",
                fe_payload as f64 / (INSTALL_MBPS * 1024.0 * 1024.0),
            );
            rec.with_field("node", fe.hostname.clone())
                .with_field("bytes", fe_payload);
            rec.record(
                "frontend: post-install (db, dhcpd, central tree)",
                FRONTEND_POST_S,
            );
            rec.with_field("node", fe.hostname.clone());
            node_dbs.insert(fe.hostname.clone(), fe_db);
            checkpoint.mark_frontend_committed();
            checkpoint.record(&fe.hostname, NodeStage::PackagesCommitted);
            if injector
                .should_fault(InjectionPoint::PowerLoss, &fe.hostname)
                .is_some()
            {
                return Err(
                    InstallError::new(InstallErrorKind::PowerLoss).at(&checkpoint, &fe.hostname)
                );
            }
        }

        // --- insert-ethers discovery (with DHCP retry) ---
        let mut rocks_db = RocksDb::new(&fe.hostname);
        rocks_db
            .add_frontend(&synth_mac(&fe.hostname), fe.cores())
            .expect("fresh database");
        let computes: Vec<_> = self
            .cluster
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Compute)
            .collect();
        let mut dhcp_timeout_s = 0.0;
        let mut dhcp_backoff_s = 0.0;
        {
            let mut session = InsertEthers::start(&mut rocks_db, Appliance::Compute, 0);
            for n in &computes {
                if checkpoint.is_quarantined(&n.hostname) {
                    continue;
                }
                if checkpoint.stage(&n.hostname) >= NodeStage::Discovered {
                    // Resume: the frontend database already knows this
                    // node; re-register it without injection or cost.
                    session
                        .on_dhcp(&DhcpRequest {
                            mac: synth_mac(&n.hostname),
                            cpus: n.cores(),
                        })
                        .expect("unique synthetic MACs");
                    continue;
                }
                let mut rng = injector.rng_for(&format!("dhcp.{}", n.hostname));
                let outcome = retry_with(&config.dhcp_retry, &mut rng, |_| {
                    match injector.should_fault(InjectionPoint::DhcpDiscover, &n.hostname) {
                        Some(kind) => Err(kind),
                        None => Ok(()),
                    }
                });
                pm.charge_retries(outcome.retries(), outcome.backoff_s);
                dhcp_backoff_s += outcome.backoff_s;
                let failures = if outcome.succeeded() {
                    outcome.retries()
                } else {
                    outcome.attempts
                };
                dhcp_timeout_s += failures as f64 * DHCP_TIMEOUT_S;
                if outcome.succeeded() && outcome.retries() > 0 {
                    pm.record_moment(
                        rec.cursor(),
                        format!(
                            "{}: dhcp.discover absorbed {} retry(ies)",
                            n.hostname,
                            outcome.retries()
                        ),
                    );
                }
                match outcome.result {
                    Ok(()) => {
                        session
                            .on_dhcp(&DhcpRequest {
                                mac: synth_mac(&n.hostname),
                                cpus: n.cores(),
                            })
                            .expect("unique synthetic MACs");
                        checkpoint.record(&n.hostname, NodeStage::Discovered);
                    }
                    Err(kind) => quarantine_node(
                        &n.hostname,
                        rec.cursor(),
                        kind,
                        InjectionPoint::DhcpDiscover,
                        &mut checkpoint,
                        &mut pm,
                        &mut quarantined,
                    ),
                }
            }
        }
        if dhcp_timeout_s > 0.0 {
            rec.record("insert-ethers: dhcp timeouts", dhcp_timeout_s);
        }
        rec.record_backoff("insert-ethers retries", dhcp_backoff_s);

        // --- per-node provisioning (boot, kickstart, packages) ---
        let mut first = true;
        for n in &computes {
            if checkpoint.is_quarantined(&n.hostname) {
                continue;
            }
            if checkpoint.is_committed(&n.hostname) {
                // Resume: committed nodes are not rewiped; rebuild their
                // package view without charging install time.
                let ks = kickstart::generate(&self.media, n, Appliance::Compute)
                    .map_err(|e| InstallError::from(e).at(&checkpoint, &n.hostname))?;
                let db = images
                    .rebuild(&n.hostname, ks.walk)
                    .map_err(|e| e.at(&checkpoint, &n.hostname))?;
                node_dbs.insert(n.hostname.clone(), db);
                pm.record_resumed(&n.hostname);
                pm.record_moment(
                    rec.cursor(),
                    format!("resumed {} from checkpoint", n.hostname),
                );
                continue;
            }

            // Boot the node into the installer.
            let mut rng = injector.rng_for(&format!("boot.{}", n.hostname));
            let boot = retry_with(&config.boot_retry, &mut rng, |_| {
                match injector.should_fault(InjectionPoint::NodeBoot, &n.hostname) {
                    Some(kind) => Err(kind),
                    None => Ok(()),
                }
            });
            pm.charge_retries(boot.retries(), boot.backoff_s);
            let hangs = if boot.succeeded() {
                boot.retries()
            } else {
                boot.attempts
            };
            if hangs > 0 {
                rec.record(
                    format!("{}: hung boots", n.hostname),
                    hangs as f64 * BOOT_HANG_S,
                );
            }
            rec.record_backoff(format!("{}: boot retries", n.hostname), boot.backoff_s);
            if boot.succeeded() && boot.retries() > 0 {
                pm.record_moment(
                    rec.cursor(),
                    format!(
                        "{}: node.boot absorbed {} retry(ies)",
                        n.hostname,
                        boot.retries()
                    ),
                );
            }
            if let Err(kind) = boot.result {
                quarantine_node(
                    &n.hostname,
                    rec.cursor(),
                    kind,
                    InjectionPoint::NodeBoot,
                    &mut checkpoint,
                    &mut pm,
                    &mut quarantined,
                );
                continue;
            }

            // Generate its kickstart (genuine graph errors are fatal;
            // injected generation faults are retried).
            let ks = kickstart::generate(&self.media, n, Appliance::Compute)
                .map_err(|e| InstallError::from(e).at(&checkpoint, &n.hostname))?;
            let mut rng = injector.rng_for(&format!("ks.{}", n.hostname));
            let gen = retry_with(&config.kickstart_retry, &mut rng, |_| {
                match injector.should_fault(InjectionPoint::KickstartGenerate, &n.hostname) {
                    Some(kind) => Err(kind),
                    None => Ok(()),
                }
            });
            pm.charge_retries(gen.retries(), gen.backoff_s);
            rec.record_backoff(format!("{}: kickstart retries", n.hostname), gen.backoff_s);
            if gen.succeeded() && gen.retries() > 0 {
                pm.record_moment(
                    rec.cursor(),
                    format!(
                        "{}: kickstart.generate absorbed {} retry(ies)",
                        n.hostname,
                        gen.retries()
                    ),
                );
            }
            if let Err(kind) = gen.result {
                quarantine_node(
                    &n.hostname,
                    rec.cursor(),
                    kind,
                    InjectionPoint::KickstartGenerate,
                    &mut checkpoint,
                    &mut pm,
                    &mut quarantined,
                );
                continue;
            }
            checkpoint.record(&n.hostname, NodeStage::Kickstarted);

            // Install its packages (scriptlet faults roll back and retry).
            let db = match images
                .install(
                    &n.hostname,
                    ks.walk,
                    injector,
                    &config.transaction_retry,
                    &mut rec,
                    &mut pm,
                )
                .map_err(|e| e.at(&checkpoint, &n.hostname))?
            {
                Ok(db) => db,
                Err(TransactionError::ScriptletFailed { .. }) => {
                    quarantine_node(
                        &n.hostname,
                        rec.cursor(),
                        FaultKind::ScriptletError,
                        InjectionPoint::RpmScriptlet,
                        &mut checkpoint,
                        &mut pm,
                        &mut quarantined,
                    );
                    continue;
                }
                Err(error) => {
                    return Err(InstallError::new(InstallErrorKind::Transaction {
                        node: n.hostname.clone(),
                        error,
                    })
                    .at(&checkpoint, &n.hostname));
                }
            };
            let payload = db.installed_size_bytes();
            let secs = NODE_PXE_S + payload as f64 / (INSTALL_MBPS * 1024.0 * 1024.0);
            let label = format!("{}: pxe + kickstart install", n.hostname);
            if first {
                rec.record(label, secs);
                first = false;
            } else {
                // computes install concurrently from the frontend tree
                rec.record_parallel(label, secs);
            }
            rec.with_field("node", n.hostname.clone())
                .with_field("bytes", payload);
            node_dbs.insert(n.hostname.clone(), db);
            checkpoint.record(&n.hostname, NodeStage::PackagesCommitted);
            if injector
                .should_fault(InjectionPoint::PowerLoss, &n.hostname)
                .is_some()
            {
                return Err(
                    InstallError::new(InstallErrorKind::PowerLoss).at(&checkpoint, &n.hostname)
                );
            }
        }

        pm.faults = injector.events().to_vec();
        Ok(ResilientReport {
            report: InstallReport {
                rocks_db,
                node_dbs,
                trace: rec.into_events(),
                rolls_installed: self.media.rolls().iter().map(|r| r.name.clone()).collect(),
            },
            checkpoint,
            post_mortem: pm,
            quarantined,
        })
    }
}

/// Deterministic MAC derived from a hostname (simulation stand-in for
/// real hardware addresses).
fn synth_mac(hostname: &str) -> String {
    let h = Fnv64::new().write(hostname.as_bytes()).finish();
    format!(
        "02:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
        (h >> 32) as u8,
        (h >> 24) as u8,
        (h >> 16) as u8,
        (h >> 8) as u8,
        h as u8
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roll::standard_rolls;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};

    fn required_rolls() -> Vec<Roll> {
        standard_rolls()
            .into_iter()
            .filter(|r| r.required)
            .collect()
    }

    #[test]
    fn install_state_is_send() {
        // Fleet workers move whole installs (and their outcomes) across
        // threads; a non-Send field sneaking into any of these types
        // should fail here, at compile time, not in the orchestrator.
        fn assert_send<T: Send>() {}
        assert_send::<ClusterInstall>();
        assert_send::<InstallReport>();
        assert_send::<ResilientReport>();
        assert_send::<InstallError>();
        assert_send::<InstallProgress>();
    }

    #[test]
    fn littlefe_full_install_succeeds() {
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let report = install.run().unwrap();
        assert_eq!(report.node_dbs.len(), 6);
        assert_eq!(report.rocks_db.host_count(), 6);
        assert!(report.rocks_db.host("compute-0-4").is_some());
        // every node got the base packages
        for (host, db) in &report.node_dbs {
            assert!(db.is_installed("rocks-base"), "{host} missing rocks-base");
            assert!(db.verify().is_empty(), "{host} db inconsistent");
        }
        // frontend has the web server, computes do not
        assert!(report.node_dbs["littlefe"].is_installed("httpd"));
        assert!(!report.node_dbs["compute-0-0"].is_installed("httpd"));
    }

    #[test]
    fn timeline_has_frontend_then_parallel_computes() {
        let install = ClusterInstall::new(littlefe_modified(), required_rolls());
        let report = install.run().unwrap();
        let spans = &report.trace;
        assert!(spans[0].label.contains("frontend"));
        // the five compute installs share a start time
        let compute_spans: Vec<_> = spans
            .iter()
            .filter(|p| p.label.contains("compute-0-"))
            .collect();
        assert_eq!(compute_spans.len(), 5);
        let starts: Vec<_> = compute_spans.iter().map(|p| p.t).collect();
        assert!(
            starts.windows(2).all(|w| w[0] == w[1]),
            "parallel: {starts:?}"
        );
        // total time is dominated by frontend + one compute wave
        assert!(
            xcbc_sim::span_end(spans).as_secs_f64() < 3.0 * 3600.0,
            "a LittleFe builds in an afternoon"
        );
    }

    #[test]
    fn install_trace_mirrors_timeline() {
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let report = install.run().unwrap();
        assert!(!report.trace.is_empty());
        assert!(report.trace.iter().all(|e| e.source == TRACE_SOURCE));
        assert!(
            report
                .trace
                .iter()
                .all(|e| matches!(e.kind, xcbc_sim::TraceKind::Span { .. })),
            "every event is a span"
        );
        let last_end = report.trace.iter().map(TraceEvent::end).max().unwrap();
        assert_eq!(xcbc_sim::span_end(&report.trace), last_end);
    }

    #[test]
    fn resilient_moments_carry_real_timestamps() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        let plan = FaultPlan::new(3).fail(
            InjectionPoint::NodeBoot,
            Some("compute-0-3"),
            FaultWindow::Always,
        );
        let mut inj = plan.injector();
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let res = install
            .run_resilient(
                &mut inj,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap();
        // the quarantine moment is stamped after the frontend install and
        // the hung boots it sat through, not at t = 0
        let (t, what) = res
            .post_mortem
            .moments
            .iter()
            .find(|(_, what)| what.contains("quarantined compute-0-3"))
            .expect("quarantine recorded as a moment");
        assert!(
            *t > SimTime::ZERO,
            "moment at {t} should be after frontend install"
        );
        assert!(what.contains("hang at node.boot"));
        assert!(res.post_mortem.render().contains("moments:"));
        // the resilient trace carries the extra fault-cost spans too
        assert!(res
            .report
            .trace
            .iter()
            .any(|e| e.label.contains("hung boots")));
    }

    #[test]
    fn limulus_cannot_be_rocks_installed() {
        let install = ClusterInstall::new(limulus_hpc200(), standard_rolls());
        match install.run().map_err(|e| e.kind) {
            Err(InstallErrorKind::NotInstallable(reasons)) => {
                assert!(reasons.iter().any(|r| r.contains("diskless")))
            }
            other => panic!("expected NotInstallable, got {other:?}"),
        }
    }

    #[test]
    fn missing_roll_package_is_reported() {
        // graph wants bash & friends, but we only supply the base roll
        let only_base: Vec<Roll> = standard_rolls()
            .into_iter()
            .filter(|r| r.name == "base")
            .collect();
        let install = ClusterInstall::new(littlefe_modified(), only_base);
        match install.run().map_err(|e| e.kind) {
            Err(InstallErrorKind::MissingPackage { package, .. }) => {
                assert!(!package.is_empty());
            }
            other => panic!("expected MissingPackage, got {other:?}"),
        }
        // the fault-aware path reports where it stopped, like every
        // other abort: nothing committed, stopped on the frontend
        let err = install
            .run_resilient(
                &mut xcbc_fault::FaultPlan::new(9).injector(),
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap_err();
        assert!(matches!(err.kind, InstallErrorKind::MissingPackage { .. }));
        assert_eq!(err.progress.aborted_on.as_deref(), Some("littlefe"));
        assert!(err.progress.completed.is_empty());
        assert!(err
            .to_string()
            .ends_with("[0 node(s) committed, aborted on littlefe]"));
    }

    #[test]
    fn transient_faults_absorbed_by_retries() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        // Every node's first DHCP exchange and first boot fail once.
        let plan = FaultPlan::new(2)
            .fail(InjectionPoint::DhcpDiscover, None, FaultWindow::Nth(0))
            .fail(InjectionPoint::NodeBoot, None, FaultWindow::Nth(0));
        let mut inj = plan.injector();
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let res = install
            .run_resilient(
                &mut inj,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap();
        assert!(
            res.quarantined.is_empty(),
            "single transient faults must not quarantine"
        );
        assert_eq!(res.report.node_dbs.len(), 6);
        assert!(
            res.post_mortem.retries_spent >= 10,
            "5 dhcp + 5 boot retries"
        );
        assert!(res.post_mortem.backoff_s > 0.0);
        assert!(xcbc_sim::backoff_time(&res.report.trace) > xcbc_sim::SimDuration::ZERO);
        // faults cost real install time too (timeouts + hung boots)
        let plain = install.run().unwrap();
        assert!(xcbc_sim::span_end(&res.report.trace) > xcbc_sim::span_end(&plain.trace));
    }

    #[test]
    fn persistent_node_fault_quarantines_and_degrades() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        let plan = FaultPlan::new(3).fail(
            InjectionPoint::NodeBoot,
            Some("compute-0-3"),
            FaultWindow::Always,
        );
        let mut inj = plan.injector();
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let res = install
            .run_resilient(
                &mut inj,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap();
        assert_eq!(res.quarantined.len(), 1);
        assert_eq!(res.quarantined[0].0, "compute-0-3");
        assert_eq!(res.quarantined[0].1, xcbc_fault::FaultKind::Hang);
        // the rest of the cluster still installed
        assert_eq!(res.report.node_dbs.len(), 5);
        assert!(!res.report.node_dbs.contains_key("compute-0-3"));
        assert!(res.checkpoint.is_quarantined("compute-0-3"));
        assert!(res.post_mortem.render().contains("quarantined compute-0-3"));
    }

    #[test]
    fn scriptlet_fault_quarantines_only_that_node() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        // Each transaction consults `rpm.scriptlet` keyed by package name;
        // hit counters are per (point, key) stream, so "rocks-base" hits
        // accumulate across attempts. Fail its first 2 hits: the
        // frontend's transaction fails twice and succeeds on attempt 3,
        // inside the default 3-attempt budget.
        let plan = FaultPlan::new(4).fail(
            InjectionPoint::RpmScriptlet,
            Some("rocks-base"),
            FaultWindow::Range { start: 0, end: 2 },
        );
        let mut inj = plan.injector();
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let res = install
            .run_resilient(
                &mut inj,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap();
        assert!(
            res.quarantined.is_empty(),
            "2 scriptlet faults fit in the 3-attempt budget"
        );
        assert!(res.post_mortem.retries_spent >= 2);
        assert_eq!(res.report.node_dbs.len(), 6);
    }

    #[test]
    fn power_loss_aborts_with_checkpoint_then_resume_completes() {
        use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint};
        let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let fault_free = install.run().unwrap();

        // Power fails right after compute-0-1 commits its packages.
        let plan = FaultPlan::new(5).fail(
            InjectionPoint::PowerLoss,
            Some("compute-0-1"),
            FaultWindow::Nth(0),
        );
        let mut inj = plan.injector();
        let err = install
            .run_resilient(
                &mut inj,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap_err();
        assert!(matches!(err.kind, InstallErrorKind::PowerLoss));
        assert_eq!(err.progress.aborted_on.as_deref(), Some("compute-0-1"));
        // the frontend and the committed computes survive in the checkpoint
        let cp = err.progress.checkpoint.clone();
        assert!(cp.frontend_committed());
        assert!(cp.is_committed("littlefe"));
        assert!(cp.is_committed("compute-0-1"));
        assert!(!cp.is_committed("compute-0-4"));
        assert!(err.progress.completed.contains(&"compute-0-1".to_string()));

        // The checkpoint round-trips through its state-file form.
        let cp = InstallCheckpoint::parse(&cp.to_text()).unwrap();

        // Resume under the same plan: committed nodes are skipped (their
        // power.loss window is never consulted again), the rest install.
        let mut inj2 = plan.injector();
        let resumed = install
            .run_resilient(&mut inj2, &ResilienceConfig::default(), cp)
            .unwrap();
        assert!(resumed.quarantined.is_empty());
        assert!(
            resumed
                .post_mortem
                .resumed_nodes
                .contains(&"compute-0-1".to_string()),
            "committed node must be resumed, not reinstalled: {:?}",
            resumed.post_mortem.resumed_nodes
        );
        // Final package sets equal the fault-free install, everywhere.
        assert_eq!(resumed.report.node_dbs.len(), fault_free.node_dbs.len());
        for (host, db) in &fault_free.node_dbs {
            assert_eq!(
                &resumed.report.node_dbs[host], db,
                "{host} diverged from fault-free"
            );
        }
        // Resumed nodes are not re-timed: no pxe+install phase for them.
        let resumed_labels: Vec<_> = resumed
            .report
            .trace
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert!(
            !resumed_labels.iter().any(|l| l.starts_with("compute-0-1:")),
            "compute-0-1 was reinstalled: {resumed_labels:?}"
        );
    }

    #[test]
    fn identical_seeds_identical_resilient_outcomes() {
        use xcbc_fault::FaultPlan;
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_rate(xcbc_fault::InjectionPoint::DhcpDiscover, 0.3)
                .with_rate(xcbc_fault::InjectionPoint::NodeBoot, 0.2);
            let mut inj = plan.injector();
            let install = ClusterInstall::new(littlefe_modified(), standard_rolls());
            install
                .run_resilient(
                    &mut inj,
                    &ResilienceConfig::default(),
                    InstallCheckpoint::new(),
                )
                .map(|r| (r.post_mortem.render(), r.checkpoint.to_text()))
                .map_err(|e| e.to_string())
        };
        assert_eq!(run(77), run(77), "same seed must replay identically");
        assert_ne!(run(77), run(78), "different seeds should diverge");
    }

    #[test]
    fn installs_sharing_a_store_keep_images_of_different_rolls_apart() {
        // the same kickstart lists, but rocks-base is 1 MiB larger in
        // the second install's base roll
        let mut rolls = standard_rolls();
        let base = rolls
            .iter_mut()
            .flat_map(|r| r.packages.iter_mut())
            .find(|p| p.name() == "rocks-base")
            .expect("the base roll carries rocks-base");
        let mut bigger = Package::clone(base);
        bigger.size_bytes += 1 << 20;
        *base = Arc::new(bigger);
        let first = ClusterInstall::new(littlefe_modified(), standard_rolls());
        let second = ClusterInstall::new(littlefe_modified(), rolls);
        let run = |install: &ClusterInstall, store: &NodeImageStore| {
            install
                .run_resilient_in(
                    &mut FaultPlan::new(0).injector(),
                    &ResilienceConfig::default(),
                    InstallCheckpoint::new(),
                    store,
                )
                .unwrap()
                .report
        };
        let store = NodeImageStore::default();
        let (a, b) = (run(&first, &store), run(&second, &store));
        let b_alone = second.run().unwrap();
        assert_eq!(b.node_dbs, b_alone.node_dbs);
        assert_eq!(b.trace, b_alone.trace);
        for (host, db) in &a.node_dbs {
            assert_eq!(
                db.installed_size_bytes() + (1 << 20),
                b.node_dbs[host].installed_size_bytes(),
                "{host} took the other roll's image"
            );
        }
        // frontend and compute, once per roll set
        assert_eq!(store.0.len(), 4);
    }

    #[test]
    fn installs_from_one_media_hand_the_store_its_packages() {
        let media = Arc::new(InstallMedia::new(standard_rolls()));
        let store = NodeImageStore::default();
        let run = |install: ClusterInstall| {
            install
                .run_resilient_in(
                    &mut FaultPlan::new(0).injector(),
                    &ResilienceConfig::default(),
                    InstallCheckpoint::new(),
                    &store,
                )
                .unwrap()
                .report
        };
        let first = run(ClusterInstall::with_media(
            littlefe_modified(),
            Arc::clone(&media),
        ));
        let second = run(ClusterInstall::with_media(
            littlefe_modified(),
            Arc::clone(&media),
        ));
        assert_eq!(first.node_dbs, second.node_dbs);
        // frontend and compute, stored by the first install and taken
        // by the second
        assert_eq!(store.0.len(), 2);
        for appliance in [Appliance::Frontend, Appliance::Compute] {
            let walk = media.walk(appliance).unwrap();
            let packages = walk.resolved.as_deref().unwrap();
            let by_pointer = |image: &Arc<CommittedImage>| {
                image.packages.len() == packages.len()
                    && image
                        .packages
                        .iter()
                        .zip(packages)
                        .all(|(a, b)| Arc::ptr_eq(a, b))
            };
            assert!(store.0.get(&walk.key, by_pointer).is_some());
        }
        // equal packages from other media still match, without sharing
        // a pointer
        let other = run(ClusterInstall::new(littlefe_modified(), standard_rolls()));
        assert_eq!(other.node_dbs, first.node_dbs);
        assert_eq!(store.0.len(), 2);
    }

    #[test]
    fn synthetic_macs_unique_and_stable() {
        let a = synth_mac("compute-0-0");
        let b = synth_mac("compute-0-1");
        assert_ne!(a, b);
        assert_eq!(a, synth_mac("compute-0-0"));
        assert!(a.starts_with("02:"));
    }

    #[test]
    fn optional_rolls_add_packages() {
        let base_report = ClusterInstall::new(littlefe_modified(), required_rolls())
            .run()
            .unwrap();
        let full_report = ClusterInstall::new(littlefe_modified(), standard_rolls())
            .run()
            .unwrap();
        // with the full roll set the graph is the same but the catalog is
        // bigger; packages only land if the graph references them, so
        // counts are equal here — the XSEDE roll in xcbc-core adds graph
        // nodes and therefore packages.
        assert_eq!(
            base_report.package_count("compute-0-0"),
            full_report.package_count("compute-0-0")
        );
        assert_eq!(full_report.rolls_installed.len(), standard_rolls().len());
    }
}
