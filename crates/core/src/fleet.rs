//! Fleet-scale deployment: N sites, one orchestrator.
//!
//! Table 3 is not one cluster — it is a *fleet* of campus clusters
//! (Kansas, Montana State, Marshall, Hawai‘i, the two IU desksides)
//! adopting XCBC/XNIT. [`Fleet`] deploys many site configurations
//! concurrently on a worker pool, each site on its own deterministic
//! seed and simulation clock, and merges the per-site traces into one
//! fleet-level JSONL report.
//!
//! Two properties the design guarantees:
//!
//! 1. **Determinism survives parallelism.** A site's deployment is a
//!    pure function of its [`FleetSite`] spec — its own fault-plan seed,
//!    its own clock starting at zero. Worker threads only decide *when*
//!    a site runs, never *what* it computes, and results are slotted by
//!    site index, so per-site traces are byte-identical whether the
//!    fleet runs on 1 thread or 8 (property-tested in
//!    `tests/fleet_determinism.rs`).
//! 2. **Shared solves and images, not shared state.** XNIT overlay
//!    sites route their depsolves through one fleet-wide
//!    [`SolveCache`]: near-identical sites hit the
//!    memoized solution instead of re-walking the closure. Each
//!    [`Fleet::deploy`] also owns one Rocks [`NodeImageStore`] and one
//!    [`OverlayImages`] store that every site shares, so equal sites
//!    build each node image once: a from-scratch node whose kickstart
//!    list and resolved packages another site already committed takes
//!    that image, and an overlay node whose starting image and setup
//!    method another site already overlaid takes that result. A site
//!    gets the same report whichever site built the image, and a site
//!    whose fault plan arms `rpm.scriptlet` shares no Rocks image.
//!    Cache hit/miss counters are *fleet-level* telemetry (their totals
//!    are the same at any thread count, but which site hit depends on
//!    scheduling) and are reported beside — never inside — the per-site
//!    traces.

use crate::deploy::{
    deploy_from_scratch_in, deploy_xnit_overlay_kept, DeploymentReport, OverlayImages,
};
use crate::xnit::XnitSetupMethod;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use xcbc_cluster::{
    default_alert_rules, Alert, ClusterMonitor, ClusterSpec, MetricKind, TelemetryConfig,
    TelemetrySink,
};
use xcbc_fault::{FaultPlan, InstallCheckpoint};
use xcbc_rocks::{InstallError, NodeImageStore, ResilienceConfig};
use xcbc_rpm::RpmDb;
use xcbc_sim::{pool, span_end, trace_end, MetricRegistry, SimTime};
use xcbc_yum::{CacheStats, SolveCache};

/// How one fleet site gets deployed.
#[derive(Debug, Clone)]
pub enum SitePlan {
    /// Bare-metal Rocks + XSEDE roll install, run resiliently under the
    /// site's fault plan (the plan's seed is the site's seed).
    FromScratch {
        /// The hardware to install onto.
        cluster: ClusterSpec,
        /// The site's deterministic fault scenario.
        faults: FaultPlan,
    },
    /// XNIT overlay onto an existing, operating cluster. Depsolves go
    /// through the fleet's shared solve cache.
    XnitOverlay {
        /// Per-node package databases of the running cluster.
        existing: BTreeMap<String, RpmDb>,
        /// Which of §3's two setup methods the site uses.
        method: XnitSetupMethod,
    },
}

/// One site configuration in a fleet.
#[derive(Debug, Clone)]
pub struct FleetSite {
    /// Site name (used to address per-site traces in the report).
    pub name: String,
    /// How the site deploys.
    pub plan: SitePlan,
}

impl FleetSite {
    /// A from-scratch site with a clean fault plan seeded at `seed`.
    pub fn from_scratch(name: impl Into<String>, cluster: ClusterSpec, seed: u64) -> FleetSite {
        FleetSite {
            name: name.into(),
            plan: SitePlan::FromScratch {
                cluster,
                faults: FaultPlan::new(seed),
            },
        }
    }

    /// A from-scratch site deploying under an explicit fault plan.
    pub fn from_scratch_with_faults(
        name: impl Into<String>,
        cluster: ClusterSpec,
        faults: FaultPlan,
    ) -> FleetSite {
        FleetSite {
            name: name.into(),
            plan: SitePlan::FromScratch { cluster, faults },
        }
    }

    /// An XNIT overlay site over `existing` node databases.
    pub fn overlay(
        name: impl Into<String>,
        existing: BTreeMap<String, RpmDb>,
        method: XnitSetupMethod,
    ) -> FleetSite {
        FleetSite {
            name: name.into(),
            plan: SitePlan::XnitOverlay { existing, method },
        }
    }
}

/// Why one site's deployment failed (the fleet keeps going; per-site
/// failures land in that site's [`SiteOutcome`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The overlay path could not resolve its package set.
    Solve(xcbc_yum::SolveError),
    /// The from-scratch path aborted.
    Install(InstallError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Solve(e) => write!(f, "site depsolve failed: {e}"),
            FleetError::Install(e) => write!(f, "site install failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One site's result inside a [`FleetReport`].
#[derive(Debug)]
pub struct SiteOutcome {
    /// The site's name, copied from its [`FleetSite`].
    pub name: String,
    /// The deployment report, or why the site failed.
    pub result: Result<DeploymentReport, FleetError>,
}

impl SiteOutcome {
    /// Did this site deploy successfully?
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// The fleet-level deployment report: per-site outcomes in site order,
/// plus the shared solve-cache counters.
#[derive(Debug)]
pub struct FleetReport {
    /// One outcome per site, in the order sites were added (independent
    /// of which worker finished first).
    pub sites: Vec<SiteOutcome>,
    /// How many worker threads the deploy ran on.
    pub threads: usize,
    /// Solve-cache counters at the end of the run. The totals are the
    /// same at any thread count: a site whose solve loses the insert
    /// race to an equal key counts a hit. Which site hits is a race, so
    /// they are fleet-level only.
    pub cache: CacheStats,
}

impl FleetReport {
    /// Did every site deploy successfully?
    pub fn all_succeeded(&self) -> bool {
        self.sites.iter().all(SiteOutcome::succeeded)
    }

    /// Look up one site's outcome by its *post-dedup* name — the name
    /// the report actually carries after [`Fleet::add_site`]'s duplicate
    /// renaming (`tech-u`, `tech-u-2`, ...). This is the canonical
    /// lookup; an exact match on the renamed name is required, so the
    /// second `tech-u` site is only addressable as `tech-u-2`.
    pub fn find(&self, name: &str) -> Option<&SiteOutcome> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Alias for [`FleetReport::find`].
    pub fn site(&self, name: &str) -> Option<&SiteOutcome> {
        self.find(name)
    }

    /// Number of sites in the report.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the fleet had no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// One site's trace as byte-deterministic JSONL — identical at any
    /// worker-thread count.
    pub fn site_trace_jsonl(&self, name: &str) -> Option<String> {
        self.site(name)
            .and_then(|s| s.result.as_ref().ok())
            .map(DeploymentReport::trace_jsonl)
    }

    /// The merged fleet trace: every successful site's events, each
    /// line tagged with a `site` field, ordered by site then by each
    /// site's own emission order. Deterministic at any thread count.
    pub fn merged_jsonl(&self) -> String {
        let mut out = String::new();
        for site in &self.sites {
            if let Ok(report) = &site.result {
                for ev in &report.trace {
                    let tagged = ev.clone().with_field("site", site.name.as_str());
                    out.push_str(&tagged.to_jsonl());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Sum of per-site deployment wall estimates (the sequential cost
    /// the fleet's parallelism amortizes). A zero-site fleet (or one
    /// where every site failed) sums to exactly `0.0`.
    pub fn total_site_seconds(&self) -> f64 {
        self.sites
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|r| span_end(&r.trace).as_secs_f64())
            .sum()
    }

    /// The fleet's simulated makespan: sites assigned in order to the
    /// least-loaded of the run's workers, makespan = the busiest
    /// worker's total simulated seconds. Wall-clock speedup depends on
    /// host cores, but this models what N parallel site crews buy on
    /// the simulation clock (8 equal sites on 4 workers → 2 sites per
    /// worker → a 4× shorter campaign). Deterministic: assignment uses
    /// site order and breaks ties by lowest worker index. A zero-site
    /// fleet has a makespan of exactly `0.0` (never `NaN`), whatever
    /// the worker count.
    pub fn makespan_seconds(&self) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let workers = self.threads.max(1);
        let mut loads = vec![0.0f64; workers];
        for site in &self.sites {
            let secs = site
                .result
                .as_ref()
                .map(|r| span_end(&r.trace).as_secs_f64())
                .unwrap_or(0.0);
            let mut lightest = 0;
            for (i, load) in loads.iter().enumerate().skip(1) {
                if *load < loads[lightest] {
                    lightest = i;
                }
            }
            loads[lightest] += secs;
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    /// Render the fleet table: one row per site plus a summary line
    /// with the solve-cache hit rate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for site in &self.sites {
            match &site.result {
                Ok(report) => {
                    out.push_str(&format!("{:<24} {}\n", site.name, report.render_row()));
                }
                Err(e) => {
                    out.push_str(&format!("{:<24} FAILED: {e}\n", site.name));
                }
            }
        }
        out.push_str(&format!(
            "fleet: {}/{} sites ok on {} thread(s), {:.0} site-seconds ({:.0}s makespan); solve cache {} hits / {} misses ({:.0}% hit rate, {} entries)\n",
            self.sites.iter().filter(|s| s.succeeded()).count(),
            self.sites.len(),
            self.threads,
            self.total_site_seconds(),
            self.makespan_seconds(),
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries,
        ));
        out
    }
}

/// The fleet orchestrator: a list of site configurations, a worker
/// count, and a shared solve cache.
///
/// ```
/// use xcbc_core::deploy::limulus_factory_image;
/// use xcbc_core::fleet::{Fleet, FleetSite};
/// use xcbc_core::XnitSetupMethod;
/// use xcbc_cluster::specs::limulus_hpc200;
///
/// let dbs = |_| limulus_hpc200().nodes.iter()
///     .map(|n| (n.hostname.clone(), limulus_factory_image()))
///     .collect();
/// let fleet = Fleet::new()
///     .add_site(FleetSite::overlay("marshall", dbs(0), XnitSetupMethod::RepoRpm))
///     .add_site(FleetSite::overlay("hawaii", dbs(1), XnitSetupMethod::RepoRpm))
///     .with_threads(2);
/// let report = fleet.deploy();
/// assert!(report.all_succeeded());
/// assert!(report.cache.hits > 0, "second site reuses the first's solves");
/// ```
#[derive(Debug)]
pub struct Fleet {
    sites: Vec<FleetSite>,
    threads: usize,
    cache: Arc<SolveCache>,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

impl Fleet {
    /// An empty fleet: no sites, 1 worker thread, a fresh solve cache.
    pub fn new() -> Fleet {
        Fleet {
            sites: Vec::new(),
            threads: 1,
            cache: Arc::new(SolveCache::new()),
        }
    }

    /// Append a site (builder style). Sites deploy independently; order
    /// only determines report order.
    ///
    /// Site names address per-site traces in the report, so a duplicate
    /// name is deterministically renamed by appending the lowest free
    /// `-2`, `-3`, ... suffix (two "tech-u" sites become "tech-u" and
    /// "tech-u-2", regardless of add order elsewhere).
    pub fn add_site(mut self, mut site: FleetSite) -> Fleet {
        if self.sites.iter().any(|s| s.name == site.name) {
            let base = site.name.clone();
            let mut k = 2usize;
            while self.sites.iter().any(|s| s.name == format!("{base}-{k}")) {
                k += 1;
            }
            site.name = format!("{base}-{k}");
        }
        self.sites.push(site);
        self
    }

    /// Deploy on `threads` workers (clamped to at least 1; more workers
    /// than sites is allowed, the extras just exit).
    pub fn with_threads(mut self, threads: usize) -> Fleet {
        self.threads = threads.max(1);
        self
    }

    /// Share a caller-provided solve cache (e.g. one cache across
    /// several fleet runs). A fresh fleet already has its own.
    pub fn with_solve_cache(mut self, cache: Arc<SolveCache>) -> Fleet {
        self.cache = cache;
        self
    }

    /// The configured sites.
    pub fn sites(&self) -> &[FleetSite] {
        &self.sites
    }

    /// Number of configured sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no sites have been added.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The shared solve cache.
    pub fn solve_cache(&self) -> &Arc<SolveCache> {
        &self.cache
    }

    /// Deploy every site and collect the fleet report, in site order
    /// no matter which worker finishes when. One deploy owns one Rocks
    /// image store and one overlay image store, shared by its workers;
    /// nothing carries over to the next deploy.
    pub fn deploy(&self) -> FleetReport {
        let rocks = NodeImageStore::default();
        let overlays = OverlayImages::default();
        FleetReport {
            sites: pool::map(self.threads, &self.sites, |site| {
                self.deploy_site(site, &rocks, &overlays)
            }),
            threads: pool::workers(self.threads, self.sites.len()),
            cache: self.cache.stats(),
        }
    }

    fn deploy_site(
        &self,
        site: &FleetSite,
        rocks: &NodeImageStore,
        overlays: &OverlayImages,
    ) -> SiteOutcome {
        let result = match &site.plan {
            SitePlan::FromScratch { cluster, faults } => deploy_from_scratch_in(
                cluster,
                faults,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
                rocks,
            )
            .map_err(FleetError::Install),
            SitePlan::XnitOverlay { existing, method } => deploy_xnit_overlay_kept(
                existing,
                *method,
                Some(Arc::clone(&self.cache)),
                0,
                overlays,
            )
            .map_err(FleetError::Solve),
        };
        SiteOutcome {
            name: site.name.clone(),
            result,
        }
    }
}

/// Fleet-wide telemetry rollup: one gmetad per site, aggregated upward
/// into a meta-gmetad the way production Ganglia federates gmetads.
///
/// Each site's monitor is built by replaying that site's own
/// deterministic trace through a
/// [`TelemetrySink`] — and because
/// per-site traces are byte-identical at any worker-thread count, so is
/// everything derived here, including the Prometheus exposition
/// (property-tested in `tests/fleet_determinism.rs`). Of the solve
/// cache it registers the lookup and entry totals, not the hit/miss
/// split.
#[derive(Debug)]
pub struct FleetTelemetry {
    /// Per-site gmetads, keyed by site name.
    pub sites: BTreeMap<String, ClusterMonitor>,
    /// The meta-gmetad: every node of every site, namespaced
    /// `site/host`, carrying each node's latest sample per metric.
    pub meta: ClusterMonitor,
    /// Heartbeat/quarantine/threshold alerts across all sites, in site
    /// order then firing order.
    pub alerts: Vec<Alert>,
    /// The fleet registry: per-site node gauges (labelled `site`,
    /// `host`), per-site alert totals, and the deterministic
    /// solve-cache totals.
    pub registry: MetricRegistry,
}

impl FleetTelemetry {
    /// Build the rollup from a finished fleet deployment.
    pub fn from_report(report: &FleetReport) -> FleetTelemetry {
        let mut sites = BTreeMap::new();
        // the meta-gmetad is only ever read for each host's latest
        // sample, and it is sent exactly one per host and metric
        let mut meta = ClusterMonitor::new(1);
        let mut alerts = Vec::new();
        let mut registry = MetricRegistry::new();

        for site in &report.sites {
            let Ok(dep) = &site.result else { continue };
            let mut hosts: Vec<String> = dep.node_dbs.keys().cloned().collect();
            if let Some(pm) = &dep.post_mortem {
                for (node, _) in &pm.quarantined {
                    if !hosts.contains(node) {
                        hosts.push(node.clone());
                    }
                }
            }
            // the frontend is the non-compute host (BTreeMap order makes
            // this stable); single-role sites fall back to the first host
            let frontend = hosts
                .iter()
                .find(|h| !h.starts_with("compute-"))
                .or_else(|| hosts.first())
                .cloned()
                .unwrap_or_else(|| site.name.clone());
            let end = trace_end(&dep.trace);

            let mut sink = TelemetrySink::new(
                ClusterMonitor::new(64),
                TelemetryConfig::new(frontend, hosts),
                default_alert_rules(),
            );
            sink.ingest(&dep.trace);
            if let Some(pm) = &dep.post_mortem {
                for (node, _) in &pm.quarantined {
                    sink.note_quarantined(end, node);
                }
            }
            sink.finish(end);
            let (monitor, engine) = sink.into_parts();

            let base: &[(&str, &str)] = &[("site", &site.name)];
            monitor.register_into(&mut registry, base);
            engine.register_into(&mut registry, base);

            // aggregate upward: the meta-gmetad keeps each node's
            // latest sample per metric, namespaced by site
            for host in monitor.hosts() {
                let fleet_host = format!("{}/{host}", site.name);
                meta.register(&fleet_host);
                let Some(n) = monitor.node(&host) else {
                    continue;
                };
                for kind in MetricKind::ALL {
                    if let Some(s) = n.ring(kind).latest() {
                        meta.publish(&fleet_host, kind, s.time, s.value);
                    }
                }
            }

            alerts.extend(engine.into_alerts());
            sites.insert(site.name.clone(), monitor);
        }

        // fleet-level solve-cache telemetry: lookups and entries
        registry.set_counter(
            "xcbc_solvecache_lookups_total",
            "Depsolve lookups against the fleet-shared cache",
            &[],
            report.cache.hits + report.cache.misses,
        );
        registry.set_gauge(
            "xcbc_solvecache_entries",
            "Distinct solutions stored in the fleet-shared cache",
            &[],
            report.cache.entries as f64,
        );

        FleetTelemetry {
            sites,
            meta,
            alerts,
            registry,
        }
    }

    /// Prometheus text exposition of the fleet registry —
    /// byte-identical at any worker-thread count.
    pub fn prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The meta-gmetad's Ganglia XML dump (`site/host` node names),
    /// stamped at the latest sample the fleet saw.
    pub fn ganglia_xml(&self) -> String {
        let now = self
            .sites
            .values()
            .flat_map(|m| {
                m.hosts()
                    .into_iter()
                    .filter_map(|h| m.node(&h).and_then(|n| n.last_seen()))
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        self.meta.ganglia_xml("fleet", now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy_xnit_overlay_with, limulus_factory_image};
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};

    fn limulus_dbs() -> BTreeMap<String, RpmDb> {
        limulus_hpc200()
            .nodes
            .iter()
            .map(|n| (n.hostname.clone(), limulus_factory_image()))
            .collect()
    }

    fn mixed_fleet(threads: usize) -> Fleet {
        Fleet::new()
            .add_site(FleetSite::overlay(
                "montana-state",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .add_site(FleetSite::from_scratch("marshall", littlefe_modified(), 7))
            .add_site(FleetSite::overlay(
                "hawaii-hilo",
                limulus_dbs(),
                XnitSetupMethod::ManualRepoFile,
            ))
            .add_site(FleetSite::overlay(
                "iu-limulus",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .with_threads(threads)
    }

    #[test]
    fn fleet_types_are_sendable_across_workers() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fleet>();
        assert_send_sync::<FleetSite>();
        fn assert_send<T: Send>() {}
        assert_send::<SiteOutcome>();
        assert_send::<FleetReport>();
    }

    #[test]
    fn fleet_deploys_all_sites_in_order() {
        let report = mixed_fleet(2).deploy();
        assert!(report.all_succeeded(), "{}", report.render());
        let names: Vec<_> = report.sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["montana-state", "marshall", "hawaii-hilo", "iu-limulus"],
            "report order is site order, not completion order"
        );
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn identical_overlay_sites_hit_the_cache() {
        let report = mixed_fleet(1).deploy();
        // three limulus overlays share factory images: the second and
        // third reuse the first's depsolves
        assert!(report.cache.hits > 0, "{:?}", report.cache);
        assert!(report.cache.hit_rate() > 0.0);
    }

    #[test]
    fn site_trace_is_thread_count_invariant() {
        let sequential = mixed_fleet(1).deploy();
        let parallel = mixed_fleet(8).deploy();
        for site in ["montana-state", "marshall", "hawaii-hilo", "iu-limulus"] {
            assert_eq!(
                sequential.site_trace_jsonl(site),
                parallel.site_trace_jsonl(site),
                "trace for {site} must not depend on worker count"
            );
        }
    }

    #[test]
    fn merged_jsonl_tags_site_and_is_deterministic() {
        let a = mixed_fleet(1).deploy().merged_jsonl();
        let b = mixed_fleet(4).deploy().merged_jsonl();
        assert_eq!(a, b, "merged fleet trace is deterministic");
        assert!(a.lines().all(|l| l.contains("\"site\":")));
        assert!(a.lines().any(|l| l.contains("marshall")));
    }

    #[test]
    fn failed_site_does_not_sink_the_fleet() {
        // from-scratch on diskless Limulus blades cannot work — the
        // paper's reason that site uses XNIT
        let fleet = Fleet::new()
            .add_site(FleetSite::from_scratch("doomed", limulus_hpc200(), 3))
            .add_site(FleetSite::overlay(
                "fine",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .with_threads(2);
        let report = fleet.deploy();
        assert!(!report.all_succeeded());
        assert!(!report.site("doomed").unwrap().succeeded());
        assert!(report.site("fine").unwrap().succeeded());
        let rendered = report.render();
        assert!(rendered.contains("FAILED"), "{rendered}");
        assert!(rendered.contains("1/2 sites ok"), "{rendered}");
    }

    #[test]
    fn shared_cache_spans_fleet_runs() {
        let cache = Arc::new(SolveCache::new());
        let first = Fleet::new()
            .add_site(FleetSite::overlay(
                "a",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .with_solve_cache(Arc::clone(&cache))
            .deploy();
        let second = Fleet::new()
            .add_site(FleetSite::overlay(
                "b",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .with_solve_cache(Arc::clone(&cache))
            .deploy();
        assert!(second.cache.hits > first.cache.hits, "run 2 reuses run 1");
        let mut registry = xcbc_sim::MetricRegistry::new();
        cache.register_metrics(&mut registry);
        assert!(
            registry
                .counter_value("xcbc_solvecache_hits_total", &[])
                .unwrap()
                > 0,
            "shared counters export through the registry"
        );
    }

    #[test]
    fn fleet_telemetry_rolls_up_per_site_gmetads() {
        let telemetry = FleetTelemetry::from_report(&mixed_fleet(2).deploy());
        assert_eq!(telemetry.sites.len(), 4);
        // the meta-gmetad namespaces every site's nodes
        let meta_hosts = telemetry.meta.hosts();
        assert!(
            meta_hosts.iter().any(|h| h.starts_with("marshall/")),
            "{meta_hosts:?}"
        );
        assert!(meta_hosts.iter().any(|h| h == "montana-state/limulus"));
        let prom = telemetry.prometheus();
        assert!(prom.contains("site=\"hawaii-hilo\""), "{prom}");
        assert!(prom.contains("xcbc_solvecache_lookups_total"));
        let xml = telemetry.ganglia_xml();
        assert!(xml.contains("CLUSTER NAME=\"fleet\""), "{xml}");
    }

    #[test]
    fn cache_does_not_change_what_gets_installed() {
        let cached = mixed_fleet(1).deploy();
        let uncached =
            deploy_xnit_overlay_with(&limulus_dbs(), XnitSetupMethod::RepoRpm, None).unwrap();
        let via_fleet = cached.site("montana-state").unwrap();
        let report = via_fleet.result.as_ref().unwrap();
        assert_eq!(report.node_dbs, uncached.node_dbs);
        assert_eq!(report.trace_jsonl(), uncached.trace_jsonl());
    }

    #[test]
    fn a_scriptlet_site_and_an_equal_clean_site_each_deploy_as_alone() {
        use crate::deploy::deploy_from_scratch_resilient;
        // one retried scriptlet fault on the frontend's first package
        let armed = FaultPlan::parse("seed=5; rpm.scriptlet key=rocks-base on=nth:0").unwrap();
        let clean = FaultPlan::new(5);
        let alone = |plan: &FaultPlan| {
            deploy_from_scratch_resilient(
                &littlefe_modified(),
                plan,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .unwrap()
        };
        let (armed_alone, clean_alone) = (alone(&armed), alone(&clean));
        assert!(
            armed_alone.post_mortem.as_ref().unwrap().retries_spent > 0,
            "the scriptlet fault fired"
        );
        for plans in [[&armed, &clean], [&clean, &armed]] {
            let report = plans
                .iter()
                .enumerate()
                .fold(Fleet::new(), |fleet, (i, plan)| {
                    fleet.add_site(FleetSite::from_scratch_with_faults(
                        format!("site-{i}"),
                        littlefe_modified(),
                        (*plan).clone(),
                    ))
                })
                .deploy();
            for (site, plan) in report.sites.iter().zip(plans) {
                let want = if std::ptr::eq(plan, &armed) {
                    &armed_alone
                } else {
                    &clean_alone
                };
                let got = site.result.as_ref().unwrap();
                assert_eq!(got.trace_jsonl(), want.trace_jsonl(), "{}", site.name);
                assert_eq!(got.node_dbs, want.node_dbs, "{}", site.name);
                assert_eq!(got.render(), want.render(), "{}", site.name);
            }
        }
    }

    #[test]
    fn a_fleet_deployed_twice_reports_the_same_sites() {
        let fleet =
            mixed_fleet(2).add_site(FleetSite::from_scratch("marshall", littlefe_modified(), 7));
        let (first, second) = (fleet.deploy(), fleet.deploy());
        let rows = |r: &FleetReport| r.render().split("; solve cache").next().unwrap().to_owned();
        assert_eq!(rows(&first), rows(&second));
        assert_eq!(first.merged_jsonl(), second.merged_jsonl());
        for (a, b) in first.sites.iter().zip(&second.sites) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.node_dbs, b.node_dbs);
        }
        // the solve cache is the fleet's and outlives a deploy, so the
        // second deploy makes as many lookups, all hits, and adds nothing
        let lookups = |c: &CacheStats| c.hits + c.misses;
        assert_eq!(lookups(&second.cache), 2 * lookups(&first.cache));
        assert_eq!(second.cache.misses, first.cache.misses);
        assert_eq!(second.cache.entries, first.cache.entries);
    }

    #[test]
    fn empty_fleet_deploys_to_a_zeroed_report() {
        assert!(Fleet::new().is_empty());
        assert_eq!(Fleet::new().len(), 0);
        let report = Fleet::new().with_threads(8).deploy();
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
        assert!(report.all_succeeded(), "vacuously true: no site failed");
        assert_eq!(report.total_site_seconds(), 0.0);
        assert_eq!(report.makespan_seconds(), 0.0);
        assert!(
            report.makespan_seconds().is_finite(),
            "empty fleet must never yield NaN"
        );
        let rendered = report.render();
        assert!(rendered.contains("0/0 sites ok"), "{rendered}");
        assert_eq!(report.merged_jsonl(), "");
    }

    #[test]
    fn duplicate_site_names_are_deterministically_renamed() {
        let fleet = Fleet::new()
            .add_site(FleetSite::overlay(
                "tech-u",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .add_site(FleetSite::overlay(
                "tech-u",
                limulus_dbs(),
                XnitSetupMethod::ManualRepoFile,
            ))
            .add_site(FleetSite::overlay(
                "tech-u",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ));
        let names: Vec<_> = fleet.sites().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["tech-u", "tech-u-2", "tech-u-3"]);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());

        // renames survive into the report, so every site stays addressable
        let report = fleet.with_threads(2).deploy();
        assert!(report.all_succeeded(), "{}", report.render());
        assert_eq!(report.len(), 3);
        assert!(!report.is_empty());
        assert!(report.find("tech-u").is_some());
        assert!(report.find("tech-u-2").is_some());
        assert!(report.site("tech-u-3").is_some());
        assert!(
            report.find("tech-u-4").is_none(),
            "find is exact on post-dedup names"
        );
        assert!(report.site_trace_jsonl("tech-u-2").is_some());
    }

    #[test]
    fn rename_skips_suffixes_already_taken() {
        let fleet = Fleet::new()
            .add_site(FleetSite::overlay(
                "lab",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .add_site(FleetSite::overlay(
                "lab-2",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ))
            .add_site(FleetSite::overlay(
                "lab",
                limulus_dbs(),
                XnitSetupMethod::RepoRpm,
            ));
        let names: Vec<_> = fleet.sites().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["lab", "lab-2", "lab-3"]);
    }
}
