//! `provision`: a seeded fleet of Rocks from-scratch sites and XNIT
//! overlay sites deployed on one worker, its fleet telemetry rollup, a
//! from-scratch install that loses power and resumes from a saved
//! checkpoint, and a faulted LittleFe day one with its monitoring and
//! causal analysis.
//!
//! The traced run deploys the same sites one by one through the layers'
//! public functions and must reproduce every output byte for byte.

use crate::trace::Tracer;
use crate::{digest_texts, splitmix, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc::cluster::{default_alert_rules, limulus_hpc200, littlefe_modified, ClusterSpec};
use xcbc::core::deploy::{
    deploy_from_scratch_resilient, deploy_xnit_overlay_with, limulus_factory_image,
};
use xcbc::core::{
    littlefe_day_one, monitor_run, DeploymentReport, Fleet, FleetError, FleetReport, FleetSite,
    FleetTelemetry, SiteOutcome, SitePlan, XnitSetupMethod,
};
use xcbc::fault::{FaultPlan, InstallCheckpoint};
use xcbc::rocks::{InstallErrorKind, ResilienceConfig};
use xcbc::sim::{analyze, events_to_jsonl};
use xcbc::yum::SolveCache;

/// Chance that one DHCP discovery fails in a from-scratch install: high
/// enough that every iteration retries some, low enough that three
/// failures in a row, which quarantine a node, almost never happen, so
/// no operation of a run fails.
const DHCP_FAULT_RATE: f64 = 0.03;

pub struct Provision {
    sites: Vec<FleetSite>,
    /// Nodes every site should come up with, in site order.
    site_nodes: Vec<usize>,
    resume_cluster: ClusterSpec,
    resume_plan: FaultPlan,
    day_one_plan: FaultPlan,
}

pub fn setup(seed: u64, size: Size) -> Provision {
    let n_sites = size.pick(4, 24);
    let mut rng = seed;
    let mut sites = Vec::with_capacity(n_sites);
    let mut site_nodes = Vec::with_capacity(n_sites);
    for i in 0..n_sites {
        let site_seed = splitmix(&mut rng);
        // a fixed mix, so the amount of work does not depend on the seed:
        // half from-scratch installs on the modified LittleFe (the one
        // spec Rocks can install: Limulus computes are diskless), half
        // overlays on Limulus with both of the paper's setup methods
        let site = match i % 4 {
            0 | 2 => {
                let cluster = littlefe_modified();
                let plan = FaultPlan::parse(&format!(
                    "seed={site_seed}; rate dhcp.discover {DHCP_FAULT_RATE}"
                ))
                .expect("static fault plan parses");
                site_nodes.push(cluster.nodes.len());
                FleetSite::from_scratch_with_faults(format!("scratch-{i:02}"), cluster, plan)
            }
            k => {
                let existing: BTreeMap<String, _> = limulus_hpc200()
                    .nodes
                    .iter()
                    .map(|n| (n.hostname.clone(), limulus_factory_image()))
                    .collect();
                let method = if k == 1 {
                    XnitSetupMethod::RepoRpm
                } else {
                    XnitSetupMethod::ManualRepoFile
                };
                site_nodes.push(existing.len());
                FleetSite::overlay(format!("overlay-{i:02}"), existing, method)
            }
        };
        sites.push(site);
    }
    let plan = |text: String| FaultPlan::parse(&text).expect("static fault plan parses");
    Provision {
        sites,
        site_nodes,
        resume_cluster: littlefe_modified(),
        resume_plan: plan(format!(
            "seed={}; power.loss key=compute-0-2 on=nth:0",
            splitmix(&mut rng)
        )),
        day_one_plan: plan(format!(
            "seed={}; power.loss key=compute-0-1 on=nth:0; rate dhcp.discover {DHCP_FAULT_RATE}",
            splitmix(&mut rng)
        )),
    }
}

/// The fleet's output check: one outcome per configured site, in site
/// order, each deployed with its nodes and a trace.
pub fn check_fleet(
    report: &FleetReport,
    sites: &[FleetSite],
    nodes: &[usize],
) -> Result<(), String> {
    if report.sites.len() != sites.len() {
        return Err(format!(
            "{} sites configured but {} reported",
            sites.len(),
            report.sites.len()
        ));
    }
    for ((outcome, site), want) in report.sites.iter().zip(sites).zip(nodes) {
        if outcome.name != site.name {
            return Err(format!("site {} reported as {}", site.name, outcome.name));
        }
        let dep = outcome
            .result
            .as_ref()
            .map_err(|e| format!("site {} failed: {e}", site.name))?;
        let quarantined = dep
            .post_mortem
            .as_ref()
            .map_or(0, |pm| pm.quarantined.len());
        if dep.node_dbs.len() + quarantined != *want || dep.trace.is_empty() {
            return Err(format!("site {} deployed an incomplete cluster", site.name));
        }
    }
    Ok(())
}

/// Everything one iteration produced, in the order it is digested.
struct Produced {
    report: FleetReport,
    fleet_jsonl: String,
    fleet_prom: String,
    resumed: DeploymentReport,
    resumed_jsonl: String,
    resumes: usize,
    day_hosts: usize,
    day_quarantined: usize,
    day_texts: [String; 3],
}

impl Provision {
    /// A power loss aborts the install with a checkpoint; the checkpoint
    /// is saved as text and read back, and the install resumes from it.
    fn resume_install(&self, t: &mut Tracer) -> Result<(DeploymentReport, usize), String> {
        let mut checkpoint = InstallCheckpoint::new();
        for resumes in 0..=self.resume_cluster.nodes.len() {
            let attempt = t.span("rocks.install", |_| {
                deploy_from_scratch_resilient(
                    &self.resume_cluster,
                    &self.resume_plan,
                    &ResilienceConfig::default(),
                    checkpoint.clone(),
                )
            });
            match attempt {
                Ok(report) => {
                    t.add("rocks.nodes", report.node_dbs.len() as f64);
                    return Ok((report, resumes));
                }
                Err(e) if matches!(e.kind, InstallErrorKind::PowerLoss) => {
                    let saved = &e.progress.checkpoint;
                    checkpoint = t
                        .span("fault.checkpoint", |_| {
                            InstallCheckpoint::parse(&saved.to_text())
                        })
                        .map_err(|e| format!("checkpoint does not parse back: {e}"))?;
                }
                Err(e) => return Err(format!("resumed install failed: {e}")),
            }
        }
        Err("install gave up after repeated power losses".to_string())
    }

    /// Everything after the fleet deploy; shared by both runs, so the
    /// traced run only adds spans.
    fn finish(&self, t: &mut Tracer, report: FleetReport) -> Result<Produced, String> {
        let fleet_jsonl = t.span("sim.render", |_| report.merged_jsonl());
        let fleet_prom = t.span("cluster.telemetry", |_| {
            FleetTelemetry::from_report(&report).prometheus()
        });
        let (resumed, resumes) = self.resume_install(t)?;
        let resumed_jsonl = t.span("sim.render", |_| resumed.trace_jsonl());
        let day = t.span("core.day_one", |_| littlefe_day_one(&self.day_one_plan))?;
        let mon_prom = t.span("cluster.telemetry", |_| {
            monitor_run(&day, default_alert_rules()).prometheus()
        });
        let analysis = t.span("sim.analyze", |_| analyze(&day.events).render());
        let day_jsonl = t.span("sim.render", |_| events_to_jsonl(&day.events));

        let site_events: usize = report
            .sites
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|d| d.trace.len())
            .sum();
        t.add(
            "cluster.telemetry_events",
            (site_events + day.events.len()) as f64,
        );
        t.add("sim.spans", day.events.len() as f64);
        let bytes = fleet_jsonl.len() + resumed_jsonl.len() + day_jsonl.len();
        t.add("sim.trace_bytes", bytes as f64);
        t.add("fault.resumes", resumes as f64);
        let day_cache = day.solve_cache.stats();
        t.add(
            "yum.cache_hits",
            (report.cache.hits + day_cache.hits) as f64,
        );
        t.add(
            "yum.cache_misses",
            (report.cache.misses + day_cache.misses) as f64,
        );
        t.add(
            "yum.cache_entries",
            (report.cache.entries + day_cache.entries) as f64,
        );
        let lookups = report.cache.hits + report.cache.misses + day_cache.hits + day_cache.misses;
        t.add(
            "yum.hit_ratio",
            (report.cache.hits + day_cache.hits) as f64 / lookups.max(1) as f64,
        );
        Ok(Produced {
            fleet_jsonl,
            fleet_prom,
            resumed,
            resumed_jsonl,
            resumes,
            day_hosts: day.hosts.len(),
            day_quarantined: day.quarantined.len(),
            day_texts: [mon_prom, analysis, day_jsonl],
            report,
        })
    }

    fn outcome(&self, produced: Result<Produced, String>) -> Outcome {
        let planned = self.site_nodes.iter().sum::<usize>()
            + self.resume_cluster.nodes.len()
            + littlefe_modified().nodes.len();
        let p = match produced {
            Ok(p) => p,
            Err(e) => return Outcome::failed(planned as u64, e),
        };
        let mut check = check_fleet(&p.report, &self.sites, &self.site_nodes);
        if check.is_ok() && p.resumes == 0 {
            check = Err("the power loss never forced a resume".to_string());
        }
        let fleet_nodes: usize = p
            .report
            .sites
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|d| d.node_dbs.len())
            .sum();
        let deployed = fleet_nodes + p.resumed.node_dbs.len() + p.day_hosts - p.day_quarantined;
        let texts = [&p.fleet_jsonl, &p.fleet_prom, &p.resumed_jsonl]
            .into_iter()
            .chain(&p.day_texts)
            .map(String::as_str);
        Outcome {
            digest: digest_texts(texts),
            work: deployed as u64,
            attempted: planned as u64,
            ok: deployed as u64,
            check,
        }
    }
}

impl Workload for Provision {
    fn run(&self) -> Outcome {
        let fleet = self
            .sites
            .iter()
            .cloned()
            .fold(Fleet::new().with_threads(1), Fleet::add_site);
        let report = fleet.deploy();
        // `finish` opens a handful of spans; this run drops them
        let produced = self.finish(&mut Tracer::new(), report);
        self.outcome(produced)
    }

    fn run_traced(&self, t: &mut Tracer) -> Outcome {
        let cache = Arc::new(SolveCache::new());
        let mut outcomes = Vec::with_capacity(self.sites.len());
        for site in &self.sites {
            let result = match &site.plan {
                SitePlan::FromScratch { cluster, faults } => t
                    .span("rocks.install", |_| {
                        deploy_from_scratch_resilient(
                            cluster,
                            faults,
                            &ResilienceConfig::default(),
                            InstallCheckpoint::new(),
                        )
                    })
                    .map_err(FleetError::Install),
                SitePlan::XnitOverlay { existing, method } => {
                    t.add("core.overlay_calls", 1.0);
                    t.span("core.overlay", |_| {
                        deploy_xnit_overlay_with(existing, *method, Some(Arc::clone(&cache)))
                    })
                    .map_err(FleetError::Solve)
                }
            };
            if let (SitePlan::FromScratch { .. }, Ok(dep)) = (&site.plan, &result) {
                t.add("rocks.nodes", dep.node_dbs.len() as f64);
            }
            outcomes.push(SiteOutcome {
                name: site.name.clone(),
                result,
            });
        }
        let report = FleetReport {
            sites: outcomes,
            threads: 1,
            cache: cache.stats(),
        };
        let produced = self.finish(t, report);
        self.outcome(produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_site_fails_the_check() {
        let p = setup(5, Size::Tiny);
        let fleet = p.sites.iter().cloned().fold(Fleet::new(), Fleet::add_site);
        let mut report = fleet.deploy();
        assert_eq!(check_fleet(&report, &p.sites, &p.site_nodes), Ok(()));
        report.sites.remove(1);
        assert!(check_fleet(&report, &p.sites, &p.site_nodes).is_err());
    }
}
