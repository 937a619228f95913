//! Seeded scenario generation and execution.
//!
//! A [`Scenario`] is generated *whole* from a seed — fleet shape,
//! Table 4 hardware mixes, fault plans, XNIT update sequences, and a
//! scheduler workload — then truncated to [`ScenarioLimits`]. Because
//! every section draws from its own salted RNG stream, lowering a limit
//! only drops a suffix and never reshuffles what remains: a shrunk
//! scenario is a strict sub-scenario of the original, which is what
//! makes greedy shrinking sound.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xcbc_cluster::hw;
use xcbc_cluster::node::{NodeRole, NodeSpec};
use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc_cluster::topology::{ClusterSpec, NetworkSpec};
use xcbc_core::campaign::{run_campaign, CampaignConfig, CampaignTarget, CanaryAction};
use xcbc_core::deploy::{
    deploy_from_scratch_resilient, deploy_from_scratch_resuming, limulus_factory_image,
};
use xcbc_core::elastic::{run_elastic, BurstSite, ElasticConfig, ElasticState, ElasticWorld};
use xcbc_core::fleet::{Fleet, FleetSite, FleetTelemetry};
use xcbc_core::xnit::{xnit_repository, XnitSetupMethod};
use xcbc_fault::{FaultPlan, FaultWindow, InjectionPoint, InstallCheckpoint, Mutation};
use xcbc_rocks::install::ResilienceConfig;
use xcbc_rpm::{PackageBuilder, RpmDb, TransactionSet};
use xcbc_sched::{run_workload, ClusterSim, JobRequest, RmKind, SchedPolicy, WorkloadSpec};
use xcbc_svc::{serve, SvcWorkload};
use xcbc_yum::{SolveCache, SolveRequest, YumConfig};

use crate::outcome::{
    CampaignRecord, ElasticRecord, ResumeOutcome, SchedOutcome, SoakOutcome, SolveProbe, SvcRecord,
    TxRecord, WorkloadRecord,
};

/// Most sites one scenario deploys.
pub const MAX_SITES: usize = 5;
/// Most scheduled fault specs one scenario injects.
pub const MAX_FAULT_SPECS: usize = 8;
/// Most scheduler jobs one scenario submits.
pub const MAX_JOBS: usize = 24;
/// Most XNIT update requests one scenario applies.
pub const MAX_UPDATES: usize = 4;

/// Upper bounds on each scenario dimension (plus the planted mutation,
/// which rides along so a mutated repro survives shrinking unchanged).
/// The soak driver shrinks a failing seed by lowering the bounds, one
/// dimension at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioLimits {
    /// Max fleet sites deployed.
    pub sites: usize,
    /// Max scheduled fault specs (only meaningful with faults enabled).
    pub fault_specs: usize,
    /// Max scheduler jobs submitted.
    pub jobs: usize,
    /// Max XNIT update requests applied.
    pub updates: usize,
    /// Deliberate misbehavior for invariant self-tests (`None` in
    /// normal soaks).
    pub mutation: Option<Mutation>,
}

impl Default for ScenarioLimits {
    fn default() -> Self {
        ScenarioLimits {
            sites: MAX_SITES,
            fault_specs: MAX_FAULT_SPECS,
            jobs: MAX_JOBS,
            updates: MAX_UPDATES,
            mutation: None,
        }
    }
}

/// How one fleet site is deployed.
#[derive(Debug, Clone)]
pub enum SiteBlueprint {
    /// Bare-metal Rocks/XCBC install of a generated cluster, under the
    /// given fault plan.
    Scratch {
        /// Generated Table 4-style hardware mix.
        cluster: ClusterSpec,
        /// Per-site deterministic fault plan (empty without `--faults`).
        plan: FaultPlan,
    },
    /// XNIT overlay on an existing (Limulus-style) cluster.
    Overlay {
        /// The XNIT setup method the site's admin uses.
        method: XnitSetupMethod,
    },
}

/// One drawn fault, not yet bound to a site's plan. Kept in a flat,
/// truncatable list so `limits.fault_specs` shrinks faults globally.
#[derive(Debug, Clone)]
struct FaultDraw {
    /// Index into the *generated* site list (may point at a site that
    /// the limits cut — then the draw is inert, which is fine).
    site: usize,
    point: InjectionPoint,
    key: Option<String>,
    window: FaultWindow,
}

/// A fully generated soak scenario. [`Scenario::run`] executes it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed it was generated from.
    pub seed: u64,
    /// Whether fault injection was requested.
    pub faults: bool,
    /// Effective limits (after clamping to the generator maxima).
    pub limits: ScenarioLimits,
    /// Site blueprints, already truncated to the limits.
    pub sites: Vec<(String, SiteBlueprint)>,
    /// Scheduler cluster shape.
    pub sched_nodes: usize,
    /// Cores per scheduler node.
    pub sched_cores: u32,
    /// Scheduling policy in force.
    pub policy: SchedPolicy,
    /// `(submit time, request)` pairs, submit times non-decreasing.
    pub workload: Vec<(f64, JobRequest)>,
    /// XNIT update requests applied in order to one evolving host DB.
    pub updates: Vec<SolveRequest>,
    /// Generated adversarial EVR strings.
    pub evr_samples: Vec<String>,
    /// Rolling-campaign stage: fleet size.
    pub campaign_nodes: usize,
    /// Rolling-campaign stage: canary cohort size.
    pub campaign_canary: usize,
    /// Rolling-campaign stage: total waves.
    pub campaign_waves: usize,
    /// Which scheduler frontend runs the campaign fleet.
    pub campaign_rm: RmKind,
    /// Canary failure policy for the campaign.
    pub campaign_canary_action: CanaryAction,
    /// Long-running jobs the campaign drains around.
    pub campaign_workload: Vec<JobRequest>,
    /// Fault plan the campaign runs under (may schedule `campaign.drain`
    /// aborts, which the stage resumes from checkpoints).
    pub campaign_plan: FaultPlan,
    /// Package names the campaign installs fleet-wide.
    pub campaign_targets: Vec<&'static str>,
    /// Elastic stage: fleet floor (powered-on minimum).
    pub elastic_min: usize,
    /// Elastic stage: fleet ceiling the autoscaler may reach.
    pub elastic_max: usize,
    /// Elastic stage: workload ticks before the settle phase.
    pub elastic_ticks: usize,
    /// Elastic stage: which scheduler frontend runs the fleet.
    pub elastic_rm: RmKind,
    /// Elastic stage: `(tick, request)` job arrivals.
    pub elastic_workload: Vec<(usize, JobRequest)>,
    /// Elastic stage: burst sites as `(join_tick, leave_tick, method)`.
    pub elastic_bursts: Vec<(usize, Option<usize>, XnitSetupMethod)>,
    /// Fault plan the elastic stage runs under (may schedule
    /// `elastic.scale-up` aborts, which the stage resumes from
    /// checkpoints, and `elastic.burst-join` failures).
    pub elastic_plan: FaultPlan,
    /// Generated-workload stage: the open-loop spec driving the stream.
    pub workload_spec: WorkloadSpec,
    /// Generated-workload stage: stream seed.
    pub workload_seed: u64,
    /// Generated-workload stage: jobs drawn from the stream.
    pub workload_jobs: usize,
    /// Generated-workload stage: cluster shape `(nodes, cores/node)`.
    pub workload_shape: (usize, u32),
    /// Generated-workload stage: frontend running the stream.
    pub workload_rm: RmKind,
    /// Generated-workload stage: scheduling policy.
    pub workload_policy: SchedPolicy,
    /// Service stage: tenant count for the `xcbcd` workload.
    pub svc_tenants: usize,
    /// Service stage: request-stream length (capped by `limits.jobs` so
    /// shrinking the jobs dimension also shrinks the service stream).
    pub svc_requests: usize,
    /// Service stage: worker-pool width the stream is served at.
    pub svc_workers: usize,
    /// Service stage: workload-generator seed.
    pub svc_seed: u64,
    /// Deliberate misbehavior (from the limits), for invariant
    /// self-tests; each stage reacts only to its own mutations.
    pub mutation: Option<Mutation>,
}

fn salted(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15))
}

/// Generate a Table 4-flavoured hardware mix: 3–6 nodes on the
/// GA-Q87TN board with Haswell-era CPUs, per-node mSATA disks (Rocks
/// needs disks) and a dual-homed frontend.
fn gen_cluster(rng: &mut StdRng, idx: usize) -> ClusterSpec {
    let n_nodes = rng.gen_range(3usize..=6);
    let mut c = ClusterSpec::new(
        format!("soak-{idx}"),
        NetworkSpec::gigabit_ethernet((n_nodes + 2) as u32),
    );
    for i in 0..n_nodes {
        let role = if i == 0 {
            NodeRole::Frontend
        } else {
            NodeRole::Compute
        };
        let name = if i == 0 {
            format!("soak{idx}-fe")
        } else {
            format!("compute-0-{}", i - 1)
        };
        let cpu = if rng.gen_bool(0.5) {
            hw::CELERON_G1840
        } else {
            hw::I7_4770S
        };
        let cooler = if rng.gen_bool(0.5) {
            hw::ROSEWILL_RCX_Z775_LP
        } else {
            hw::INTEL_STOCK_COOLER
        };
        let ram = [4u32, 8, 16][rng.gen_range(0usize..3)];
        let mut b = NodeSpec::new(name, role)
            .board(hw::GA_Q87TN)
            .cpu(cpu)
            .cooler(cooler)
            .ram_gb(ram)
            .disk(hw::CRUCIAL_M550_MSATA)
            .psu(hw::PER_NODE_PSU);
        if i == 0 {
            b = b.nic(hw::GBE_NIC);
        }
        c.nodes.push(b.build());
    }
    c
}

impl Scenario {
    /// Generate the scenario for `seed`, truncated to `limits`.
    pub fn generate(seed: u64, faults: bool, limits: &ScenarioLimits) -> Scenario {
        let limits = ScenarioLimits {
            sites: limits.sites.min(MAX_SITES),
            fault_specs: limits.fault_specs.min(MAX_FAULT_SPECS),
            jobs: limits.jobs.min(MAX_JOBS),
            updates: limits.updates.min(MAX_UPDATES),
            mutation: limits.mutation,
        };

        // Natural sizes: how big the scenario *wants* to be for this
        // seed. Limits can only cut these down.
        let mut shape = salted(seed, 1);
        let natural_sites = shape.gen_range(1usize..=MAX_SITES);
        let natural_faults = if faults {
            shape.gen_range(1usize..=MAX_FAULT_SPECS)
        } else {
            0
        };
        let natural_jobs = shape.gen_range(4usize..=MAX_JOBS);
        let natural_updates = shape.gen_range(1usize..=MAX_UPDATES);

        // Sites: always generate MAX_SITES blueprints from a dedicated
        // stream, then keep a prefix.
        let mut site_rng = salted(seed, 2);
        let mut all_sites: Vec<(String, SiteBlueprint)> = Vec::new();
        for idx in 0..MAX_SITES {
            let site_seed = site_rng.gen_range(0u64..=u64::MAX - 1);
            if site_rng.gen_bool(0.35) {
                let method = if site_rng.gen_bool(0.5) {
                    XnitSetupMethod::RepoRpm
                } else {
                    XnitSetupMethod::ManualRepoFile
                };
                all_sites.push((format!("overlay-{idx}"), SiteBlueprint::Overlay { method }));
            } else {
                let cluster = gen_cluster(&mut site_rng, idx);
                all_sites.push((
                    format!("scratch-{idx}"),
                    SiteBlueprint::Scratch {
                        cluster,
                        plan: FaultPlan::new(site_seed),
                    },
                ));
            }
        }

        // Fault draws: a flat truncatable pool targeting site indices.
        // PowerLoss is deliberately excluded — fleet sites do not
        // resume, so a power loss would just fail the site; the resume
        // stage exercises it under a controlled resume loop instead.
        let mut fault_rng = salted(seed, 3);
        let mut draws: Vec<FaultDraw> = Vec::new();
        for _ in 0..MAX_FAULT_SPECS {
            let site = fault_rng.gen_range(0usize..MAX_SITES);
            let point = match fault_rng.gen_range(0u32..4) {
                0 => InjectionPoint::DhcpDiscover,
                1 => InjectionPoint::NodeBoot,
                2 => InjectionPoint::KickstartGenerate,
                _ => InjectionPoint::RpmScriptlet,
            };
            let key = if fault_rng.gen_bool(0.5) {
                Some(format!("compute-0-{}", fault_rng.gen_range(0u32..3)))
            } else {
                None
            };
            let window = match fault_rng.gen_range(0u32..3) {
                0 => FaultWindow::Nth(fault_rng.gen_range(0u64..2)),
                1 => FaultWindow::FirstN(fault_rng.gen_range(1u64..=2)),
                _ => FaultWindow::Range {
                    start: 0,
                    end: fault_rng.gen_range(1u64..=3),
                },
            };
            draws.push(FaultDraw {
                site,
                point,
                key,
                window,
            });
        }
        let used_faults = natural_faults.min(limits.fault_specs);
        draws.truncate(used_faults);

        let used_sites = natural_sites.min(limits.sites);
        all_sites.truncate(used_sites);
        for (i, (_, blueprint)) in all_sites.iter_mut().enumerate() {
            if let SiteBlueprint::Scratch { plan, .. } = blueprint {
                for d in draws.iter().filter(|d| d.site == i) {
                    *plan = plan.clone().fail(d.point, d.key.as_deref(), d.window);
                }
            }
        }

        // Scheduler workload: satisfiable by construction (nodes and
        // ppn clamped to the cluster shape) so that a job left queued
        // after drain is a genuine no-starvation violation.
        let mut sched_rng = salted(seed, 4);
        let sched_nodes = sched_rng.gen_range(4usize..=8);
        let sched_cores = [2u32, 4][sched_rng.gen_range(0usize..2)];
        let policy = match sched_rng.gen_range(0u32..3) {
            0 => SchedPolicy::Fifo,
            1 => SchedPolicy::EasyBackfill,
            _ => SchedPolicy::maui_default(),
        };
        let mut workload: Vec<(f64, JobRequest)> = Vec::new();
        let mut t = 0.0f64;
        let users = ["alice", "bob", "carol"];
        for j in 0..MAX_JOBS {
            t += sched_rng.gen_range(0.0..900.0);
            let nodes = sched_rng.gen_range(1u32..=(sched_nodes as u32).min(4));
            let ppn = sched_rng.gen_range(1u32..=sched_cores);
            let walltime = sched_rng.gen_range(300.0..3600.0);
            // Some jobs overrun their walltime (and get killed at the
            // limit) — TimedOut is a legitimate terminal state.
            let runtime = walltime * sched_rng.gen_range(0.3..1.2);
            let mut req = JobRequest::new(&format!("job-{j}"), nodes, ppn, walltime, runtime);
            req.user = users[sched_rng.gen_range(0usize..users.len())].to_string();
            workload.push((t, req));
        }
        workload.truncate(natural_jobs.min(limits.jobs));

        // XNIT update sequence against one evolving host database.
        let mut upd_rng = salted(seed, 5);
        let pool = ["paraview", "visit", "wrf", "amber-tools", "gromacs"];
        let mut updates: Vec<SolveRequest> = Vec::new();
        for _ in 0..MAX_UPDATES {
            let req = match upd_rng.gen_range(0u32..4) {
                0..=1 => {
                    let n = upd_rng.gen_range(1usize..=2);
                    let names: Vec<&str> = (0..n)
                        .map(|_| pool[upd_rng.gen_range(0usize..pool.len())])
                        .collect();
                    SolveRequest::install(names)
                }
                2 => SolveRequest::update(vec![pool[upd_rng.gen_range(0usize..pool.len())]]),
                _ => SolveRequest::update_all(),
            };
            updates.push(req);
        }
        updates.truncate(natural_updates.min(limits.updates));

        // Adversarial EVR strings: the shapes that historically trip
        // comparators, plus seeded random compositions.
        let mut evr_rng = salted(seed, 6);
        let atoms = [
            "1", "2", "10", "01", "007", "0", "a", "rc", "alpha", "fc", ".", "-", "_", "~", "^",
        ];
        let mut evr_samples: Vec<String> = vec![
            "1.05".into(),
            "1.5".into(),
            "1.0~rc1".into(),
            "1.0^git1".into(),
            "1.0".into(),
        ];
        for _ in 0..12 {
            let n = evr_rng.gen_range(0usize..=5);
            let s: String = (0..n)
                .map(|_| atoms[evr_rng.gen_range(0usize..atoms.len())])
                .collect();
            evr_samples.push(s);
        }

        // Rolling-campaign stage: a small live fleet updated in drained
        // waves. About half of faulted seeds schedule a `campaign.drain`
        // abort so checkpoint resumes get exercised, and about a third
        // add scriptlet faults so retry budgets and partial rollouts do.
        let mut camp_rng = salted(seed, 7);
        let campaign_nodes = camp_rng.gen_range(3usize..=8);
        let campaign_canary = camp_rng.gen_range(1usize..=2);
        let campaign_waves = camp_rng.gen_range(2usize..=4);
        let campaign_rm = RmKind::ALL[camp_rng.gen_range(0u32..3) as usize];
        let campaign_canary_action = if camp_rng.gen_bool(0.5) {
            CanaryAction::Halt
        } else {
            CanaryAction::Rollback
        };
        let mut campaign_workload = Vec::new();
        for j in 0..camp_rng.gen_range(1usize..=4) {
            // long-running so drains catch them mid-flight; walltime
            // roomy enough that requeues don't time the job out
            let nodes = camp_rng.gen_range(1u32..=2);
            let ppn = camp_rng.gen_range(1u32..=4);
            let runtime = camp_rng.gen_range(1500.0..6000.0);
            campaign_workload.push(JobRequest::new(
                &format!("cjob-{j}"),
                nodes,
                ppn,
                40_000.0,
                runtime,
            ));
        }
        let mut campaign_plan = FaultPlan::new(camp_rng.gen_range(0u64..=u64::MAX - 1));
        if faults {
            if camp_rng.gen_bool(0.5) {
                let wave = camp_rng.gen_range(1usize..campaign_waves.max(2));
                campaign_plan = campaign_plan.fail(
                    InjectionPoint::CampaignDrain,
                    Some(&format!("wave-{wave}")),
                    FaultWindow::Nth(0),
                );
            }
            if camp_rng.gen_bool(0.35) {
                campaign_plan = campaign_plan.fail(
                    InjectionPoint::RpmScriptlet,
                    None,
                    FaultWindow::FirstN(camp_rng.gen_range(1u64..=2)),
                );
            }
        }
        let pool = ["paraview", "visit", "wrf", "amber-tools", "gromacs"];
        let mut campaign_targets = vec![pool[camp_rng.gen_range(0usize..pool.len())]];
        if camp_rng.gen_bool(0.4) {
            campaign_targets.push(pool[camp_rng.gen_range(0usize..pool.len())]);
        }
        campaign_targets.dedup();

        // Elastic-membership stage: a small self-scaling fleet under a
        // bursty workload, with burst sites joining mid-run. About half
        // of faulted seeds schedule an `elastic.scale-up` abort (resumed
        // from a checkpoint) and about a third fail one burst join.
        let mut el_rng = salted(seed, 8);
        let elastic_min = el_rng.gen_range(1usize..=2);
        let elastic_max = elastic_min + el_rng.gen_range(2usize..=4);
        let elastic_ticks = el_rng.gen_range(10usize..=16);
        let elastic_rm = RmKind::ALL[el_rng.gen_range(0u32..3) as usize];
        let mut elastic_workload: Vec<(usize, JobRequest)> = Vec::new();
        let mut job_idx = 0usize;
        for _ in 0..el_rng.gen_range(1usize..=3) {
            // arrivals come in bursts so queue pressure actually
            // persists past the up-streak; jobs are no wider than the
            // floor (satisfiable even after a full scale-down) with
            // walltime roomy enough that a drain requeue never times
            // the job out
            let tick = el_rng.gen_range(0usize..(elastic_ticks * 2) / 3);
            for _ in 0..el_rng.gen_range(3usize..=6) {
                let nodes = el_rng.gen_range(1u32..=elastic_min as u32);
                let ppn = el_rng.gen_range(1u32..=2);
                // a mix of short fillers and multi-tick stragglers: the
                // stragglers keep scaled-up nodes busy into the idle
                // phase so scale-down drains catch live work
                let runtime = if el_rng.gen_bool(0.3) {
                    el_rng.gen_range(2400.0..5400.0)
                } else {
                    el_rng.gen_range(500.0..1600.0)
                };
                elastic_workload.push((
                    tick,
                    JobRequest::new(&format!("ejob-{job_idx}"), nodes, ppn, 40_000.0, runtime),
                ));
                job_idx += 1;
            }
        }
        elastic_workload.sort_by_key(|(t, _)| *t);
        let mut elastic_bursts: Vec<(usize, Option<usize>, XnitSetupMethod)> = Vec::new();
        for _ in 0..el_rng.gen_range(0usize..=2) {
            let join = el_rng.gen_range(1usize..=elastic_ticks / 2);
            let leave = if el_rng.gen_bool(0.5) {
                Some(join + el_rng.gen_range(2usize..=4))
            } else {
                None
            };
            let method = if el_rng.gen_bool(0.5) {
                XnitSetupMethod::RepoRpm
            } else {
                XnitSetupMethod::ManualRepoFile
            };
            elastic_bursts.push((join, leave, method));
        }
        let mut elastic_plan = FaultPlan::new(el_rng.gen_range(0u64..=u64::MAX - 1));
        if faults {
            if el_rng.gen_bool(0.5) {
                let tick = el_rng.gen_range(1usize..=6.min(elastic_ticks));
                elastic_plan = elastic_plan.fail(
                    InjectionPoint::ScaleUp,
                    Some(&format!("tick-{tick}")),
                    FaultWindow::Nth(0),
                );
            }
            if !elastic_bursts.is_empty() && el_rng.gen_bool(0.35) {
                let which = el_rng.gen_range(0usize..elastic_bursts.len());
                elastic_plan = elastic_plan.fail(
                    InjectionPoint::BurstJoin,
                    Some(&format!("burst-{which}")),
                    FaultWindow::Nth(0),
                );
            }
        }

        // Generated-workload stage: an open-loop WorkloadSpec stream
        // (the PR 8 workload engine) run through a per-seed frontend and
        // policy, so the generators themselves soak under the invariant
        // suite. Every spec keeps walltime ≥ runtime, so expected
        // consumption is exactly Σ cores × runtime.
        let mut wl_rng = salted(seed, 9);
        let workload_spec = match wl_rng.gen_range(0u32..3) {
            0 => WorkloadSpec::teaching_lab(),
            1 => WorkloadSpec::campus_research(),
            _ => WorkloadSpec::heavy_tail(),
        };
        let workload_seed = wl_rng.gen_range(0u64..=u64::MAX - 1);
        let workload_jobs = wl_rng.gen_range(40usize..=120).min(limits.jobs.max(1));
        let workload_shape = (
            wl_rng.gen_range(4usize..=8),
            [2u32, 4][wl_rng.gen_range(0usize..2)],
        );
        let workload_rm = RmKind::ALL[wl_rng.gen_range(0u32..3) as usize];
        let workload_policy = match wl_rng.gen_range(0u32..3) {
            0 => SchedPolicy::Fifo,
            1 => SchedPolicy::EasyBackfill,
            _ => SchedPolicy::maui_default(),
        };

        // Service stage: a seeded multi-tenant xcbcd stream, served at a
        // per-seed worker count (the admission/replay invariants must
        // hold at *any* width). Stream length rides the jobs limit so
        // the shrinker can cut it.
        let mut svc_rng = salted(seed, 10);
        let svc_tenants = svc_rng.gen_range(2usize..=4);
        let svc_requests = svc_rng.gen_range(8usize..=24).min(limits.jobs.max(1));
        let svc_workers = svc_rng.gen_range(1usize..=4);
        let svc_seed = svc_rng.gen_range(0u64..=u64::MAX - 1);

        Scenario {
            seed,
            faults,
            limits,
            sites: all_sites,
            sched_nodes,
            sched_cores,
            policy,
            workload,
            updates,
            evr_samples,
            campaign_nodes,
            campaign_canary,
            campaign_waves,
            campaign_rm,
            campaign_canary_action,
            campaign_workload,
            campaign_plan,
            campaign_targets,
            elastic_min,
            elastic_max,
            elastic_ticks,
            elastic_rm,
            elastic_workload,
            elastic_bursts,
            elastic_plan,
            workload_spec,
            workload_seed,
            workload_jobs,
            workload_shape,
            workload_rm,
            workload_policy,
            svc_tenants,
            svc_requests,
            svc_workers,
            svc_seed,
            mutation: limits.mutation,
        }
    }

    /// Execute the scenario and collect everything the invariant suite
    /// needs. Deterministic: the same seed/limits produce an identical
    /// outcome (site traces are byte-identical at any thread count by
    /// the fleet engine's own guarantee).
    pub fn run(&self) -> SoakOutcome {
        let cache: Arc<SolveCache> = Arc::new(SolveCache::new());

        // --- fleet deployment over the shared solve cache ---
        let mut fleet = Fleet::new()
            .with_threads(2)
            .with_solve_cache(Arc::clone(&cache));
        for (name, blueprint) in &self.sites {
            let site = match blueprint {
                SiteBlueprint::Scratch { cluster, plan } => {
                    FleetSite::from_scratch_with_faults(name, cluster.clone(), plan.clone())
                }
                SiteBlueprint::Overlay { method } => {
                    let factory = limulus_factory_image();
                    let existing: BTreeMap<String, RpmDb> = limulus_hpc200()
                        .nodes
                        .iter()
                        .map(|n| (n.hostname.clone(), factory.clone()))
                        .collect();
                    FleetSite::overlay(name, existing, *method)
                }
            };
            fleet = fleet.add_site(site);
        }
        let report = fleet.deploy();
        let telemetry = FleetTelemetry::from_report(&report);

        // --- XNIT update sequence (through the same cache) ---
        let repos = vec![xcbc_core::xnit::xnit_repository()];
        let config = YumConfig::default();
        let mut db = limulus_factory_image();
        let mut solve_probes: Vec<SolveProbe> = Vec::new();
        let mut transactions: Vec<TxRecord> = Vec::new();
        for (i, request) in self.updates.iter().enumerate() {
            solve_probes.push(SolveProbe {
                repos: repos.clone(),
                config: config.clone(),
                db: db.clone(),
                request: request.clone(),
            });
            let solution = match cache.get_or_solve(&repos, &config, &db, request) {
                Ok(s) => s,
                Err(_) => continue, // an unresolvable request is a tolerated outcome
            };
            if solution.is_empty() {
                continue;
            }
            let mut tx = TransactionSet::new();
            for p in &solution.upgrades {
                tx.add_upgrade((**p).clone());
            }
            for p in &solution.installs {
                tx.add_install((**p).clone());
            }
            let before = db.clone();
            let tx_report = match tx.run(&mut db) {
                Ok(r) => r,
                Err(_) => continue,
            };
            transactions.push(TxRecord {
                label: format!("update[{i}] {request:?}"),
                before,
                report: tx_report,
                after: db.clone(),
            });
        }

        // --- scheduler workload ---
        let mut sim = ClusterSim::new(self.sched_nodes, self.sched_cores, self.policy);
        for (t, req) in &self.workload {
            sim.submit_at(*t, req.clone());
        }
        sim.run_to_completion();
        let trace = sim.take_trace();
        let sched = SchedOutcome {
            sim,
            trace,
            submitted: self.workload.len(),
        };

        // --- checkpoint/resume equivalence stage ---
        let resume = run_resume_stage(self.seed);

        // --- rolling-campaign stage over the same shared cache ---
        let campaign = self.run_campaign_stage(&cache);

        // --- elastic-membership stage over the same shared cache ---
        let elastic = self.run_elastic_stage(&cache);

        // --- generated-workload stage: open-loop stream through an RM ---
        let workload = self.run_workload_stage();

        // --- service stage: the multi-tenant xcbcd stream ---
        let svc = self.run_svc_stage();

        // --- EVR harvest: generated edge cases + deployed versions ---
        let mut evr_samples = self.evr_samples.clone();
        'harvest: for site in &report.sites {
            if let Ok(dep) = &site.result {
                if let Some(db) = dep.node_dbs.values().next() {
                    for name in db.names() {
                        if let Some(ip) = db.newest(name) {
                            let evr = ip.package.evr();
                            evr_samples.push(evr.version.clone());
                            if !evr.release.is_empty() {
                                evr_samples.push(evr.release.clone());
                            }
                        }
                        if evr_samples.len() >= 48 {
                            break 'harvest;
                        }
                    }
                }
            }
        }
        evr_samples.sort();
        evr_samples.dedup();

        SoakOutcome {
            seed: self.seed,
            faults: self.faults,
            fleet: report,
            telemetry,
            cache,
            solve_probes,
            transactions,
            sched,
            resume,
            campaign,
            elastic,
            workload,
            svc,
            evr_samples,
        }
    }

    /// Run the service stage: generate the seeded multi-tenant stream
    /// and serve it through `xcbcd` at the scenario's worker count,
    /// keeping the submitted requests and config beside the report so
    /// the admission checker can re-derive every decision and the
    /// replay checker can re-execute the journal.
    fn run_svc_stage(&self) -> SvcRecord {
        let workload = SvcWorkload {
            tenants: self.svc_tenants,
            requests: self.svc_requests,
            seed: self.svc_seed,
            ..SvcWorkload::default()
        };
        let requests = workload.generate();
        let mut config = workload.config(self.svc_workers);
        config.mutation = self.mutation;
        let report = serve(&requests, &config);
        SvcRecord {
            requests,
            config,
            report,
        }
    }

    /// Run the generated-workload stage: draw `workload_jobs` arrivals
    /// from the scenario's [`WorkloadSpec`] stream, feed them through
    /// the chosen frontend, and keep the expected-consumption ledger
    /// beside the drained job states for the conservation checker.
    fn run_workload_stage(&self) -> WorkloadRecord {
        let (nodes, cores_per_node) = self.workload_shape;
        let spec = self.workload_spec.normalized();
        let mut generated = Vec::new();
        let mut jobs = Vec::new();
        for (t, req) in spec
            .stream(self.workload_seed, nodes as u32, cores_per_node)
            .take(self.workload_jobs)
        {
            generated.push((
                req.name.clone(),
                req.cores(),
                req.runtime_s.min(req.walltime_s),
            ));
            jobs.push((t, req));
        }
        let mut rm = self
            .workload_rm
            .build(nodes, cores_per_node, self.workload_policy);
        let metrics = run_workload(rm.as_mut(), jobs);
        let job_states = rm
            .sim()
            .jobs()
            .map(|j| (j.request.name.clone(), j.state))
            .collect();
        WorkloadRecord {
            spec_digest: spec.digest(),
            seed: self.workload_seed,
            rm: self.workload_rm,
            generated,
            job_states,
            used_core_seconds: rm.sim().used_core_seconds(),
            metrics,
        }
    }

    /// Run the elastic-membership stage: a fleet that self-scales
    /// between its floor and ceiling under a bursty workload, burst
    /// sites joining mid-run through the shared solve cache, resumed
    /// from an [`ElasticCheckpoint`] whenever the plan's
    /// `elastic.scale-up` fault aborts the run between ticks.
    fn run_elastic_stage(&self, cache: &Arc<SolveCache>) -> ElasticRecord {
        let config = ElasticConfig {
            min_nodes: self.elastic_min,
            max_nodes: self.elastic_max,
            tick_s: 600.0,
            ticks: self.elastic_ticks,
            up_streak: 2,
            down_streak: 3,
            step: 2,
            boot_s: 120.0,
            drain_grace_s: 300.0,
            max_settle_ticks: 200,
            threads: 2,
            mutation: self.mutation,
        };
        let mut world = ElasticWorld {
            workload: self.elastic_workload.clone(),
            burst_sites: Vec::new(),
        };
        let factory = limulus_factory_image();
        for (i, (join, leave, method)) in self.elastic_bursts.iter().enumerate() {
            let existing: BTreeMap<String, RpmDb> = (0..2)
                .map(|n| (format!("burst{i}-n{n}"), factory.clone()))
                .collect();
            let mut site = BurstSite::new(&format!("burst-{i}"), *join, existing, *method);
            if let Some(leave) = leave {
                site = site.leaving_at(*leave);
            }
            world.burst_sites.push(site);
        }

        let mut state = ElasticState::new(&config);
        let mut rm = self
            .elastic_rm
            .build_default("elastic-head", config.min_nodes, 2);

        let mut resumes = 0usize;
        let mut ticks = Vec::new();
        let report = run_elastic(
            &world,
            &mut state,
            rm.as_mut(),
            &self.elastic_plan,
            cache,
            &config,
            |abort| {
                resumes += 1;
                ticks.extend_from_slice(&abort.ticks);
                ControlFlow::Continue(())
            },
        )
        .unwrap_or_else(|e| panic!("elastic stage cannot run: {e}"));
        ticks.extend_from_slice(&report.ticks);

        let submitted = self
            .elastic_workload
            .iter()
            .map(|(_, r)| r.name.clone())
            .collect();
        let job_states = rm
            .sim()
            .jobs()
            .map(|j| (j.request.name.clone(), j.state))
            .collect();

        ElasticRecord {
            report,
            ticks,
            resumes,
            submitted,
            job_states,
        }
    }

    /// Run the rolling-campaign stage: a small live fleet (per-node
    /// factory databases, one of the three scheduler frontends, a few
    /// long-running jobs) updated wave-by-wave, resuming from a
    /// [`CampaignCheckpoint`] whenever the plan's `campaign.drain`
    /// fault aborts the run between waves.
    fn run_campaign_stage(&self, cache: &Arc<SolveCache>) -> CampaignRecord {
        // Odd-numbered nodes carry an extra site-local package so the
        // campaign's skew probe always sees more than one start state.
        let skew_pkg = PackageBuilder::new("site-local-tool", "1.0", "1").build();
        let mut dbs: BTreeMap<String, RpmDb> = BTreeMap::new();
        for i in 0..self.campaign_nodes {
            let mut db = limulus_factory_image();
            if i % 2 == 1 {
                db.install(skew_pkg.clone());
            }
            dbs.insert(format!("cnode-{i:02}"), db);
        }

        let mut rm = self
            .campaign_rm
            .build_default("campaign-head", self.campaign_nodes, 4);
        let mut submitted = Vec::new();
        for req in &self.campaign_workload {
            submitted.push(req.name.clone());
            rm.sim_mut().submit(req.clone());
        }
        rm.advance_to(5.0);

        let target = CampaignTarget {
            repos: vec![xnit_repository()],
            config: YumConfig::default(),
            request: SolveRequest::install(self.campaign_targets.iter().copied()),
        };
        let config = CampaignConfig {
            canary: self.campaign_canary,
            waves: self.campaign_waves,
            threads: 2,
            drain_grace_s: 90.0,
            on_canary_failure: self.campaign_canary_action,
            retry_budget: 2,
            mutation: self.mutation,
        };

        let mut resumes = 0usize;
        let report = run_campaign(
            &target,
            &mut dbs,
            rm.as_mut(),
            &self.campaign_plan,
            cache,
            &config,
            |_| {
                resumes += 1;
                ControlFlow::Continue(())
            },
        )
        .unwrap_or_else(|e| panic!("campaign stage cannot run: {e}"));

        // Repair whatever the campaign left offline (failed canaries
        // stay down) so the remaining workload can finish, then drain.
        for i in 0..self.campaign_nodes {
            if rm.sim().is_offline(i) {
                rm.sim_mut().set_online(i);
            }
        }
        rm.sim_mut().run_to_completion();
        let trace = rm.sim_mut().take_trace();
        let job_states = rm
            .sim()
            .jobs()
            .map(|j| (j.request.name.clone(), j.state))
            .collect();
        let used_core_seconds = rm.sim().used_core_seconds();

        CampaignRecord {
            target,
            final_dbs: dbs,
            report,
            resumes,
            submitted,
            job_states,
            trace,
            used_core_seconds,
        }
    }
}

/// Install the modified LittleFe twice with the same seed: once
/// uninterrupted, once with a power loss right after the frontend
/// commit, resumed from the checkpoint. The checkers then require the
/// resumed run to converge to the same final state and for its trace
/// to be a suffix (subsequence) of the uninterrupted one.
fn run_resume_stage(seed: u64) -> ResumeOutcome {
    let cluster = littlefe_modified();
    let cfg = ResilienceConfig::default();
    let fe_host = cluster
        .frontend()
        .expect("littlefe_modified has a frontend")
        .hostname
        .clone();

    let base = FaultPlan::new(seed);
    let clean = deploy_from_scratch_resilient(&cluster, &base, &cfg, InstallCheckpoint::new())
        .expect("uninterrupted littlefe install succeeds");

    let lossy = FaultPlan::new(seed).fail(
        InjectionPoint::PowerLoss,
        Some(&fe_host),
        FaultWindow::Nth(0),
    );
    // the resumed attempts share an image store of their own, so the
    // two runs' databases are built independently
    let mut aborts = 0usize;
    let resumed = deploy_from_scratch_resuming(&cluster, &lossy, &cfg, |_| aborts += 1)
        .unwrap_or_else(|e| panic!("resume stage did not converge: {e}"));

    ResumeOutcome {
        uninterrupted_trace: clean.trace,
        uninterrupted_dbs: clean.node_dbs,
        resumed_trace: resumed.trace,
        resumed_dbs: resumed.node_dbs,
        aborts,
    }
}
