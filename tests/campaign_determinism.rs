//! Determinism properties for rolling update campaigns: the campaign
//! trace is byte-identical at any worker-thread count, and killing a
//! campaign between waves (`campaign.drain`) then resuming from the
//! persisted checkpoint converges to the same final per-node databases
//! with a stitched trace byte-identical to the uninterrupted run.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;
use xcbc::core::campaign::{
    run_campaign, CampaignConfig, CampaignReport, CampaignTarget, CanaryAction,
};
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::xnit_repository;
use xcbc::fault::{FaultPlan, FaultWindow, InjectionPoint};
use xcbc::rpm::RpmDb;
use xcbc::sched::{JobRequest, ResourceManager, Slurm};
use xcbc::yum::{SolveCache, SolveRequest, YumConfig};

fn target() -> CampaignTarget {
    CampaignTarget {
        repos: vec![xnit_repository()],
        config: YumConfig::default(),
        request: SolveRequest::install(["gromacs", "paraview"]),
    }
}

fn world(nodes: usize, jobs: usize) -> (BTreeMap<String, RpmDb>, Slurm) {
    let dbs: BTreeMap<String, RpmDb> = (0..nodes)
        .map(|i| (format!("node-{i:02}"), limulus_factory_image()))
        .collect();
    let mut rm = Slurm::new("batch", nodes, 4);
    for j in 0..jobs {
        rm.sim_mut().submit(JobRequest::new(
            &format!("job-{j}"),
            1,
            2,
            40_000.0,
            2_000.0 + 250.0 * j as f64,
        ));
    }
    rm.advance_to(5.0);
    (dbs, rm)
}

fn base_plan(seed: u64, scriptlet_faults: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    if scriptlet_faults > 0 {
        plan.fail(
            InjectionPoint::RpmScriptlet,
            None,
            FaultWindow::FirstN(scriptlet_faults),
        )
    } else {
        plan
    }
}

fn config(canary: usize, waves: usize, threads: usize) -> CampaignConfig {
    CampaignConfig {
        canary,
        waves,
        threads,
        drain_grace_s: 90.0,
        on_canary_failure: CanaryAction::Halt,
        retry_budget: 3,
        mutation: None,
    }
}

/// Run one uninterrupted campaign, returning `(report, final dbs)`.
fn run_once(
    nodes: usize,
    jobs: usize,
    plan: &FaultPlan,
    cfg: &CampaignConfig,
) -> (CampaignReport, BTreeMap<String, RpmDb>) {
    let (mut dbs, mut rm) = world(nodes, jobs);
    let cache = Arc::new(SolveCache::new());
    let report = run_campaign(&target(), &mut dbs, &mut rm, plan, &cache, cfg, |_| {
        ControlFlow::Break(())
    })
    .expect("no drain fault scheduled: campaign must complete");
    (report, dbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The campaign trace (and the final databases) are byte-identical
    /// at any worker-thread count.
    #[test]
    fn trace_is_byte_identical_at_any_thread_count(
        seed in 0u64..1000,
        nodes in 3usize..=8,
        canary in 1usize..=2,
        waves in 2usize..=4,
        jobs in 0usize..=3,
        scriptlet_faults in 0u64..=2,
    ) {
        let plan = base_plan(seed, scriptlet_faults);
        let (base_report, base_dbs) = run_once(nodes, jobs, &plan, &config(canary, waves, 1));
        prop_assert!(!base_report.trace.is_empty());
        for threads in [2usize, 7] {
            let (report, dbs) = run_once(nodes, jobs, &plan, &config(canary, waves, threads));
            prop_assert_eq!(
                base_report.trace_jsonl(),
                report.trace_jsonl(),
                "trace diverged between 1 and {} threads",
                threads
            );
            prop_assert_eq!(&base_dbs, &dbs);
        }
    }

    /// Killing the campaign before wave `k` and resuming from the
    /// round-tripped checkpoint yields the same final databases, and the
    /// pre-abort trace plus the resumed trace is byte-identical to the
    /// uninterrupted run's trace.
    #[test]
    fn kill_at_wave_k_then_resume_matches_uninterrupted(
        seed in 0u64..1000,
        nodes in 3usize..=8,
        canary in 1usize..=2,
        waves in 2usize..=4,
        jobs in 0usize..=3,
        scriptlet_faults in 0u64..=2,
        kill_pick in 0usize..16,
        threads in 1usize..=2,
    ) {
        let plan = base_plan(seed, scriptlet_faults);
        let cfg = config(canary, waves, threads);
        let (full_report, full_dbs) = run_once(nodes, jobs, &plan, &cfg);

        // Pick a kill wave among the waves the campaign actually has
        // (trailing empty waves are dropped by the planner).
        let actual_waves = 1 + (nodes - canary.min(nodes)).min(waves - 1);
        let kill = 1 + kill_pick % (actual_waves - 1).max(1);
        let killed_plan = plan.clone().fail(
            InjectionPoint::CampaignDrain,
            Some(&format!("wave-{kill}")),
            FaultWindow::Nth(0),
        );

        let (mut dbs, mut rm) = world(nodes, jobs);
        let cache = Arc::new(SolveCache::new());
        let mut aborted_at = Vec::new();
        let report = run_campaign(&target(), &mut dbs, &mut rm, &killed_plan, &cache, &cfg, |abort| {
            aborted_at.push(abort.wave);
            ControlFlow::Continue(())
        })
        .expect("campaign resumes to its end");
        // The campaign may end (halt/rollback/fewer waves) before the
        // kill point; otherwise the one Nth(0) drain fault fires once.
        if !aborted_at.is_empty() {
            prop_assert_eq!(&aborted_at, &[kill]);
        }
        prop_assert_eq!(full_report.trace_jsonl(), report.trace_jsonl());
        prop_assert_eq!(&full_dbs, &dbs);
    }
}
