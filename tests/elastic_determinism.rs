//! Determinism properties for the elastic membership engine: the
//! elastic trace is byte-identical at any worker-thread count, and
//! killing the engine between ticks (`elastic.scale-up`) then resuming
//! from the round-tripped checkpoint converges to the same final
//! membership ledger with a stitched trace byte-identical to the
//! uninterrupted run.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::elastic::{
    run_elastic, BurstSite, ElasticConfig, ElasticReport, ElasticState, ElasticWorld, MemberState,
};
use xcbc::core::XnitSetupMethod;
use xcbc::fault::{FaultPlan, FaultWindow, InjectionPoint};
use xcbc::sched::{JobRequest, TorqueServer};
use xcbc::yum::SolveCache;

/// A bursty world: an opening wave of single-node jobs (so queue
/// pressure actually drives scale-ups), a few long stragglers, and up
/// to two cloud sites joining mid-run (the second leaves again).
fn world(ticks: usize, wave: usize, stragglers: usize, sites: usize) -> ElasticWorld {
    let mut world = ElasticWorld::default();
    for i in 0..wave {
        world.workload.push((
            0,
            JobRequest::new(
                &format!("wave-{i}"),
                1,
                2,
                40_000.0,
                900.0 + 50.0 * i as f64,
            ),
        ));
    }
    for i in 0..stragglers {
        world.workload.push((
            1 + i % (ticks / 2).max(1),
            JobRequest::new(&format!("straggler-{i}"), 1, 1, 40_000.0, 2600.0),
        ));
    }
    world.workload.sort_by_key(|(t, _)| *t);
    for s in 0..sites {
        let existing: BTreeMap<_, _> = (0..2)
            .map(|n| (format!("cloud-{s}-n{n}"), limulus_factory_image()))
            .collect();
        let method = if s % 2 == 0 {
            XnitSetupMethod::RepoRpm
        } else {
            XnitSetupMethod::ManualRepoFile
        };
        let mut site = BurstSite::new(&format!("cloud-{s}"), 1 + s, existing, method);
        if s == 1 {
            site = site.leaving_at(1 + s + 3);
        }
        world.burst_sites.push(site);
    }
    world
}

fn config(min: usize, extra: usize, ticks: usize, threads: usize) -> ElasticConfig {
    ElasticConfig {
        min_nodes: min,
        max_nodes: min + extra,
        ticks,
        threads,
        ..ElasticConfig::default()
    }
}

/// One uninterrupted run, returning the report and the final ledger.
fn run_once(
    world: &ElasticWorld,
    plan: &FaultPlan,
    cfg: &ElasticConfig,
) -> (ElasticReport, Vec<(String, MemberState)>) {
    let mut state = ElasticState::new(cfg);
    let mut rm = TorqueServer::with_maui("elastic-head", cfg.min_nodes, 2);
    let cache = Arc::new(SolveCache::new());
    let report = run_elastic(world, &mut state, &mut rm, plan, &cache, cfg, |_| {
        ControlFlow::Break(())
    })
    .expect("no scale-up fault scheduled: run must complete");
    let ledger = state
        .membership
        .members()
        .map(|(n, s)| (n.to_string(), s))
        .collect();
    (report, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The elastic trace (and the decision stream) are byte-identical
    /// at any worker-thread count.
    #[test]
    fn trace_is_byte_identical_at_any_thread_count(
        seed in 0u64..1000,
        min in 1usize..=2,
        extra in 2usize..=4,
        ticks in 8usize..=14,
        wave in 4usize..=8,
        stragglers in 0usize..=3,
        sites in 0usize..=2,
    ) {
        let w = world(ticks, wave, stragglers, sites);
        let plan = FaultPlan::new(seed);
        let (base_report, base_ledger) = run_once(&w, &plan, &config(min, extra, ticks, 1));
        prop_assert!(!base_report.trace.is_empty());
        for threads in [2usize, 7] {
            let (report, ledger) = run_once(&w, &plan, &config(min, extra, ticks, threads));
            prop_assert_eq!(
                base_report.trace_jsonl(),
                report.trace_jsonl(),
                "trace diverged between 1 and {} threads",
                threads
            );
            prop_assert_eq!(&base_report.ticks, &report.ticks);
            prop_assert_eq!(&base_ledger, &ledger);
        }
    }

    /// Killing the engine before tick `k` and resuming from the
    /// round-tripped checkpoint yields the same final ledger, and the
    /// pre-abort trace plus the resumed trace is byte-identical to the
    /// uninterrupted run's trace. The fault key matches by substring,
    /// so one spec can abort several (settle) ticks — every abort
    /// resumes from its own persisted checkpoint.
    #[test]
    fn kill_between_ticks_then_resume_matches_uninterrupted(
        seed in 0u64..1000,
        min in 1usize..=2,
        extra in 2usize..=4,
        ticks in 8usize..=14,
        wave in 4usize..=8,
        stragglers in 0usize..=3,
        sites in 0usize..=2,
        kill_pick in 0usize..16,
        threads in 1usize..=2,
    ) {
        let w = world(ticks, wave, stragglers, sites);
        let plan = FaultPlan::new(seed);
        let cfg = config(min, extra, ticks, threads);
        let (full_report, full_ledger) = run_once(&w, &plan, &cfg);

        let kill = 1 + kill_pick % (ticks - 1);
        let killed_plan = plan.clone().fail(
            InjectionPoint::ScaleUp,
            Some(&format!("tick-{kill}")),
            FaultWindow::Nth(0),
        );

        let mut state = ElasticState::new(&cfg);
        let mut rm = TorqueServer::with_maui("elastic-head", cfg.min_nodes, 2);
        let cache = Arc::new(SolveCache::new());
        let mut aborted_at = Vec::new();
        let final_report = run_elastic(&w, &mut state, &mut rm, &killed_plan, &cache, &cfg, |abort| {
            aborted_at.push(abort.tick);
            ControlFlow::Continue(())
        })
        .expect("kill/resume loop must converge");
        prop_assert_eq!(aborted_at.first(), Some(&kill), "the tick-{} fault never fired first", kill);
        prop_assert_eq!(full_report.trace_jsonl(), final_report.trace_jsonl());
        prop_assert_eq!(&full_report.verdict, &final_report.verdict);
        let ledger: Vec<(String, MemberState)> = state
            .membership
            .members()
            .map(|(n, s)| (n.to_string(), s))
            .collect();
        prop_assert_eq!(&full_ledger, &ledger);
    }
}
