//! Determinism properties of the causal trace analyser: analysis is a
//! pure function of the recorded events, so it must be byte-stable
//! across re-runs, across fleet worker-thread counts, and across
//! checkpoint-resume stitched traces — and the critical path must
//! telescope exactly to the trace's span makespan on every seed.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use proptest::prelude::*;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc::core::campaign::{run_campaign, CampaignConfig, CanaryAction};
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::fleet::{Fleet, FleetSite};
use xcbc::core::scenario::littlefe_day_one;
use xcbc::core::{xnit_repository, XnitSetupMethod};
use xcbc::fault::{FaultPlan, FaultWindow, InjectionPoint};
use xcbc::rpm::RpmDb;
use xcbc::sched::{JobRequest, ResourceManager, Slurm};
use xcbc::sim::{analyze, TraceEvent};
use xcbc::yum::{SolveCache, SolveRequest, YumConfig};

/// Every rendering of one analysis, concatenated — the widest possible
/// byte-equality net.
fn full_render(events: &[TraceEvent]) -> String {
    let a = analyze(events);
    format!(
        "{}\n{}\n{}\n{}",
        a.render(),
        a.flame(),
        a.folded(),
        a.top(10)
    )
}

fn limulus_dbs() -> BTreeMap<String, RpmDb> {
    limulus_hpc200()
        .nodes
        .iter()
        .map(|n| (n.hostname.clone(), limulus_factory_image()))
        .collect()
}

fn build_fleet(threads: usize, overlays: usize, seed: u64) -> Fleet {
    let mut fleet = Fleet::new().with_threads(threads);
    for i in 0..overlays {
        fleet = fleet.add_site(FleetSite::overlay(
            format!("overlay-{i}"),
            limulus_dbs(),
            XnitSetupMethod::RepoRpm,
        ));
    }
    fleet.add_site(FleetSite::from_scratch(
        "scratch-0",
        littlefe_modified(),
        seed,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Re-analysing the same day-one trace is byte-identical, and the
    /// critical path telescopes exactly to the span makespan.
    #[test]
    fn day_one_analysis_is_stable_and_telescopes(seed in 0u64..500) {
        let run = littlefe_day_one(&FaultPlan::new(seed)).expect("clean day-one run");
        let a = analyze(&run.events);
        let b = analyze(&run.events);
        prop_assert_eq!(full_render(&run.events), full_render(&run.events));
        prop_assert_eq!(&a, &b);
        prop_assert!(a.spans > 0);
        prop_assert!(!a.path.segments.is_empty());
        prop_assert_eq!(a.path.total(), a.makespan, "critical path must telescope");
    }

    /// Per-site analysis is invariant under the fleet worker-thread
    /// count: the trace is, so the analysis derived from it must be.
    #[test]
    fn fleet_site_analysis_invariant_under_thread_count(
        seed in 0u64..500,
        overlays in 1usize..3,
    ) {
        let serial = build_fleet(1, overlays, seed).deploy();
        let parallel = build_fleet(8, overlays, seed).deploy();
        for (s, p) in serial.sites.iter().zip(parallel.sites.iter()) {
            prop_assert_eq!(&s.name, &p.name);
            let (Ok(sr), Ok(pr)) = (&s.result, &p.result) else {
                prop_assert!(false, "fault-free site deploy failed");
                unreachable!()
            };
            prop_assert_eq!(full_render(&sr.trace), full_render(&pr.trace));
            let a = analyze(&sr.trace);
            prop_assert_eq!(a.path.total(), a.makespan);
        }
    }
}

/// Killing a campaign at wave 1 and resuming from the round-tripped
/// checkpoint yields a stitched trace whose analysis is byte-identical
/// to the uninterrupted run's — the analyser can't tell a resumed run
/// from an unbroken one.
#[test]
fn campaign_resume_stitched_analysis_matches_uninterrupted() {
    let target = xcbc::core::campaign::CampaignTarget {
        repos: vec![xnit_repository()],
        config: YumConfig::default(),
        request: SolveRequest::install(["gromacs"]),
    };
    let cfg = CampaignConfig {
        canary: 1,
        waves: 3,
        threads: 1,
        drain_grace_s: 90.0,
        on_canary_failure: CanaryAction::Halt,
        retry_budget: 3,
        mutation: None,
    };
    let world = || {
        let dbs: BTreeMap<String, RpmDb> = (0..6)
            .map(|i| (format!("node-{i:02}"), limulus_factory_image()))
            .collect();
        let mut rm = Slurm::new("batch", 6, 4);
        rm.sim_mut()
            .submit(JobRequest::new("wrf-0", 1, 2, 40_000.0, 900.0));
        rm.advance_to(5.0);
        (dbs, rm)
    };

    let (mut dbs, mut rm) = world();
    let cache = Arc::new(SolveCache::new());
    let full = run_campaign(
        &target,
        &mut dbs,
        &mut rm,
        &FaultPlan::new(7),
        &cache,
        &cfg,
        |_| ControlFlow::Break(()),
    )
    .expect("uninterrupted campaign completes");

    let killed_plan = FaultPlan::new(7).fail(
        InjectionPoint::CampaignDrain,
        Some("wave-1"),
        FaultWindow::Nth(0),
    );
    let (mut dbs, mut rm) = world();
    let cache = Arc::new(SolveCache::new());
    let mut aborted_at = Vec::new();
    let resumed = run_campaign(
        &target,
        &mut dbs,
        &mut rm,
        &killed_plan,
        &cache,
        &cfg,
        |abort| {
            aborted_at.push(abort.wave);
            ControlFlow::Continue(())
        },
    )
    .expect("resume completes");
    assert_eq!(aborted_at, [1], "expected one wave-1 abort");
    assert_eq!(full_render(&full.trace), full_render(&resumed.trace));
    let a = analyze(&resumed.trace);
    assert_eq!(a.path.total(), a.makespan);
}
