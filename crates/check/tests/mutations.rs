//! Self-tests for the invariant suite: every planted [`Mutation`] must be
//! caught by exactly the invariant built to see it, shrink to a
//! deterministic repro, and carry `--mutation <name>` through to the
//! repro command (so the shrunk scenario replays mutated).

use xcbc_check::{invariants_for, repro_command, run_seed, soak, ScenarioLimits, SoakConfig};
use xcbc_fault::Mutation;

/// How one mutation is soaked: the invariant that must fire, the seed
/// window it must fire within, and the scenario it runs in.
struct Case {
    invariant: &'static str,
    seeds: u64,
    faults: bool,
    jobs: usize,
}

fn case(mutation: Mutation) -> Case {
    let faulted = |invariant, seeds, jobs| Case {
        invariant,
        seeds,
        faults: true,
        jobs,
    };
    match mutation {
        Mutation::CampaignDropJob => faulted("campaign.no-job-lost", 10, 4),
        // a committed wave without a skew probe
        Mutation::CampaignSkipSkew => faulted("campaign.converges", 10, 4),
        // needs a scale-down drain to catch a *running* job, which only
        // some seeds' workloads produce — a wider window
        Mutation::ElasticDropJob => faulted("elastic.no-job-lost", 20, 4),
        // suppressed scale-ups diverge from the policy replay as soon as
        // queue pressure persists for the up-streak — nearly every seed
        Mutation::ElasticSkipScaleUp => faulted("elastic.converges", 10, 4),
        Mutation::SvcDropJournalEntry => faulted("svc.replay", 10, 8),
        Mutation::SvcLeakQuota => faulted("svc.admission", 10, 8),
        // generated workloads legitimately time jobs out, which the
        // planted invariant forbids; some seed in this window hits one
        Mutation::SoakNoTimeouts => Case {
            invariant: "mutation.no-timeouts",
            seeds: 10,
            faults: false,
            jobs: 12,
        },
    }
}

#[test]
fn every_mutation_is_caught_and_shrunk_to_a_deterministic_repro() {
    for mutation in Mutation::ALL {
        let case = case(mutation);
        let limits = ScenarioLimits {
            sites: 1,
            fault_specs: 2,
            jobs: case.jobs,
            updates: 1,
            mutation: Some(mutation),
        };
        let config = SoakConfig {
            seeds: case.seeds,
            start_seed: 0,
            faults: case.faults,
            shrink: true,
            limits,
        };
        let suite = invariants_for(Some(mutation));
        let report = soak(&config, &suite);
        let rendered = report.render();
        let failure = report.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "{mutation}: {} must fire within {} seeds",
                case.invariant, case.seeds
            )
        });
        assert!(
            failure
                .violations
                .iter()
                .any(|v| v.invariant == case.invariant),
            "{mutation}: expected {}, got:\n{rendered}",
            case.invariant
        );

        let shrunk = failure.shrink.as_ref().expect("shrink was enabled");
        // The mutation rides through shrinking: the minimal scenario is
        // still mutated, so the repro still fires.
        assert_eq!(shrunk.limits.mutation, Some(mutation));
        let again = run_seed(shrunk.seed, shrunk.faults, &shrunk.limits, &suite);
        assert_eq!(
            again, shrunk.violations,
            "{mutation}: shrunk repro must be deterministic"
        );

        let cmd = repro_command(shrunk.seed, shrunk.faults, &shrunk.limits);
        assert!(cmd.contains(&format!("--seed {}", shrunk.seed)), "{cmd}");
        assert!(cmd.ends_with(&format!(" --mutation {mutation}")), "{cmd}");
        assert!(rendered.contains(&format!("repro: {cmd}\n")), "{rendered}");

        if mutation == Mutation::SoakNoTimeouts {
            assert!(failure
                .violations
                .iter()
                .all(|v| v.invariant == "mutation.no-timeouts"));
            assert!(shrunk.limits.jobs <= limits.jobs);
            // Non-sched dimensions are irrelevant to a timeout violation,
            // so the shrinker must have floored them.
            assert_eq!(shrunk.limits.sites, 1);
            assert_eq!(shrunk.limits.fault_specs, 0);
            assert_eq!(shrunk.limits.updates, 0);
            assert!(shrunk.limits.jobs >= 1, "a timeout needs at least one job");
        }
    }
}

#[test]
fn unmutated_campaign_invariants_hold_over_faulted_seeds() {
    let config = SoakConfig {
        seeds: 5,
        faults: true,
        shrink: false,
        ..SoakConfig::default()
    };
    let report = soak(&config, &invariants_for(None));
    assert!(report.passed(), "{}", report.render());
}
