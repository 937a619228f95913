//! End-to-end smoke tests for the soak harness: the default suite runs
//! green and a seed replays deterministically. Planted defects are
//! covered by `mutations.rs`.

use xcbc_check::{default_invariants, invariants_for, run_seed, soak, ScenarioLimits, SoakConfig};
use xcbc_fault::Mutation;

#[test]
fn default_suite_green_with_faults() {
    let config = SoakConfig {
        seeds: 2,
        start_seed: 0,
        faults: true,
        shrink: false,
        limits: ScenarioLimits {
            sites: 2,
            fault_specs: 4,
            jobs: 10,
            updates: 2,
            mutation: None,
        },
    };
    let report = soak(&config, &default_invariants());
    assert!(
        report.passed(),
        "default invariants violated:\n{}",
        report.render()
    );
    assert_eq!(report.seeds_passed, 2);
}

#[test]
fn run_seed_is_deterministic() {
    let limits = ScenarioLimits {
        sites: 1,
        fault_specs: 2,
        jobs: 6,
        updates: 1,
        mutation: None,
    };
    let suite = invariants_for(Some(Mutation::SoakNoTimeouts));
    let a = run_seed(7, true, &limits, &suite);
    let b = run_seed(7, true, &limits, &suite);
    assert_eq!(a, b, "same seed and limits must yield identical violations");
}
