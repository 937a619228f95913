//! End-to-end fault-recovery tests across the whole stack: a deployment
//! hit by a power loss mid-install checkpoints, resumes without
//! reinstalling committed nodes, and converges to the exact package
//! state of a fault-free deployment. Determinism is the contract: the
//! same fault-plan seed must reproduce the same deployment byte for
//! byte.

use proptest::prelude::*;
use xcbc::cluster::specs::littlefe_modified;
use xcbc::core::deploy::{deploy_from_scratch, deploy_from_scratch_resilient};
use xcbc::fault::{FaultPlan, FaultWindow, InjectionPoint, InstallCheckpoint};
use xcbc::rocks::{InstallErrorKind, ResilienceConfig};
use xcbc::sim::render_gantt;

#[test]
fn power_loss_then_resume_matches_fault_free_deploy() {
    let cluster = littlefe_modified();
    let fault_free = deploy_from_scratch(&cluster).unwrap();

    // Pull the plug right after compute-0-2 commits its packages.
    let plan = FaultPlan::new(2015).fail(
        InjectionPoint::PowerLoss,
        Some("compute-0-2"),
        FaultWindow::Nth(0),
    );

    let err = deploy_from_scratch_resilient(
        &cluster,
        &plan,
        &ResilienceConfig::default(),
        InstallCheckpoint::new(),
    )
    .unwrap_err();
    assert!(matches!(err.kind, InstallErrorKind::PowerLoss));
    assert_eq!(err.progress.aborted_on.as_deref(), Some("compute-0-2"));
    let committed = err.progress.completed.clone();
    assert!(
        committed.iter().any(|n| n == "compute-0-2"),
        "the node that triggered the outage had already committed: {committed:?}"
    );
    assert!(
        committed.len() < cluster.nodes.len(),
        "outage struck mid-install"
    );

    // The checkpoint survives serialization, like a file on the frontend
    // disk would.
    let on_disk = err.progress.checkpoint.to_text();
    let restored = InstallCheckpoint::parse(&on_disk).unwrap();

    // Resume under the SAME plan: committed nodes are skipped, so the
    // power-loss fault keyed to compute-0-2 never re-fires.
    let report =
        deploy_from_scratch_resilient(&cluster, &plan, &ResilienceConfig::default(), restored)
            .unwrap();

    // Converged to exactly the fault-free package state...
    assert_eq!(report.node_dbs, fault_free.node_dbs);
    assert!(report.compat.is_compatible());
    assert!(report.degraded.is_none());

    // ...without reinstalling anything that had committed: no install
    // phases for those hosts appear in the resumed timeline.
    for host in &committed {
        assert!(
            !report
                .trace
                .iter()
                .any(|e| e.label.starts_with(&format!("{host}:"))),
            "{host} was reinstalled on resume"
        );
    }
    let pm = report.post_mortem.as_ref().unwrap();
    for host in &committed {
        assert!(
            pm.resumed_nodes.contains(host),
            "{host} missing from post-mortem resume list"
        );
    }
    assert!(pm.render().contains("resumed from checkpoint"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Identical fault-plan seeds yield byte-identical deployment
    /// reports, even with probabilistic fault rates in play.
    #[test]
    fn identical_seeds_yield_byte_identical_reports(seed in 0u64..1000) {
        let run = || {
            let plan = FaultPlan::new(seed)
                .with_rate(InjectionPoint::DhcpDiscover, 0.3)
                .with_rate(InjectionPoint::NodeBoot, 0.15);
            let report = deploy_from_scratch_resilient(
                &littlefe_modified(),
                &plan,
                &ResilienceConfig::default(),
                InstallCheckpoint::new(),
            )
            .expect("rate faults quarantine, they never abort");
            (
                report.render(),
                render_gantt(&report.trace),
                report.checkpoint.as_ref().unwrap().to_text(),
                report.node_dbs.clone(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
