//! Integration tests for the operational extensions: failure injection,
//! reservations, job arrays, and cluster-fork.

use xcbc::cluster::specs::littlefe_modified;
use xcbc::cluster::{sample_failures, DegradedCluster, FailedComponent, Failure};
use xcbc::rocks::{cluster_fork, Appliance, RocksDb};
use xcbc::sched::{submit_array, ClusterSim, JobRequest, SchedPolicy};

#[test]
fn maintenance_window_and_job_array_interact() {
    // a LittleFe with a maintenance reservation over the whole machine,
    // plus a 20-task parameter sweep: every task lands outside the window
    let mut sim = ClusterSim::new(6, 2, SchedPolicy::EasyBackfill);
    sim.add_reservation("kernel updates", (0..6).collect(), 500.0, 1000.0);
    let array = submit_array(
        &mut sim,
        &JobRequest::new("sweep", 1, 1, 300.0, 250.0),
        0..=19,
    );
    sim.run_to_completion();
    assert!(array.all_finished(&sim));
    for id in &array.member_ids {
        let job = sim.job(*id).unwrap();
        if let xcbc::sched::JobState::Completed { start_s, end_s } = job.state {
            let walltime_end = start_s + job.request.walltime_s;
            assert!(
                walltime_end <= 500.0 || start_s >= 1000.0,
                "job {} walltime window [{start_s}, {walltime_end}] overlaps the reservation",
                job.request.name
            );
            assert!(end_s <= 500.0 || end_s >= 1000.0);
        } else {
            panic!("unfinished array member");
        }
    }
}

#[test]
fn degraded_cluster_still_schedules_on_survivors() {
    let cluster = littlefe_modified();
    let degraded = DegradedCluster::new(
        cluster,
        vec![Failure {
            hostname: "compute-0-1".into(),
            component: FailedComponent::Cpu,
        }],
    );
    assert!(!degraded.can_run_full_linpack());
    let usable = degraded.usable_nodes().len();
    assert_eq!(usable, 5);
    // schedule on what's left
    let mut sim = ClusterSim::new(usable, 2, SchedPolicy::maui_default());
    sim.submit_at(
        0.0,
        JobRequest::new("reduced-hpl", usable as u32, 2, 100.0, 90.0),
    );
    sim.run_to_completion();
    assert_eq!(sim.completed().len(), 1);
}

#[test]
fn fleet_failure_survey_is_plausible() {
    // a year of operation at consumer-part rates: a handful of failures
    // per cluster, not zero, not everything
    let failures = sample_failures(&littlefe_modified(), 2e-5, 8760, 42);
    assert!(failures.len() < 12, "{failures:?}");
}

#[test]
fn cluster_fork_verifies_post_install_state() {
    let mut db = RocksDb::new("littlefe");
    db.add_frontend("ff", 2).unwrap();
    for i in 0..5 {
        db.add_host(Appliance::Compute, 0, &format!("aa:{i:02x}"), 2)
            .unwrap();
    }
    // one node missed the reinstall
    let report = cluster_fork(&db, "rpm -q gromacs", |host, _| {
        if host == "compute-0-4" {
            (1, "package gromacs is not installed\n".into())
        } else {
            (0, "gromacs-4.6.5-1.el6.x86_64\n".into())
        }
    });
    assert_eq!(report.failed_hosts(), vec!["compute-0-4"]);
}
