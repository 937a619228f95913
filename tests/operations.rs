//! Integration tests for the operational extensions: failure injection,
//! reservations, job arrays, package groups, metadata caching, update
//! rolls, cluster-fork, module collections, and the community pipeline.

use xcbc::cluster::specs::littlefe_modified;
use xcbc::cluster::{sample_failures, DegradedCluster, FailedComponent, Failure};
use xcbc::core::community::{RequestPipeline, RequesterGroup};
use xcbc::rocks::{build_update_roll, cluster_fork, Appliance, Distribution, RocksDb};
use xcbc::sched::{submit_array, ClusterSim, JobRequest, SchedPolicy};
use xcbc::yum::{group_install, MetadataCache, PackageGroupDef, Yum, YumConfig};

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
fn xnit_group_install_on_top_of_catalog() {
    let mut yum = Yum::new(YumConfig::default());
    yum.add_repository(xcbc::core::xnit_repository());
    let groups = vec![PackageGroupDef::new("xsede-bio", "Bioinformatics")
        .mandatory_pkg("trinity")
        .mandatory_pkg("ncbi-blast")
        .default_pkg("bwa")
        .default_pkg("samtools")
        .optional_pkg("gatk")];
    let mut db = xcbc::rpm::RpmDb::new();
    group_install(&yum, &mut db, &groups, "xsede-bio", false).unwrap();
    for p in [
        "trinity",
        "ncbi-blast",
        "bwa",
        "samtools",
        "bowtie",
        "java-1.7.0-openjdk",
    ] {
        assert!(db.is_installed(p), "{p} (bowtie/java via deps)");
    }
    assert!(!db.is_installed("gatk"));
    assert!(db.verify().is_empty());
}

#[test]
fn metadata_cache_shields_mirror_until_expiry() {
    let repo = xcbc::core::xnit_repository();
    let mut cache = MetadataCache::with_default_expiry();
    cache.get(&repo, 0.0);
    for minute in 1..90 {
        let (_, fetched) = cache.get(&repo, minute as f64 * 60.0);
        assert!(!fetched, "minute {minute}");
    }
    let (_, fetched) = cache.get(&repo, 90.0 * 60.0);
    assert!(fetched);
    assert_eq!(cache.fetches, 2);
}

#[test]
fn rocks_update_roll_path_end_to_end() {
    // build the distribution from the standard rolls + XSEDE roll, then
    // produce an update roll from a newer XNIT snapshot
    let mut distro = Distribution::new();
    for roll in xcbc::rocks::standard_rolls() {
        distro.add_roll_and_rebuild(&roll);
    }
    distro.add_roll_and_rebuild(&xcbc::core::roll::xsede_roll());
    let gromacs_before = distro.version_of("gromacs").unwrap().clone();

    // upstream XNIT publishes newer gromacs
    let newer = vec![xcbc::rpm::PackageBuilder::new("gromacs", "4.6.7", "1.el6").build()];
    let update_roll = build_update_roll(&distro, &newer, "2015.06");
    assert_eq!(update_roll.packages.len(), 1);
    distro.add_roll_and_rebuild(&update_roll);
    assert!(distro.version_of("gromacs").unwrap() > &gromacs_before);
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

#[test]
fn module_collection_portability_between_xcbc_clusters() {
    use xcbc::core::deploy::deploy_from_scratch;
    use xcbc::modules::{generate_from_rpmdb, CollectionStore, ModuleSystem};

    let report = deploy_from_scratch(&littlefe_modified()).unwrap();
    let mut campus = ModuleSystem::new();
    for m in generate_from_rpmdb(&report.node_dbs["compute-0-0"]) {
        campus.add(m);
    }
    campus.load("gromacs").unwrap();
    campus.load("valgrind").unwrap();
    let mut store = CollectionStore::new();
    store.save("thesis", &campus);

    // an XSEDE cluster built the same way restores the same environment
    let mut xsede = ModuleSystem::new();
    for m in generate_from_rpmdb(&report.node_dbs["compute-0-1"]) {
        xsede.add(m);
    }
    let loaded = store.restore("thesis", &mut xsede).unwrap();
    assert_eq!(loaded.len(), 2);
    assert_eq!(
        xsede.env(),
        campus.env(),
        "identical environments on both clusters"
    );
}

#[test]
fn community_pipeline_feeds_site_installs() {
    let mut repo = xcbc::core::xnit_repository();
    let mut pipeline = RequestPipeline::new();
    pipeline.submit(
        "openfoam",
        "2.3.0",
        RequesterGroup::CampusChampion,
        "Marshall",
        true,
        true,
    );
    pipeline.triage(&repo);
    pipeline.ship_release(&mut repo);

    let mut yum = Yum::new(YumConfig::default());
    yum.add_repository(repo);
    let mut db = xcbc::rpm::RpmDb::new();
    yum.install(&mut db, &["openfoam"]).unwrap();
    assert!(db.is_installed("openfoam"));
}
