//! End-to-end: the Limulus HPC200 + XNIT overlay workflow (§5.2, §8),
//! including the scheduler swap and the update lifecycle.

use std::collections::BTreeMap;
use xcbc::cluster::specs::limulus_hpc200;
use xcbc::cluster::{PowerManager, PowerPolicy};
use xcbc::core::deploy::{deploy_xnit_overlay, limulus_factory_image};
use xcbc::core::xnit::{enable_xnit, XnitSetupMethod};
use xcbc::rpm::{RpmDb, TransactionSet};
use xcbc::yum::{UpdateNotifier, UpdatePolicy, Yum, YumConfig};

fn factory_cluster() -> BTreeMap<String, RpmDb> {
    limulus_hpc200()
        .nodes
        .iter()
        .map(|n| (n.hostname.clone(), limulus_factory_image()))
        .collect()
}

#[test]
fn overlay_reaches_compat_without_touching_factory_software() {
    let existing = factory_cluster();
    let before_names: Vec<String> = existing
        .values()
        .next()
        .unwrap()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();

    let report = deploy_xnit_overlay(&existing, XnitSetupMethod::RepoRpm).unwrap();
    assert!(report.compat.is_compatible());
    assert!(report.preexisting_preserved);
    assert_eq!(report.nodes_reinstalled, 0);
    for db in report.node_dbs.values() {
        for name in &before_names {
            assert!(db.is_installed(name), "factory package {name} must survive");
        }
        assert!(db.verify().is_empty());
    }
}

#[test]
fn both_setup_methods_converge_to_same_package_set() {
    let a = deploy_xnit_overlay(&factory_cluster(), XnitSetupMethod::RepoRpm).unwrap();
    let b = deploy_xnit_overlay(&factory_cluster(), XnitSetupMethod::ManualRepoFile).unwrap();
    let names_a: Vec<_> = a.node_dbs["limulus"]
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let names_b: Vec<_> = b.node_dbs["limulus"]
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    // method 1 additionally installs the xsede-release rpm
    let only_in_a: Vec<_> = names_a.iter().filter(|n| !names_b.contains(n)).collect();
    assert_eq!(only_in_a, vec!["xsede-release"]);
}

#[test]
fn scheduler_swap_in_one_transaction() {
    let mut db = limulus_factory_image();
    let mut yum = Yum::new(YumConfig::default());
    enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();

    let torque = yum.solver().best_by_name("torque").unwrap().clone();
    let maui = yum.solver().best_by_name("maui").unwrap().clone();
    let mut tx = TransactionSet::new();
    tx.add_erase("slurm");
    tx.add_install(torque);
    tx.add_install(maui);
    assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
    tx.run(&mut db).unwrap();
    assert!(!db.is_installed("slurm"));
    assert!(db.is_installed("torque") && db.is_installed("maui"));
    assert!(
        db.is_installed("limulus-tools"),
        "factory tooling untouched"
    );
}

#[test]
fn update_lifecycle_staged_then_promoted() {
    let mut db = limulus_factory_image();
    let mut yum = Yum::new(YumConfig::default());
    enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();
    yum.install(&mut db, &["gromacs"]).unwrap();

    // upstream publishes a new gromacs
    yum.repository_mut("xsede").unwrap().add_package(
        xcbc::rpm::PackageBuilder::new("gromacs", "4.6.7", "1.el6")
            .requires_simple("openmpi")
            .requires_simple("fftw")
            .requires_simple("gromacs-libs")
            .requires_simple("gromacs-common")
            .build(),
    );

    let mut test_db = db.clone();
    let notifier = UpdateNotifier::new(UpdatePolicy::StagedTest);
    let report = notifier
        .run_check(&yum, &mut db, Some(&mut test_db))
        .unwrap();
    assert_eq!(report.pending.len(), 1);
    // staged: the test node has the update, production does not yet
    assert_eq!(
        test_db.newest("gromacs").unwrap().package.evr().version,
        "4.6.7"
    );
    assert_eq!(db.newest("gromacs").unwrap().package.evr().version, "4.6.5");
    // after review, promote
    yum.update(&mut db, None).unwrap();
    assert_eq!(db.newest("gromacs").unwrap().package.evr().version, "4.6.7");
    assert!(db.verify().is_empty());
}

#[test]
fn power_managed_operation_saves_energy_with_full_service() {
    let cluster = limulus_hpc200();
    let demand: Vec<u32> = (0..24)
        .map(|h| if (8..18).contains(&h) { 2 } else { 0 })
        .collect();
    let always = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&cluster, &demand, 24 * 30);
    let managed =
        PowerManager::new(PowerPolicy::on_demand(120.0)).simulate(&cluster, &demand, 24 * 30);
    assert!(
        managed.energy_kwh < always.energy_kwh * 0.9,
        "{managed:?} vs {always:?}"
    );
    assert!(managed.service_fraction > 0.95);
}

#[test]
fn mirror_failover_still_serves_metadata() {
    use rand::SeedableRng;
    let repo = xcbc::core::xnit_repository();
    assert!(repo.package_count() > 100);
    let list = xcbc::yum::MirrorList::new(vec![
        xcbc::yum::Mirror::new("http://dead.example.edu/xsederepo/", 100.0, 30.0)
            .with_failure_rate(1.0),
        xcbc::yum::Mirror::new("http://cb-repo.iu.xsede.org/xsederepo/", 80.0, 40.0),
    ]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let outcome = list
        .fetch_with(xcbc::yum::FetchOptions::new(repo.total_size_bytes()).sample_with(&mut rng))
        .outcome;
    assert!(outcome.succeeded());
    assert_eq!(outcome.failed.len(), 1);
}
