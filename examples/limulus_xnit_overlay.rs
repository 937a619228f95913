//! The §5.2/§8 Limulus workflow: take a running, factory-imaged Limulus
//! HPC200, enable the XNIT repository, add the XCBC software piecemeal,
//! swap the scheduler, and keep it updated — all without reinstalling a
//! single node.
//!
//! ```sh
//! cargo run --example limulus_xnit_overlay
//! ```

use xcbc::cluster::specs::limulus_hpc200;
use xcbc::cluster::{PowerManager, PowerPolicy};
use xcbc::core::compat::check_compatibility;
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::xnit::{enable_xnit, XnitSetupMethod};
use xcbc::rpm::TransactionSet;
use xcbc::sched::{ClusterSim, JobRequest, SchedPolicy};
use xcbc::yum::{UpdateNotifier, UpdatePolicy, Yum, YumConfig};

fn main() {
    let cluster = limulus_hpc200();
    let mut head_db = limulus_factory_image();

    // The Limulus cannot take the Rocks path (diskless blades):
    let (ok, reasons) = cluster.rocks_installable();
    println!("Rocks-installable: {ok} — {}", reasons.join("; "));

    // 1. Enable XNIT via the repo RPM.
    println!("\n== 1. enable the XSEDE yum repository ==");
    let mut yum = Yum::new(YumConfig::default());
    enable_xnit(&mut yum, &mut head_db, XnitSetupMethod::RepoRpm).unwrap();
    println!(
        "  repo 'xsede' enabled, priority {}",
        yum.repository("xsede").unwrap().priority
    );

    // 2. One-time install of particular capabilities.
    println!("\n== 2. piecemeal installs ==");
    for pkg in ["gromacs", "R", "globus-connect-server"] {
        let report = yum.install(&mut head_db, &[pkg]).unwrap();
        println!(
            "  yum install {pkg}: {} packages (deps resolved)",
            report.installed.len()
        );
    }

    // 3. "with XNIT add software, change the schedulers" — swap the
    //    factory SLURM for Torque+Maui in one transaction, then prove the
    //    behavioral difference on the simulator.
    println!("\n== 3. scheduler swap ==");
    let torque_pkg = yum.solver().best_by_name("torque").unwrap().clone();
    let maui_pkg = yum.solver().best_by_name("maui").unwrap().clone();
    let mut tx = TransactionSet::new();
    tx.add_erase("slurm");
    tx.add_install(torque_pkg);
    tx.add_install(maui_pkg);
    tx.run(&mut head_db).unwrap();
    println!(
        "  slurm out, torque+maui in; factory limulus-tools still present: {}",
        head_db.is_installed("limulus-tools")
    );

    let mut sim = ClusterSim::new(3, 4, SchedPolicy::Fifo);
    sim.submit_at(0.0, JobRequest::new("wide-running", 3, 2, 1000.0, 1000.0));
    sim.submit_at(1.0, JobRequest::new("wide-blocked", 3, 4, 1000.0, 1000.0));
    let tiny = sim.submit_at(2.0, JobRequest::new("tiny", 1, 1, 30.0, 30.0));
    sim.run_until(5.0);
    println!(
        "  under FIFO the tiny job waits: started = {}",
        sim.job(tiny).unwrap().wait_s().is_some()
    );
    sim.set_policy(SchedPolicy::maui_default());
    sim.run_until(6.0);
    println!(
        "  after the Maui swap it backfills: started = {}",
        sim.job(tiny).unwrap().wait_s().is_some()
    );

    // 4. Full compatibility via the overlay.
    println!("\n== 4. complete the overlay ==");
    let missing: Vec<String> = check_compatibility(&head_db)
        .missing()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let refs: Vec<&str> = missing.iter().map(String::as_str).collect();
    yum.install(&mut head_db, &refs).unwrap();
    let compat = check_compatibility(&head_db);
    println!("  {}", compat.render().lines().next().unwrap());

    // 5. Stay current with a staged-test notifier (the paper's "more
    //    prudent action") and keep the power bill down.
    println!("\n== 5. operations ==");
    let notifier = UpdateNotifier::new(UpdatePolicy::StagedTest);
    let mut test_db = head_db.clone();
    let report = notifier
        .run_check(&yum, &mut head_db, Some(&mut test_db))
        .unwrap();
    println!(
        "  update check: {} pending, {} staged",
        report.pending.len(),
        report.applied.len()
    );

    let demand: Vec<u32> = (0..24)
        .map(|h| if (9..17).contains(&h) { 3 } else { 0 })
        .collect();
    let always = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&cluster, &demand, 24 * 30);
    let on_demand =
        PowerManager::new(PowerPolicy::on_demand(90.0)).simulate(&cluster, &demand, 24 * 30);
    println!(
        "  power management: {:.1} kWh/month always-on vs {:.1} kWh/month on-demand ({:.0}% saved)",
        always.energy_kwh,
        on_demand.energy_kwh,
        (1.0 - on_demand.energy_kwh / always.energy_kwh) * 100.0
    );
}
