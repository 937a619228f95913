//! The full §5.1 LittleFe build, step by step: hardware assembly checks,
//! Rocks frontend install with the XSEDE roll, insert-ethers discovery,
//! a test MPI job through Torque/Maui, Ganglia monitoring, and the final
//! compatibility verification.
//!
//! ```sh
//! cargo run --example littlefe_xcbc_build
//! ```

use xcbc::cluster::specs::littlefe_modified;
use xcbc::cluster::thermal::LITTLEFE_BAY_CLEARANCE_MM;
use xcbc::cluster::{check_node_thermals, ClusterMonitor, MetricKind};
use xcbc::core::compat::check_compatibility;
use xcbc::core::roll::xsede_roll;
use xcbc::modules::{generate_from_rpmdb, ModuleSystem};
use xcbc::rocks::{standard_rolls, ClusterInstall, RocksCli};
use xcbc::sched::{JobRequest, ResourceManager, TorqueServer};
use xcbc::sim::{render_gantt, SimTime};

fn main() {
    let cluster = littlefe_modified();

    // 1. Hardware sanity: the §5.1 modifications must hold together.
    println!("== 1. hardware checks ==");
    for node in &cluster.nodes {
        let issues = check_node_thermals(node, LITTLEFE_BAY_CLEARANCE_MM);
        assert!(issues.is_empty(), "{}: {:?}", node.hostname, issues);
    }
    println!(
        "  6x {} with {} — thermals ok, power budget ok: {}",
        cluster.nodes[0].cpu.name,
        cluster.nodes[0].cooler.name,
        cluster.power_budget_ok()
    );

    // 2. Bare-metal install: Rocks 6.1.1 + the XSEDE roll.
    println!("\n== 2. Rocks install with XSEDE roll ==");
    let mut rolls = standard_rolls();
    rolls.push(xsede_roll());
    let install = ClusterInstall::new(cluster.clone(), rolls);
    let report = install.run().expect("diskful LittleFe installs");
    println!("{}", render_gantt(&report.trace));

    // 3. The cluster database insert-ethers built.
    println!("== 3. cluster database ==");
    let mut cli = RocksCli::with_db(report.rocks_db);
    println!("{}", cli.run("rocks list host").unwrap());

    // 4. Submit an MPI job across all 12 cores.
    println!("== 4. test job through Torque + Maui ==");
    let mut torque = TorqueServer::with_maui("littlefe", 5, 2);
    let id = torque.qsub(JobRequest::new("hpl-smoke", 5, 2, 600.0, 300.0));
    torque.drain();
    println!("  job {id}: {}", torque.metrics().render_row());

    // 5. Ganglia-style monitoring.
    println!("\n== 5. monitoring ==");
    let mut monitor = ClusterMonitor::new(16);
    for (i, node) in cluster.nodes.iter().enumerate() {
        monitor.publish(
            &node.hostname,
            MetricKind::LoadOne,
            SimTime::from_secs(60),
            1.5 + i as f64 * 0.1,
        );
        monitor.publish(
            &node.hostname,
            MetricKind::CpuPercent,
            SimTime::from_secs(60),
            85.0,
        );
    }
    println!(
        "  {} nodes reporting; cluster mean load {:.2}",
        monitor.node_count(),
        monitor.cluster_mean(MetricKind::LoadOne).unwrap()
    );

    // 6. Environment modules generated from the installed software
    //    (the Montana State integration).
    println!("\n== 6. environment modules ==");
    let compute_db = &report.node_dbs["compute-0-0"];
    let mut modules = ModuleSystem::new();
    let generated = generate_from_rpmdb(compute_db);
    let count = generated.len();
    for m in generated {
        modules.add(m);
    }
    println!("  {count} modulefiles generated from the node's RPM database");

    // 7. Final verification: the node runs-alike with Stampede.
    println!("\n== 7. XSEDE compatibility ==");
    let compat = check_compatibility(compute_db);
    println!("  {}", compat.render().lines().next().unwrap());
    assert!(compat.is_compatible());
    println!("\nLittleFe is an XSEDE-compatible basic cluster.");
}
