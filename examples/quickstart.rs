//! Quickstart: build an XSEDE-compatible cluster two ways in ~60 lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::collections::BTreeMap;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc::core::deploy::{deploy_from_scratch, deploy_xnit_overlay, limulus_factory_image};
use xcbc::core::XnitSetupMethod;
use xcbc::sim::span_end;

fn main() {
    // Path 1 — XCBC from scratch: Rocks + the XSEDE roll on bare metal.
    // The modified LittleFe (Celeron G1840, mSATA drives) is the paper's
    // reference hardware for this path.
    let littlefe = littlefe_modified();
    println!(
        "Building {} from scratch with the XCBC Rocks roll...",
        littlefe.name
    );
    let report = deploy_from_scratch(&littlefe).expect("LittleFe is Rocks-installable");
    println!(
        "  {} nodes installed in {:.0} simulated seconds; XSEDE compatibility {:.1}%",
        report.nodes_reinstalled,
        span_end(&report.trace).as_secs_f64(),
        report.compat.score * 100.0
    );

    // Path 2 — XNIT overlay: add XSEDE compatibility to an existing,
    // operating cluster (a factory-imaged Limulus HPC200) without
    // changing its pre-existing setup.
    let limulus = limulus_hpc200();
    println!(
        "\nOverlaying XNIT onto {} (factory image preserved)...",
        limulus.name
    );
    let existing: BTreeMap<_, _> = limulus
        .nodes
        .iter()
        .map(|n| (n.hostname.clone(), limulus_factory_image()))
        .collect();
    let overlay =
        deploy_xnit_overlay(&existing, XnitSetupMethod::RepoRpm).expect("overlay succeeds");
    println!(
        "  0 reinstalls; pre-existing setup preserved: {}; compatibility {:.1}%",
        overlay.preexisting_preserved,
        overlay.compat.score * 100.0
    );

    // Either way, the result runs software the same way Stampede does.
    let node = overlay.node_dbs.values().next().unwrap();
    println!(
        "\nSpot checks on a Limulus node: gromacs installed: {}, torque installed: {}, \
         factory slurm still present: {}",
        node.is_installed("gromacs"),
        node.is_installed("torque"),
        node.is_installed("slurm"),
    );
}
