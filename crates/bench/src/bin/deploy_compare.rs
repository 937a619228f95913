//! §3/§8 comparison: Rocks from-scratch vs XNIT overlay.
//!
//! Reproduces the paper's qualitative claims as numbers: the overlay
//! touches zero node OSes and preserves the pre-existing setup; the
//! from-scratch path reinstalls every node but needs no prior system.

use std::collections::BTreeMap;
use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc_core::deploy::{deploy_from_scratch, deploy_xnit_overlay, limulus_factory_image};
use xcbc_core::XnitSetupMethod;

fn main() {
    print!("{}", xcbc_bench::header("Deployment path comparison"));

    let scratch = deploy_from_scratch(&littlefe_modified()).expect("LittleFe installs");
    println!("{}", scratch.render_row());

    let limulus: BTreeMap<_, _> = limulus_hpc200()
        .nodes
        .iter()
        .map(|n| (n.hostname.clone(), limulus_factory_image()))
        .collect();
    for method in [XnitSetupMethod::RepoRpm, XnitSetupMethod::ManualRepoFile] {
        let overlay = deploy_xnit_overlay(&limulus, method).expect("overlay succeeds");
        println!("{}", overlay.render_row());
    }

    println!("\nFrom-scratch timeline (LittleFe):");
    print!("{}", scratch.timeline().render());

    println!("\nWhy the Limulus cannot take the from-scratch path:");
    match deploy_from_scratch(&limulus_hpc200()) {
        Err(e) => println!("  {e}"),
        Ok(_) => println!("  (unexpectedly installable)"),
    }
}
