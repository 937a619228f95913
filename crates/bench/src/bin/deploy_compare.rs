//! §3/§8 comparison: Rocks from-scratch vs XNIT overlay.
//!
//! Reproduces the paper's qualitative claims as numbers: the overlay
//! touches zero node OSes and preserves the pre-existing setup; the
//! from-scratch path reinstalls every node but needs no prior system.

use std::collections::BTreeMap;
use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc_core::deploy::{deploy_from_scratch, deploy_xnit_overlay, limulus_factory_image};
use xcbc_core::XnitSetupMethod;

fn main() -> ExitCode {
    xcbc_bench::run("deploy_compare", deploy_compare)
}

fn deploy_compare() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Deployment path comparison"))?;

    let scratch = deploy_from_scratch(&littlefe_modified())
        .map_err(|e| format!("LittleFe install failed: {e}"))?;
    outln!("{}", scratch.render_row())?;

    let limulus: BTreeMap<_, _> = limulus_hpc200()
        .nodes
        .iter()
        .map(|n| (n.hostname.clone(), limulus_factory_image()))
        .collect();
    for method in [XnitSetupMethod::RepoRpm, XnitSetupMethod::ManualRepoFile] {
        let overlay = deploy_xnit_overlay(&limulus, method)
            .map_err(|e| format!("Limulus overlay failed: {e}"))?;
        outln!("{}", overlay.render_row())?;
    }

    outln!("\nFrom-scratch timeline (LittleFe):")?;
    out!("{}", scratch.timeline().render())?;

    outln!("\nWhy the Limulus cannot take the from-scratch path:")?;
    match deploy_from_scratch(&limulus_hpc200()) {
        Err(e) => outln!("  {e}")?,
        Ok(_) => outln!("  (unexpectedly installable)")?,
    }
    Ok(())
}
