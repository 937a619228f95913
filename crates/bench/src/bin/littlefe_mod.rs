//! §5.1 modification analysis: why the stock LittleFe cannot host XCBC
//! and what each hardware change buys.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_cluster::specs::{littlefe_modified, littlefe_v4};
use xcbc_cluster::thermal::LITTLEFE_BAY_CLEARANCE_MM;
use xcbc_cluster::{check_node_thermals, hw, NodeRole, NodeSpec};

fn main() -> ExitCode {
    xcbc_bench::run("littlefe_mod", littlefe_mod)
}

fn littlefe_mod() -> Result<(), Stop> {
    out!(
        "{}",
        xcbc_bench::header("LittleFe modification analysis (§5.1)")
    )?;

    let v4 = littlefe_v4();
    let modified = littlefe_modified();

    outln!("Rocks installability:")?;
    for c in [&v4, &modified] {
        let (ok, reasons) = c.rocks_installable();
        outln!(
            "  {:<28} {}",
            c.name,
            if ok {
                "OK".to_string()
            } else {
                reasons.join("; ")
            }
        )?;
    }

    outln!("\nPer-CPU comparison (paper: 10.56 W vs 43.06 W):")?;
    for cpu in [hw::ATOM_D510, hw::CELERON_G1840] {
        outln!(
            "  {:<22} {:.2} GHz  {} cores  {:>6.2} W measured  {:>5.1} GF/socket",
            cpu.name,
            cpu.clock_ghz,
            cpu.cores,
            cpu.measured_watts,
            xcbc_cluster::rpeak_gflops_cpu(&cpu)
        )?;
    }

    outln!("\nCooler fit in a {LITTLEFE_BAY_CLEARANCE_MM} mm LittleFe bay:")?;
    for cooler in [
        hw::ATOM_HEATSINK,
        hw::INTEL_STOCK_COOLER,
        hw::ROSEWILL_RCX_Z775_LP,
    ] {
        let node = NodeSpec::new("probe", NodeRole::Compute)
            .cpu(hw::CELERON_G1840)
            .cooler(cooler.clone())
            .build();
        let issues = check_node_thermals(&node, LITTLEFE_BAY_CLEARANCE_MM);
        outln!(
            "  {:<42} {}",
            cooler.name,
            if issues.is_empty() {
                "fits and cools".to_string()
            } else {
                issues
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        )?;
    }

    outln!("\nPower budget:")?;
    outln!(
        "  v4 (shared {} W supply):       load {:>6.1} W — ok: {}",
        v4.shared_psu.as_ref().map(|p| p.watts).unwrap_or(0.0),
        v4.load_watts(),
        v4.power_budget_ok()
    )?;
    outln!(
        "  modified (per-node 120 W):     load {:>6.1} W — ok: {}",
        modified.load_watts(),
        modified.power_budget_ok()
    )?;

    outln!(
        "\nRpeak: v4 {:.1} GF -> modified {:.1} GF ({:.1}x)",
        v4.rpeak_gflops(),
        modified.rpeak_gflops(),
        modified.rpeak_gflops() / v4.rpeak_gflops()
    )?;
    Ok(())
}
