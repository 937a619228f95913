//! §7/§8 cost analysis: BOMs, price-performance, order-of-magnitude
//! comparison against a server configuration, and the cluster-vs-cloud
//! TCO crossover.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_cluster::cost::{
    limulus_hpc200_bom, littlefe_modified_bom, server_configuration_bom, CloudOffering,
    TcoComparison,
};
use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified, LITTLEFE_COST_USD};

fn main() -> ExitCode {
    xcbc_bench::run("cost_model", cost_model)
}

fn cost_model() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Cost analysis (§7/§8)"))?;

    let lf_bom = littlefe_modified_bom();
    outln!("LittleFe (modified) bill of materials:")?;
    for line in &lf_bom.lines {
        outln!(
            "  {:<38} {:>8.2} x{:<2} = {:>9.2}",
            line.item,
            line.unit_usd,
            line.quantity,
            line.total()
        )?;
    }
    outln!("  {:<38} {:>24.2}", "TOTAL", lf_bom.total_usd())?;

    outln!("\nSystem prices:")?;
    for bom in [&lf_bom, &limulus_hpc200_bom(), &server_configuration_bom()] {
        outln!("  {:<42} ${:>9.2}", bom.system, bom.total_usd())?;
    }
    outln!(
        "  -> server config / LittleFe price ratio: {:.1}x (paper: 'an order of magnitude')",
        server_configuration_bom().total_usd() / lf_bom.total_usd()
    )?;

    outln!("\nCluster vs commercial cloud (AWS 2015 pricing), 6 nodes:")?;
    let cluster = littlefe_modified();
    for hours_per_month in [40.0, 160.0, 400.0] {
        let tco = TcoComparison::compute(
            LITTLEFE_COST_USD,
            cluster.load_watts(),
            &CloudOffering::aws_2015(),
            6,
            hours_per_month,
            60,
        );
        outln!(
            "  {:>5.0} node-busy h/mo: cloud ${:>7.0}/mo, cluster opex ${:>5.0}/mo, crossover: {}",
            hours_per_month,
            tco.cloud_usd_per_month,
            tco.cluster_opex_usd_per_month,
            match tco.crossover_months {
                Some(m) => format!("month {m}"),
                None => "never (within 5 years)".to_string(),
            }
        )?;
    }

    let lm = limulus_hpc200();
    outln!("\nPrice-performance (Table 5 reprise):")?;
    outln!(
        "  LittleFe        ${}/GF Rpeak",
        lf_bom.usd_per_gflops_rounded(cluster.rpeak_gflops())
    )?;
    outln!(
        "  Limulus HPC200  ${}/GF Rpeak",
        limulus_hpc200_bom().usd_per_gflops_rounded(lm.rpeak_gflops())
    )?;
    Ok(())
}
