//! Regenerate Table 3 — deployed XCBC clusters.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};

fn main() -> ExitCode {
    xcbc_bench::run("table3", table3)
}

fn table3() -> Result<(), Stop> {
    out!(
        "{}",
        xcbc_bench::header("XCBC fleet — Table 3 regeneration")
    )?;
    out!("{}", xcbc_core::report::render_table3())?;
    let t = xcbc_core::fleet_totals();
    outln!(
        "\nPaper totals: 304 nodes / 2708 cores / 49.61 TF — regenerated: {} / {} / {:.2} TF",
        t.nodes,
        t.cores,
        t.rpeak_tflops
    )?;
    Ok(())
}
