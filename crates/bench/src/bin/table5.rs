//! Regenerate Table 5 — performance and price/performance.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::out;

fn main() -> ExitCode {
    xcbc_bench::run("table5", table5)
}

fn table5() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Table 5 regeneration"))?;
    out!("{}", xcbc_core::report::render_table5())?;
    Ok(())
}
