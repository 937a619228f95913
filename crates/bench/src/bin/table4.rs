//! Regenerate Table 4 — deskside cluster characteristics.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::out;

fn main() -> ExitCode {
    xcbc_bench::run("table4", table4)
}

fn table4() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Table 4 regeneration"))?;
    out!("{}", xcbc_core::report::render_table4())?;
    Ok(())
}
