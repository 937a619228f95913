//! Regenerate Table 2 — XSEDE run-alike components.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::out;

fn main() -> ExitCode {
    xcbc_bench::run("table2", table2)
}

fn table2() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("XCBC 0.9 — Table 2 regeneration"))?;
    out!("{}", xcbc_core::report::render_table2())?;
    Ok(())
}
