//! Regenerate Table 1 — XCBC build part 1 (general cluster setup).

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::out;

fn main() -> ExitCode {
    xcbc_bench::run("table1", table1)
}

fn table1() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("XCBC 0.9 — Table 1 regeneration"))?;
    out!("{}", xcbc_core::report::render_table1())?;
    Ok(())
}
