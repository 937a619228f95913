//! Regenerate Figures 1-3 as chassis renderings from the hardware model.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::out;

fn main() -> ExitCode {
    xcbc_bench::run("figures", figures)
}

fn figures() -> Result<(), Stop> {
    out!(
        "{}",
        xcbc_bench::header("Figures 1-3 (substitute renderings)")
    )?;
    out!("{}", xcbc_core::report::render_figures())?;
    Ok(())
}
