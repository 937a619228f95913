//! §3 update-strategy ablation: automatic yum vs notify vs staged test
//! vs Rocks update rolls, across 200 simulated update cycles with a 10 %
//! breaking-update rate.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_core::update::{simulate_updates, UpdateStrategy};

fn main() -> ExitCode {
    xcbc_bench::run("update_ablation", update_ablation)
}

fn update_ablation() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Update strategy ablation (§3)"))?;
    outln!(
        "{:<16} {:>10} {:>10} {:>12} {:>12}",
        "strategy",
        "prod-incid",
        "caught",
        "admin-steps",
        "staleness"
    )?;
    for strategy in [
        UpdateStrategy::AutomaticYum,
        UpdateStrategy::NotifyOnly,
        UpdateStrategy::StagedTest,
        UpdateStrategy::UpdateRoll,
    ] {
        let r = simulate_updates(strategy, 200, 0.10, 2015);
        outln!(
            "{:<16} {:>10} {:>10} {:>12} {:>9.0} d",
            r.strategy_label,
            r.production_incidents,
            r.caught_in_staging,
            r.admin_steps_total,
            r.mean_staleness_days
        )?;
    }
    outln!("\nPaper: automatic updates 'may cause unexpected behavior in a production")?;
    outln!("environment'; staged review is 'the more prudent action'. The simulation")?;
    outln!("shows the trade: incidents vs admin effort vs staleness.")?;
    Ok(())
}
