//! Real Linpack on this machine: GFLOPS vs problem size and threads,
//! plus the analytic Rmax model's Table 5 projections.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_hpl::{run_hpl, EfficiencyModel, HplConfig};

fn main() -> ExitCode {
    xcbc_bench::run("hpl_scaling", hpl_scaling)
}

fn hpl_scaling() -> Result<(), Stop> {
    out!(
        "{}",
        xcbc_bench::header("HPL scaling (real runs on this host)")
    )?;

    outln!("GFLOPS vs problem size (NB=64, 1 thread):")?;
    for n in [128usize, 256, 512, 1024] {
        let r = run_hpl(&HplConfig {
            n,
            nb: 64,
            threads: 1,
            seed: 42,
        });
        outln!("  {}", r.render())?;
        if !r.passed {
            return Err(format!("residual check failed at N={n}").into());
        }
    }

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    outln!("\nGFLOPS vs threads (N=1024, NB=64):")?;
    for t in [1usize, 2, 4, max_threads] {
        if t > max_threads {
            continue;
        }
        let r = run_hpl(&HplConfig {
            n: 1024,
            nb: 64,
            threads: t,
            seed: 42,
        });
        outln!("  {}", r.render())?;
    }

    outln!("\nAnalytic Rmax model (Table 5 projections):")?;
    let m = EfficiencyModel::gigabit_deskside();
    let lf_rmax = m.rmax_gflops(537.6, 6, 48_000);
    let lm_rmax = m.rmax_gflops(793.6, 4, 64_000);
    outln!(
        "  LittleFe  (6 nodes, Rpeak 537.6): model Rmax {:.1} GF (paper est. 403.2)",
        lf_rmax
    )?;
    outln!(
        "  Limulus   (4 nodes, Rpeak 793.6): model Rmax {:.1} GF (paper meas. 498.3)",
        lm_rmax
    )?;
    Ok(())
}
