//! Host characterization: the three classic microbenchmarks the §6
//! curriculum teaches — STREAM (real), ping-pong (GbE model), and a
//! quick HPL point (real) — plus the failure-injection reprise of the
//! Table 5 footnote.

use std::process::ExitCode;
use xcbc::cli::Stop;
use xcbc::{out, outln};
use xcbc_cluster::specs::littlefe_modified;
use xcbc_cluster::{DegradedCluster, FailedComponent, Failure};
use xcbc_hpl::{pingpong_bandwidth_mb_s, run_hpl, run_stream, HplConfig, StreamKernel};

fn main() -> ExitCode {
    xcbc_bench::run("microbench", microbench)
}

fn microbench() -> Result<(), Stop> {
    out!("{}", xcbc_bench::header("Deskside-cluster microbenchmarks"))?;

    outln!("STREAM (real, this host, N=4M doubles):")?;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    for kernel in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        let r = run_stream(kernel, 4 << 20, threads, 3);
        outln!(
            "  {:<6?} {:>8.2} GB/s ({} threads)",
            kernel,
            r.bandwidth_gb_s,
            r.threads
        )?;
    }

    outln!("\nMPI ping-pong over the LittleFe's GbE (model):")?;
    for p in [3u32, 10, 17, 20] {
        let bytes = 1u64 << p;
        outln!(
            "  {:>9} B  {:>8.2} MB/s",
            bytes,
            pingpong_bandwidth_mb_s(bytes, 50.0, 1.0)
        )?;
    }

    outln!("\nHPL spot check (real, N=512):")?;
    let r = run_hpl(&HplConfig {
        n: 512,
        nb: 64,
        threads,
        seed: 1,
    });
    outln!("  {}", r.render())?;

    outln!("\nTable 5 footnote reprise — a node dies before Linpack:")?;
    let degraded = DegradedCluster::new(
        littlefe_modified(),
        vec![Failure {
            hostname: "compute-0-3".into(),
            component: FailedComponent::Motherboard,
        }],
    );
    outln!(
        "  full Linpack possible: {}; degraded Rpeak {:.1} GF of 537.6",
        degraded.can_run_full_linpack(),
        degraded.degraded_rpeak_gflops()
    )?;
    outln!("  -> the paper estimated Rmax at 75% of Rpeak instead of measuring (403.2 GF)")?;
    Ok(())
}
