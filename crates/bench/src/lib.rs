//! # xcbc-bench — benchmark harness and experiment regeneration
//!
//! Binaries (one per paper artifact; run with `cargo run --bin <name>`):
//!
//! | binary          | regenerates |
//! |-----------------|-------------|
//! | `table1`        | Table 1 — XCBC part 1 (Rocks rolls) |
//! | `table2`        | Table 2 — XSEDE run-alike components |
//! | `table3`        | Table 3 — deployed clusters + totals |
//! | `table4`        | Table 4 — LittleFe vs Limulus characteristics |
//! | `table5`        | Table 5 — Rpeak/Rmax/price-performance |
//! | `figures`       | Figures 1–3 — chassis renderings |
//! | `deploy_compare`| §3/§8 from-scratch vs XNIT-overlay comparison |
//! | `littlefe_mod`  | §5.1 modification constraints (thermal/power/disk) |
//! | `cost_model`    | §7/§8 price and cloud-TCO analysis |
//! | `update_ablation` | §3 update-strategy risk ablation |
//! | `hpl_scaling`   | real Linpack: GFLOPS vs N and threads |
//!
//! Criterion benches (under `benches/`): `solver`, `hpl`, `sched`,
//! `provision`, `evr`.

use std::process::ExitCode;
use std::time::Instant;
use xcbc::cli::{exit_code, Stop};

/// A binary's exit status from its `body`, the way `xcbc` decides its
/// own: a reader that closes standard output early is a quiet end of
/// output (exit 0, nothing on stderr), and an error exits 1 with a
/// message after `name`.
pub fn run(name: &str, body: impl FnOnce() -> Result<(), Stop>) -> ExitCode {
    exit_code(name, body().map(|()| ExitCode::SUCCESS))
}

/// Print a section header the way the binaries format their output.
pub fn header(title: &str) -> String {
    format!("{}\n{}\n", title, "=".repeat(title.len()))
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_underlines() {
        let h = header("Table 1");
        assert_eq!(h, "Table 1\n=======\n");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
