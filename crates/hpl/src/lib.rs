//! # xcbc-hpl — High-Performance Linpack substrate
//!
//! Table 5 of the paper reports Rpeak and Rmax (HP Linpack) for the
//! modified LittleFe and the Limulus HPC200. We cannot run on 2015
//! Haswell hardware, so this crate provides both halves of a faithful
//! substitution:
//!
//! 1. **A real Linpack** — blocked, partially-pivoted LU factorization
//!    with a thread-parallel trailing update, a triangular solve, and the
//!    standard scaled-residual correctness check. It runs on the host
//!    machine and exhibits the *shape* of HPL: GFLOPS grow with problem
//!    size and thread count, and every run is verified.
//! 2. **An analytic Rmax model** — maps a cluster's Rpeak to expected
//!    Rmax through a computation/communication efficiency model
//!    calibrated against the paper's published points (Limulus measured
//!    498.3 of 793.6; LittleFe estimated at 75 % of Rpeak).
//!
//! ```
//! use xcbc_hpl::{HplConfig, run_hpl};
//!
//! let result = run_hpl(&HplConfig { n: 128, nb: 32, threads: 1, seed: 7 });
//! assert!(result.passed, "residual check must pass");
//! assert!(result.gflops > 0.0);
//! ```

pub mod hpl;
pub mod lu;
pub mod matrix;
pub mod model;
pub mod stream;
pub mod tuning;

pub use hpl::{run_hpl, HplConfig, HplResult};
pub use lu::{lu_factor, lu_solve, SingularMatrix};
pub use matrix::Matrix;
pub use model::{EfficiencyModel, PAPER_LIMULUS_RMAX_GF, PAPER_LITTLEFE_RMAX_EST_GF};
pub use stream::{
    pingpong_bandwidth_mb_s, pingpong_seconds, run_stream, StreamKernel, StreamResult,
};
pub use tuning::{sweep_block_size, TuningPoint};
