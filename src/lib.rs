//! # xcbc — XSEDE-compatible basic cluster & national integration toolkit
//!
//! Umbrella crate for the CLUSTER 2015 reproduction. Re-exports every
//! subsystem so examples and integration tests can reach the whole stack
//! through one dependency:
//!
//! * [`rpm`] — RPM package substrate (NEVRA, rpmvercmp, database, transactions)
//! * [`yum`] — Yum repositories, dependency solver, priorities, updates
//! * [`rocks`] — Rocks-style cluster distribution (rolls, kickstart graph, appliances)
//! * [`cluster`] — cluster hardware simulation (LittleFe, Limulus HPC200, Table-3 sites)
//! * [`fault`] — deterministic fault injection, retry/backoff, install checkpoints
//! * [`sched`] — Torque/Maui, SLURM, SGE resource-manager simulation
//! * [`hpl`] — High-Performance Linpack (blocked LU) and the analytic Rmax model
//! * [`modules`] — environment modules
//! * [`core`] — the paper's contribution: XCBC roll, XNIT repo, compatibility
//!   checking, deployment paths, training curriculum
//! * [`sim`] — the shared simulation clock, event queue, and trace
//!   events every layer above records
//! * [`svc`] — `xcbcd`: the concurrent multi-tenant depsolve/deploy
//!   service with admission control, sharded tenant-salted solve
//!   caches, and deterministic-replay request journals
//! * [`check`] — the deterministic chaos-soak harness: seeded scenario
//!   generation, cross-crate invariant checking, seed shrinking
//! * [`cli`] — the strict argument reader the `xcbc` and `xcbcd`
//!   binaries share

pub use xcbc_check as check;
pub use xcbc_cluster as cluster;
pub use xcbc_core as core;
pub use xcbc_fault as fault;
pub use xcbc_hpl as hpl;
pub use xcbc_modules as modules;
pub use xcbc_rocks as rocks;
pub use xcbc_rpm as rpm;
pub use xcbc_sched as sched;
pub use xcbc_sim as sim;
pub use xcbc_svc as svc;
pub use xcbc_yum as yum;

pub mod cli;
