//! `xcbc-check` — the deterministic chaos-soak harness.
//!
//! The paper's core claim is operational: an XCBC/XNIT cluster stays
//! correct across bare-metal installs, piecemeal XNIT updates, node
//! failures, and day-to-day scheduling. The sibling crates supply the
//! machinery (seeded fault plans, a shared clock and trace, a parallel
//! fleet engine); this crate exercises it all *together*,
//! FoundationDB-style:
//!
//! * [`Scenario`] — a seeded generator that
//!   randomizes fleet size, Table 4 hardware mixes, fault plans, XNIT
//!   update sequences, and scheduler workloads, then runs the whole
//!   stack and collects a [`SoakOutcome`].
//! * [`Invariant`] — cross-crate checkers over
//!   those outcomes: RPM transaction conservation, EVR total-order,
//!   per-node timeline monotonicity, scheduler job conservation and
//!   no-starvation, solve-cache coherence, checkpoint/resume
//!   equivalence, gmetad rollup consistency, campaign job-safety and
//!   convergence, and elastic-fleet job-safety and autoscaler
//!   convergence (the recorded decision stream must replay exactly
//!   from the recorded metric samples).
//! * [`soak`](soak::soak) — the driver: run N seeds, and on any
//!   violation shrink (fewer sites → fewer faults → shorter workload)
//!   to a minimal reproducing seed with an exact repro command.
//!
//! Everything is deterministic for a given seed: a violation printed by
//! `xcbc soak` reproduces byte-for-byte from its repro command.

#![deny(missing_docs)]

pub mod invariant;
pub mod invariants;
pub mod outcome;
pub mod scenario;
pub mod soak;

pub use invariant::{default_invariants, Invariant, Violation};
pub use outcome::SoakOutcome;
pub use scenario::{Scenario, ScenarioLimits};
pub use soak::{
    check_outcome, invariants_for, repro_command, run_seed, shrink, soak, SeedFailure,
    ShrinkResult, SoakConfig, SoakReport,
};
