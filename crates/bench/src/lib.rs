//! # xcbc-bench — criterion benches
//!
//! The crate holds only the criterion benches under `benches/` (`analyze`,
//! `evr`, `fleet`, `hpl`, `monitor`, `provision`, `sched`, `solver`,
//! `stream`, `svc`, `workload`); run them with `cargo bench -p xcbc-bench`.
//! The paper's tables and figures are regenerated by `xcbc tables
//! <artifact>`.
