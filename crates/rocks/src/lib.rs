//! # xcbc-rocks — Rocks cluster-distribution substrate
//!
//! Reimplements the Rocks mechanics XCBC builds on (§3: "XCBC builds on
//! and currently depends on the very successful Rocks project"): Rolls
//! (package collections with kickstart-graph fragments), the kickstart
//! graph itself, appliance types, the cluster host database, insert-ethers
//! node discovery, attribute resolution, kickstart profile generation
//! (with the *diskful-only* constraint that forced the LittleFe mSATA
//! modification), and the bare-metal install workflow with timing.
//!
//! ```
//! use xcbc_rocks::{KickstartGraph, Appliance};
//!
//! let graph = KickstartGraph::standard();
//! let pkgs = graph.packages_for(Appliance::Compute).unwrap();
//! assert!(pkgs.iter().any(|p| p == "rocks-base"));
//! ```

pub mod attrs;
pub mod cluster_fork;
pub mod commands;
pub mod database;
pub mod graph;
pub mod insert_ethers;
pub mod install;
pub mod kickstart;
pub mod media;
pub mod pxe;
pub mod roll;

pub use attrs::{AttrScope, AttrStore};
pub use cluster_fork::{cluster_fork, ForkReport, ForkResult};
pub use commands::RocksCli;
pub use database::{HostRecord, Membership, RocksDb};
pub use graph::{Appliance, GraphError, GraphNode, KickstartGraph};
pub use insert_ethers::{DhcpRequest, InsertEthers};
pub use install::{
    ClusterInstall, InstallError, InstallErrorKind, InstallProgress, InstallReport, NodeImageStore,
    ResilienceConfig, ResilientReport, TRACE_SOURCE,
};
pub use kickstart::{KickstartError, KickstartProfile, Partition};
pub use media::{ApplianceWalk, InstallMedia};
pub use pxe::{boot_node, PxeOutcome, PxeStage};
pub use roll::{standard_rolls, Roll};
