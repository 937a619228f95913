//! # xcbc-cluster — cluster hardware substrate
//!
//! Models the physical side of the paper's evaluation: CPU/disk/PSU/NIC
//! components with the actual part numbers §5 names (Intel Atom D510,
//! Celeron G1840, i7-4770S, Gigabyte GA-Q87TN, Crucial M550 mSATA,
//! Rosewill RCX-Z775-LP cooler), node and cluster topology, theoretical
//! peak FLOPS (Rpeak), power and thermal constraints, Ganglia-style
//! monitoring, bill-of-materials cost, and the
//! cloud-vs-cluster TCO model from §8.
//!
//! The two headline systems are available as ready-made blueprints:
//!
//! ```
//! use xcbc_cluster::specs;
//!
//! let littlefe = specs::littlefe_modified();
//! let limulus = specs::limulus_hpc200();
//! assert_eq!(littlefe.compute_cores(), 12);
//! assert_eq!(limulus.compute_cores(), 16);
//! // Table 5 Rpeak values
//! assert!((littlefe.rpeak_gflops() - 537.6).abs() < 0.1);
//! assert!((limulus.rpeak_gflops() - 793.6).abs() < 0.1);
//! ```

pub mod cost;
pub mod failure;
pub mod flops;
pub mod hw;
pub mod monitor;
pub mod node;
pub mod power;
pub mod render;
pub mod specs;
pub mod telemetry;
pub mod thermal;
pub mod topology;

pub use cost::{Bom, BomLine, CloudOffering, TcoComparison};
pub use failure::{sample_failures, DegradedCluster, FailedComponent, Failure};
pub use flops::{gpu_peak_gflops, rpeak_gflops_cpu};
pub use hw::{Cooler, CpuModel, DiskDrive, DiskKind, FormFactor, Motherboard, Nic, Psu};
pub use monitor::{
    default_alert_rules, Alert, AlertEngine, AlertOp, AlertRule, ClusterMonitor, MetricKind,
    MetricSample, NodeMonitor, Ring, ALERT_TRACE_SOURCE,
};
pub use node::{NodeRole, NodeSpec, PowerState};
pub use power::{
    PowerManager, PowerPolicy, PowerReport, PowerRun, PowerSequencer, POWER_TRACE_SOURCE,
};
pub use render::{render_limulus, render_littlefe_front, render_littlefe_rear};
pub use specs::{limulus_hpc200, littlefe_modified, littlefe_v4};
pub use telemetry::{TelemetryConfig, TelemetrySink, MEMBERSHIP_TRACE_SOURCE};
pub use thermal::{check_node_thermals, ThermalIssue};
pub use topology::{ClusterSpec, NetworkSpec};
