//! `xcbc-fault` — the resilience layer of the XCBC/XNIT reproduction.
//!
//! The paper's own evaluation hits the failure class this crate models:
//! Table 5's footnote reports that LittleFe's Rmax had to be *estimated*
//! "due to a hardware failure prior to Linpack", and the §3 bare-metal
//! install leans on flaky realities — PXE/DHCP discovery, yum mirror
//! fetches, RPM scriptlets — that production cluster management treats as
//! retryable, resumable operations.
//!
//! This crate provides the five pieces the provisioning pipeline shares:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a *deterministic, seeded*
//!   schedule of faults at named [`InjectionPoint`]s. A failure scenario
//!   is a value you can store, print, and replay; never an RNG accident.
//! * [`RetryPolicy`] / [`retry_with`] — exponential backoff with seeded
//!   jitter, bounded attempts, and a wall-clock budget. Backoff delays
//!   are returned so callers can record them as install trace spans.
//! * [`InstallCheckpoint`] — per-node provisioning progress
//!   (discovered → kickstarted → packages-committed) that survives a
//!   mid-install power loss so a re-run resumes instead of rewiping
//!   healthy nodes.
//! * [`record`] — the line-record codec every checkpoint here and the
//!   `xcbcd` journal are read with: one tag per line, typed fields, and
//!   one line-numbered [`RecordError`].
//! * [`PostMortem`] — the report section a degraded deployment emits:
//!   faults injected, retries spent, nodes quarantined, time lost to
//!   backoff.

pub mod checkpoint;
pub mod plan;
pub mod postmortem;
pub mod record;
pub mod retry;

pub use checkpoint::{CampaignCheckpoint, ElasticCheckpoint, InstallCheckpoint, NodeStage};
pub use plan::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultWindow, InjectionPoint,
    Mutation, PlanParseError,
};
pub use postmortem::PostMortem;
pub use record::RecordError;
pub use retry::{retry_with, RetryOutcome, RetryPolicy};
