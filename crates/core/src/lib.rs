//! # xcbc-core — XCBC and XNIT
//!
//! The paper's primary contribution, built on the substrates in the
//! sibling crates:
//!
//! * [`catalog`] — the XCBC 0.9 software catalog (Tables 1 and 2): every
//!   package, its category, version, dependencies, and install paths,
//!   kept "run-alike" with the XSEDE Stampede reference.
//! * [`roll`] — the XSEDE Rocks Roll (release history 0.0.8 → 0.0.9 →
//!   0.9) for the **from-scratch** path.
//! * [`xnit`] — the XSEDE National Integration Toolkit Yum repository for
//!   the **piecemeal** path, with both setup methods §3 describes.
//! * [`compat`] — the XSEDE-compatibility checker: versions, library
//!   paths, and commands must match the reference profile.
//! * [`deploy`] — the two deployment workflows and their comparison
//!   (steps, wall time, what survives on an existing cluster).
//! * [`update`] — keeping a cluster current: update rolls vs `yum
//!   update` vs notification scripts, with the production-risk model.
//! * [`sites`] — the Table 3 deployment registry and fleet statistics.
//! * [`fleet`] — the fleet orchestrator: N sites deployed concurrently
//!   over a shared solve cache, merged into one trace report.
//! * [`campaign`] — rolling update campaigns: drain-aware, canaried,
//!   checkpoint-resumable waves over a live fleet.
//! * [`elastic`] — dynamic fleet membership: the power-aware autoscaler,
//!   burst sites joining mid-run, and the membership ledger.
//! * [`training`] — the LittleFe/XCBC curriculum module of §6.
//! * [`report`] — renderers that regenerate the paper's tables.
//!
//! ```
//! use xcbc_core::catalog::xcbc_catalog;
//! use xcbc_core::xnit::xnit_repository;
//!
//! let repo = xnit_repository();
//! assert!(repo.newest("gromacs").is_some());
//! assert!(xcbc_catalog().len() > 100);
//! ```

pub mod bridging;
pub mod campaign;
pub mod catalog;
pub mod compat;
pub mod deploy;
pub mod elastic;
pub mod fleet;
pub mod mon;
pub mod report;
pub mod roll;
pub mod scenario;
pub mod sites;
pub mod training;
pub mod update;
pub mod xnit;

pub use bridging::{setup_endpoint, transfer, Endpoint, GffsNamespace, TransferFile};
pub use campaign::{
    campaign_digest, plan_waves, run_campaign, CampaignAbort, CampaignConfig, CampaignError,
    CampaignOutcome, CampaignReport, CampaignTarget, CanaryAction, WaveReport,
    CAMPAIGN_TRACE_SOURCE,
};
pub use catalog::{xcbc_catalog, xsede_reference, CatalogEntry};
pub use compat::{check_compatibility, CompatIssue, CompatReport};
pub use deploy::{DeploymentPath, DeploymentReport};
pub use elastic::{
    elastic_digest, run_elastic, Autoscaler, BurstSite, ElasticAbort, ElasticConfig, ElasticError,
    ElasticReport, ElasticState, ElasticVerdict, ElasticWorld, FleetMembership, MemberState,
    MetricSample, ScaleDecision, ScalerPolicy, TickStat, ELASTIC_TRACE_SOURCE,
    MEMBERSHIP_TRACE_SOURCE,
};
pub use fleet::{Fleet, FleetError, FleetReport, FleetSite, FleetTelemetry, SiteOutcome, SitePlan};
pub use mon::{monitor_run, sparkline, MonReport};
pub use roll::{xcbc_install_media, xsede_roll, RollRelease, XSEDE_ROLL_RELEASES};
pub use scenario::{littlefe_day_one, DayOneRun};
pub use sites::{deployed_sites, fleet_totals, Site};
pub use training::{Curriculum, LabSession, LessonStep};
pub use update::{UpdateRisk, UpdateStrategy};
pub use xnit::{xnit_repository, XnitSetupMethod};
