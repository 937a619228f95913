//! What one soaked scenario leaves behind for the checkers.

use std::collections::BTreeMap;
use std::sync::Arc;

use xcbc_core::campaign::{CampaignReport, CampaignTarget};
use xcbc_core::elastic::{ElasticReport, TickStat};
use xcbc_core::fleet::{FleetReport, FleetTelemetry};
use xcbc_rpm::{RpmDb, TransactionReport};
use xcbc_sched::{ClusterSim, JobState, RmKind, SimMetrics};
use xcbc_sim::TraceEvent;
use xcbc_svc::{SvcConfig, SvcReport, SvcRequest};
use xcbc_yum::{Repository, SolveCache, SolveRequest, YumConfig};

/// Input snapshot of one depsolve routed through the shared cache,
/// kept so the coherence checker can replay it fresh and byte-compare
/// against what the cache served.
#[derive(Debug, Clone)]
pub struct SolveProbe {
    /// Repositories the solve ran against.
    pub repos: Vec<Repository>,
    /// Yum configuration in effect.
    pub config: YumConfig,
    /// The RPM database state *before* the solve.
    pub db: RpmDb,
    /// The request.
    pub request: SolveRequest,
}

/// One executed RPM transaction with before/after database snapshots,
/// for the conservation checker.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// Where in the scenario this transaction ran (for reports).
    pub label: String,
    /// Database before the transaction.
    pub before: RpmDb,
    /// What the transaction reported doing.
    pub report: TransactionReport,
    /// Database after the transaction.
    pub after: RpmDb,
}

/// The scheduler stage's outcome: the drained simulator plus the trace
/// it emitted and the ids it handed out.
#[derive(Debug)]
pub struct SchedOutcome {
    /// The simulator after `run_to_completion` (holds final job states).
    pub sim: ClusterSim,
    /// Structured trace drained from the simulator.
    pub trace: Vec<TraceEvent>,
    /// How many jobs the scenario submitted.
    pub submitted: usize,
}

/// The checkpoint/resume stage: the same cluster installed twice —
/// once uninterrupted, once with a power loss after the frontend commit
/// and then resumed from the checkpoint.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// Trace of the uninterrupted run.
    pub uninterrupted_trace: Vec<TraceEvent>,
    /// Final per-node databases of the uninterrupted run.
    pub uninterrupted_dbs: BTreeMap<String, RpmDb>,
    /// Trace of the final (resumed) run after the power loss.
    pub resumed_trace: Vec<TraceEvent>,
    /// Final per-node databases after resume.
    pub resumed_dbs: BTreeMap<String, RpmDb>,
    /// How many power-loss aborts happened before the resumed run
    /// completed (the scenario schedules exactly one).
    pub aborts: usize,
}

/// The rolling-campaign stage: a multi-wave drained update executed
/// against a live scheduler frontend, resumed across any injected
/// `campaign.drain` aborts.
#[derive(Debug)]
pub struct CampaignRecord {
    /// What the campaign was updating the fleet to.
    pub target: CampaignTarget,
    /// Per-node package databases after the campaign.
    pub final_dbs: BTreeMap<String, RpmDb>,
    /// The report of the final (completing) campaign segment.
    pub report: CampaignReport,
    /// How many `campaign.drain` aborts were resumed from a checkpoint.
    pub resumes: usize,
    /// Names of the jobs submitted to the campaign's scheduler.
    pub submitted: Vec<String>,
    /// `(name, state)` of every job after the post-campaign drain.
    pub job_states: Vec<(String, JobState)>,
    /// The scheduler trace across the whole campaign (all segments).
    pub trace: Vec<TraceEvent>,
    /// Core-seconds the scheduler accounted for.
    pub used_core_seconds: f64,
}

/// The elastic-membership stage: a fleet self-scaling between its
/// floor and ceiling under a bursty workload, resumed across any
/// injected `elastic.scale-up` aborts.
#[derive(Debug)]
pub struct ElasticRecord {
    /// The report of the final (completing) run segment.
    pub report: ElasticReport,
    /// Tick stats concatenated across every segment (aborted prefixes
    /// plus the completing run) — the full decision stream the
    /// convergence checker replays through a fresh autoscaler.
    pub ticks: Vec<TickStat>,
    /// How many `elastic.scale-up` aborts were resumed from checkpoints.
    pub resumes: usize,
    /// Names of the jobs submitted to the elastic fleet.
    pub submitted: Vec<String>,
    /// `(name, state)` of every job after the run settled.
    pub job_states: Vec<(String, JobState)>,
}

/// The generated-workload stage: an open-loop
/// [`WorkloadSpec`](xcbc_sched::workload::WorkloadSpec) stream run
/// end-to-end through one RM
/// frontend, with the expected-consumption ledger kept alongside so
/// the conservation checker can audit the books.
#[derive(Debug)]
pub struct WorkloadRecord {
    /// Digest of the normalized spec that generated the stream.
    pub spec_digest: u64,
    /// Stream seed.
    pub seed: u64,
    /// Which frontend ran the stream.
    pub rm: RmKind,
    /// `(name, cores, expected_busy_s)` per generated request in
    /// submission order, where `expected_busy_s` is the runtime capped
    /// at the walltime (the simulator kills at the limit).
    pub generated: Vec<(String, u32, f64)>,
    /// `(name, state)` of every job after the drain.
    pub job_states: Vec<(String, JobState)>,
    /// Core-seconds the simulator accounted for.
    pub used_core_seconds: f64,
    /// Metrics snapshot after the drain.
    pub metrics: SimMetrics,
}

/// The service stage: a seeded multi-tenant request stream served by
/// `xcbcd`, kept with its full input so the admission checker can
/// re-derive every accept/reject decision and the replay checker can
/// re-execute the journal single-threaded.
#[derive(Debug)]
pub struct SvcRecord {
    /// The generated request stream, in submission order.
    pub requests: Vec<SvcRequest>,
    /// The service configuration the stream was served under (includes
    /// any planted mutation).
    pub config: SvcConfig,
    /// What the service produced: responses, journal, counters.
    pub report: SvcReport,
}

/// Everything one soaked seed produced, handed to every
/// [`Invariant`](crate::Invariant).
#[derive(Debug)]
pub struct SoakOutcome {
    /// The seed that generated the scenario.
    pub seed: u64,
    /// Whether fault injection was enabled.
    pub faults: bool,
    /// The fleet deployment report (per-site traces, node DBs).
    pub fleet: FleetReport,
    /// Telemetry rolled up from the fleet report (per-site gmetads plus
    /// the meta-gmetad).
    pub telemetry: FleetTelemetry,
    /// The shared solve cache after the whole scenario ran.
    pub cache: Arc<SolveCache>,
    /// Recorded depsolve inputs for the coherence checker.
    pub solve_probes: Vec<SolveProbe>,
    /// Executed XNIT update transactions with DB snapshots.
    pub transactions: Vec<TxRecord>,
    /// The scheduler workload outcome.
    pub sched: SchedOutcome,
    /// The checkpoint/resume equivalence stage.
    pub resume: ResumeOutcome,
    /// The rolling-campaign stage.
    pub campaign: CampaignRecord,
    /// The elastic-membership stage.
    pub elastic: ElasticRecord,
    /// The generated-workload stage.
    pub workload: WorkloadRecord,
    /// The service stage.
    pub svc: SvcRecord,
    /// EVR strings harvested from the scenario (generated edge cases
    /// plus versions seen in deployed node databases).
    pub evr_samples: Vec<String>,
}
