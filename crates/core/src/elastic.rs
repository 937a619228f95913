//! Dynamic fleet membership: elastic self-scaling sites, cloud-burst
//! overlays, and a power-aware autoscaler.
//!
//! This module turns the [`Fleet`](crate::fleet::Fleet) idea — a batch of
//! sites constructed, deployed once, and reported on — into a *live
//! membership engine* on the shared simulation clock:
//!
//! * [`FleetMembership`] records every site/node join, drain, leave, and
//!   re-join as a [`MEMBERSHIP_TRACE_SOURCE`] event, so `xcbc mon` can
//!   show who was in the fleet when.
//! * [`Autoscaler`] watches metrics the fleet already exports — the
//!   scheduler's queue depth and per-node busy/idle state, the same
//!   numbers the Ganglia rollups aggregate — and decides power
//!   transitions with hysteresis so a one-tick blip never flaps nodes.
//!   Decisions are a *pure function* of the sampled metrics
//!   ([`Autoscaler::replay`]), which is what lets the soak harness audit
//!   a recorded run after the fact.
//! * [`PowerSequencer`] charges Limulus-style
//!   power-up latency on the clock: a scaled-up node boots for
//!   `boot_s` before the scheduler may place work on it, and every
//!   transition lands in the `cluster.power` trace.
//! * **Burst sites** join a *running* fleet mid-simulation: their XNIT
//!   overlay is applied on arrival through the fleet-shared
//!   [`SolveCache`], in a worker pool whose results merge in site order
//!   so the merged trace is byte-identical at any thread count.
//!
//! Fault handling mirrors [`campaign`](crate::campaign): an
//! `elastic.scale-up` fault aborts the engine *between* ticks — before
//! any tick work or simulator advancement — with an
//! [`ElasticCheckpoint`] plus the trace-so-far, so a resumed run replays
//! the remaining ticks byte-identically; [`run_elastic`] resumes from
//! each abort's checkpoint itself unless the caller's `on_abort` answers
//! [`ControlFlow::Break`]. An `elastic.burst-join` fault fails that
//! site's join; the fleet continues without it.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use xcbc_cluster::PowerSequencer;
use xcbc_fault::{ElasticCheckpoint, FaultPlan, InjectionPoint, Mutation, RecordError};
use xcbc_rpm::RpmDb;
use xcbc_sched::{JobRequest, ResourceManager};
use xcbc_sim::{events_to_jsonl, pool, SimDuration, SimTime, TraceEvent};
use xcbc_yum::{Fnv64, SolveCache};

use crate::deploy::deploy_xnit_overlay_with;
use crate::xnit::XnitSetupMethod;

/// Trace source for autoscaler decisions and queue/capacity counters.
pub const ELASTIC_TRACE_SOURCE: &str = "elastic";

/// Trace source for membership events (join / drain / leave / rejoin).
/// Owned by the telemetry layer so `xcbc mon` treats joins as
/// heartbeats (see `xcbc_cluster::telemetry`).
pub use xcbc_cluster::MEMBERSHIP_TRACE_SOURCE;

/// Lifecycle state of one fleet member (a compute node or a burst site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the fleet and eligible for work.
    Active,
    /// Being drained ahead of a scale-down; no new work placed.
    Draining,
    /// Out of the fleet. A later join is recorded as a re-join.
    Left,
}

/// The live membership ledger. State transitions return the
/// [`MEMBERSHIP_TRACE_SOURCE`] event describing them; the caller pushes
/// it onto the run's trace so membership history and resume suffixes
/// stay byte-stable.
#[derive(Debug, Clone, Default)]
pub struct FleetMembership {
    members: BTreeMap<String, MemberState>,
}

impl FleetMembership {
    /// An empty ledger.
    pub fn new() -> FleetMembership {
        FleetMembership::default()
    }

    /// Record `name` joining (or re-joining) the fleet at `t`. `kind` is
    /// a label for the member class (`"node"`, `"burst-site"`, ...).
    pub fn join(&mut self, t: impl Into<SimTime>, name: &str, kind: &str) -> TraceEvent {
        let verb = match self.members.get(name) {
            Some(MemberState::Left) => "rejoin",
            _ => "join",
        };
        self.members.insert(name.to_string(), MemberState::Active);
        TraceEvent::mark(t, MEMBERSHIP_TRACE_SOURCE, format!("{verb} {name}"))
            .with_field("kind", kind)
    }

    /// Record `name` starting its drain at `t`.
    pub fn drain(&mut self, t: impl Into<SimTime>, name: &str, kind: &str) -> TraceEvent {
        self.members.insert(name.to_string(), MemberState::Draining);
        TraceEvent::mark(t, MEMBERSHIP_TRACE_SOURCE, format!("drain {name}"))
            .with_field("kind", kind)
    }

    /// Record `name` leaving the fleet at `t`.
    pub fn leave(&mut self, t: impl Into<SimTime>, name: &str, kind: &str) -> TraceEvent {
        self.members.insert(name.to_string(), MemberState::Left);
        TraceEvent::mark(t, MEMBERSHIP_TRACE_SOURCE, format!("leave {name}"))
            .with_field("kind", kind)
    }

    /// Current state of a member, if it was ever seen.
    pub fn state(&self, name: &str) -> Option<MemberState> {
        self.members.get(name).copied()
    }

    /// Is `name` currently active?
    pub fn is_active(&self, name: &str) -> bool {
        self.state(name) == Some(MemberState::Active)
    }

    /// All members ever seen, with their current state, in name order.
    pub fn members(&self) -> impl Iterator<Item = (&str, MemberState)> {
        self.members.iter().map(|(n, s)| (n.as_str(), *s))
    }

    /// Number of members ever seen.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no member was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// What the autoscaler decided after one tick's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change.
    Hold,
    /// Power on this many additional nodes.
    Up(usize),
    /// Drain and power off this many nodes.
    Down(usize),
}

impl ScaleDecision {
    /// Short render for tick logs (`hold`, `up 2`, `down 1`).
    pub fn render(&self) -> String {
        match self {
            ScaleDecision::Hold => "hold".to_string(),
            ScaleDecision::Up(n) => format!("up {n}"),
            ScaleDecision::Down(n) => format!("down {n}"),
        }
    }
}

/// The autoscaler's fixed shape: fleet size bounds, hysteresis streaks,
/// and step size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalerPolicy {
    /// The fleet never shrinks below this many schedulable nodes.
    pub min_nodes: usize,
    /// The fleet never grows beyond this many provisioned nodes.
    pub max_nodes: usize,
    /// Consecutive ticks of queue pressure required before a scale-up.
    pub up_streak: usize,
    /// Consecutive idle ticks required before a scale-down.
    pub down_streak: usize,
    /// Nodes added or removed per decision.
    pub step: usize,
}

/// One tick's worth of the metrics the autoscaler watches: scheduler
/// queue depth plus the busy/idle rollup the telemetry layer exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSample {
    /// Jobs queued (not held) and waiting for capacity.
    pub queue_depth: usize,
    /// Schedulable nodes currently running work.
    pub busy_nodes: usize,
    /// Schedulable nodes (online, not retired).
    pub capacity: usize,
    /// Nodes powered on but still booting (not yet schedulable).
    pub booting: usize,
}

/// Hysteresis-damped scaling decisions from sim-clock metrics only.
///
/// The decision stream is a pure function of the policy and the sample
/// stream: [`Autoscaler::replay`] recomputes it, which the soak
/// harness uses to prove a recorded run never sat on demand it was
/// obliged to serve.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    policy: ScalerPolicy,
    pressure_run: usize,
    idle_run: usize,
    pending: ScaleDecision,
}

impl Autoscaler {
    /// A fresh autoscaler with zeroed streaks and no pending decision.
    pub fn new(policy: ScalerPolicy) -> Autoscaler {
        Autoscaler {
            policy,
            pressure_run: 0,
            idle_run: 0,
            pending: ScaleDecision::Hold,
        }
    }

    /// The policy this scaler runs.
    pub fn policy(&self) -> ScalerPolicy {
        self.policy
    }

    /// Feed one tick's metrics; returns (and stores as pending) the
    /// decision, which the engine executes at the *next* tick start.
    pub fn observe(&mut self, sample: MetricSample) -> ScaleDecision {
        let d = decide(
            &self.policy,
            &mut self.pressure_run,
            &mut self.idle_run,
            sample,
        );
        self.pending = d;
        d
    }

    /// The decision waiting to execute at the next tick start.
    pub fn pending(&self) -> ScaleDecision {
        self.pending
    }

    /// Take the pending decision, leaving [`ScaleDecision::Hold`].
    pub fn take_pending(&mut self) -> ScaleDecision {
        std::mem::replace(&mut self.pending, ScaleDecision::Hold)
    }

    fn clear_pending(&mut self) {
        self.pending = ScaleDecision::Hold;
    }

    /// Recompute the decision stream for a recorded sample stream —
    /// the audit the `elastic converges` soak invariant runs.
    pub fn replay(
        policy: ScalerPolicy,
        samples: impl IntoIterator<Item = MetricSample>,
    ) -> Vec<ScaleDecision> {
        let mut s = Autoscaler::new(policy);
        samples.into_iter().map(|x| s.observe(x)).collect()
    }
}

/// The decision function proper. Queue pressure must persist for
/// `up_streak` ticks before nodes power on; the fleet must idle for
/// `down_streak` ticks before nodes power off. A fully-busy, empty-queue
/// fleet resets both streaks (steady state).
fn decide(
    p: &ScalerPolicy,
    pressure_run: &mut usize,
    idle_run: &mut usize,
    s: MetricSample,
) -> ScaleDecision {
    let provisioned = s.capacity + s.booting;
    if s.queue_depth > 0 {
        *idle_run = 0;
        *pressure_run += 1;
        if *pressure_run >= p.up_streak && provisioned < p.max_nodes {
            *pressure_run = 0;
            return ScaleDecision::Up(p.step.min(p.max_nodes - provisioned));
        }
    } else if s.busy_nodes < s.capacity {
        *pressure_run = 0;
        *idle_run += 1;
        if *idle_run >= p.down_streak && provisioned > p.min_nodes {
            *idle_run = 0;
            let idle = s.capacity - s.busy_nodes;
            let room = provisioned - p.min_nodes;
            return ScaleDecision::Down(p.step.min(idle).min(room));
        }
    } else {
        *pressure_run = 0;
        *idle_run = 0;
    }
    ScaleDecision::Hold
}

/// A cloud-burst site that joins the running fleet at `join_tick`,
/// getting the XNIT overlay applied on arrival, and optionally leaves
/// again at `leave_tick`.
#[derive(Debug, Clone)]
pub struct BurstSite {
    /// Fleet-unique site name.
    pub name: String,
    /// Tick at whose start the site joins.
    pub join_tick: usize,
    /// Tick at whose start the site leaves, if it ever does.
    pub leave_tick: Option<usize>,
    /// XNIT setup method used for the arrival overlay.
    pub method: XnitSetupMethod,
    /// The site's pre-existing per-node package databases.
    pub existing: BTreeMap<String, RpmDb>,
}

impl BurstSite {
    /// A burst site that joins at `join_tick` and stays.
    pub fn new(
        name: &str,
        join_tick: usize,
        existing: BTreeMap<String, RpmDb>,
        method: XnitSetupMethod,
    ) -> BurstSite {
        BurstSite {
            name: name.to_string(),
            join_tick,
            leave_tick: None,
            method,
            existing,
        }
    }

    /// Schedule the site to leave at `tick`.
    pub fn leaving_at(mut self, tick: usize) -> BurstSite {
        self.leave_tick = Some(tick);
        self
    }
}

/// Everything that *happens to* the fleet over the run: the bursty
/// workload and the burst sites with their arrival/departure schedule.
#[derive(Debug, Clone, Default)]
pub struct ElasticWorld {
    /// `(tick, job)` — submitted when that tick starts, in listed order.
    pub workload: Vec<(usize, JobRequest)>,
    /// Sites joining (and possibly leaving) mid-run.
    pub burst_sites: Vec<BurstSite>,
}

/// Engine shape and safety knobs.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Fleet floor: the always-on node count the run starts with.
    pub min_nodes: usize,
    /// Fleet ceiling: the autoscaler never provisions beyond this.
    pub max_nodes: usize,
    /// Length of one autoscaler tick in sim seconds.
    pub tick_s: f64,
    /// Workload horizon in ticks; after it the engine settles.
    pub ticks: usize,
    /// Consecutive pressure ticks before a scale-up.
    pub up_streak: usize,
    /// Consecutive idle ticks before a scale-down.
    pub down_streak: usize,
    /// Nodes per scale decision.
    pub step: usize,
    /// Boot latency charged on the clock for each powered-on node.
    pub boot_s: f64,
    /// Grace window a draining node gets before leftovers are requeued.
    /// Must not exceed `tick_s`.
    pub drain_grace_s: f64,
    /// Post-horizon ticks allowed for the fleet to drain and shrink
    /// back to the floor before the engine gives up.
    pub max_settle_ticks: usize,
    /// Worker threads for burst-site overlay deploys.
    pub threads: usize,
    /// Soak-harness mutation hook; `None` in production.
    pub mutation: Option<Mutation>,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            min_nodes: 2,
            max_nodes: 8,
            tick_s: 600.0,
            ticks: 24,
            up_streak: 2,
            down_streak: 3,
            step: 2,
            boot_s: 120.0,
            drain_grace_s: 300.0,
            max_settle_ticks: 200,
            threads: 1,
            mutation: None,
        }
    }
}

impl ElasticConfig {
    /// The scaling policy slice of the config.
    pub fn policy(&self) -> ScalerPolicy {
        ScalerPolicy {
            min_nodes: self.min_nodes,
            max_nodes: self.max_nodes,
            up_streak: self.up_streak,
            down_streak: self.down_streak,
            step: self.step,
        }
    }
}

/// Caller-owned live state. Like the campaign's scheduler and package
/// databases, [`run_elastic`] carries it across every abort it resumes,
/// so each resumed segment continues from exactly where the abort left
/// the fleet; only the [`ElasticCheckpoint`] round-trips through text.
#[derive(Debug, Clone)]
pub struct ElasticState {
    /// Per-node power control (boot latency on the clock).
    pub seq: PowerSequencer,
    /// The hysteresis-damped decision maker, including its pending
    /// decision and streaks.
    pub scaler: Autoscaler,
    /// The membership ledger.
    pub membership: FleetMembership,
    /// Burst sites that joined, with their post-overlay node databases.
    pub joined: BTreeMap<String, BTreeMap<String, RpmDb>>,
    /// Powered-on nodes whose boot has not completed: `(ready, index)`.
    pub boots_in_flight: Vec<(SimTime, usize)>,
}

impl ElasticState {
    /// Fresh state for a fleet starting at `config.min_nodes` nodes,
    /// all already powered (the day-zero fleet was racked and booted).
    pub fn new(config: &ElasticConfig) -> ElasticState {
        ElasticState {
            seq: PowerSequencer::powered(config.min_nodes, config.boot_s),
            scaler: Autoscaler::new(config.policy()),
            membership: FleetMembership::new(),
            joined: BTreeMap::new(),
            boots_in_flight: Vec::new(),
        }
    }
}

/// One tick's record: the metrics sampled at its end, the decision they
/// produced, and the power picture. The stream is all an auditor needs
/// to recompute the decision stream ([`Autoscaler::replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickStat {
    /// Tick index (monotone across resumes).
    pub tick: usize,
    /// Sim-seconds at the tick's start.
    pub t_ms: u64,
    /// Metrics sampled at the tick's end.
    pub sample: MetricSample,
    /// Decision derived from `sample` (executes next tick).
    pub decision: ScaleDecision,
    /// Nodes powered (on or booting) at sample time.
    pub powered: usize,
}

/// How the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticVerdict {
    /// Every submitted job was served and the fleet drained back down.
    Satisfied,
    /// Demand was still unserved when the engine ran out of room or
    /// settle horizon; `queued` jobs were waiting.
    AtMaxSize {
        /// Jobs still queued at the end.
        queued: usize,
    },
}

/// Full result of an elastic run. After resumes, `trace`, the counts and
/// the burst lists cover the whole run, and the tick log the last
/// segment (each abort hands `on_abort` the ticks before it).
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Per-tick log for the ticks the last segment executed.
    pub ticks: Vec<TickStat>,
    /// How the run ended.
    pub verdict: ElasticVerdict,
    /// Elastic/membership/power trace events of every segment in order,
    /// equal to the trace an uninterrupted run emits.
    pub trace: Vec<TraceEvent>,
    /// The policy the decisions were made under, for replay audits.
    pub policy: ScalerPolicy,
    /// Nodes powered on by scale-ups.
    pub scale_ups: usize,
    /// Nodes drained, retired, and powered off by scale-downs.
    pub scale_downs: usize,
    /// Jobs requeued losslessly off scale-down drains.
    pub requeued_jobs: usize,
    /// Burst sites that joined, in join order.
    pub burst_joined: Vec<String>,
    /// `(site, reason)` for burst sites whose join failed.
    pub burst_failed: Vec<(String, String)>,
    /// Largest schedulable-node count observed.
    pub peak_nodes: usize,
    /// Schedulable-node count at the end of the run.
    pub final_nodes: usize,
}

impl ElasticReport {
    /// The elastic trace as byte-stable JSONL.
    pub fn trace_jsonl(&self) -> String {
        events_to_jsonl(&self.trace)
    }

    /// Human summary: one line per tick plus the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.ticks {
            out.push_str(&format!(
                "tick {:>3} t={:>7}s queue={:<3} busy={}/{} booting={} powered={} -> {}\n",
                t.tick,
                t.t_ms / 1000,
                t.sample.queue_depth,
                t.sample.busy_nodes,
                t.sample.capacity,
                t.sample.booting,
                t.powered,
                t.decision.render(),
            ));
        }
        for name in &self.burst_joined {
            out.push_str(&format!("burst site joined: {name}\n"));
        }
        for (name, why) in &self.burst_failed {
            out.push_str(&format!("burst site FAILED to join: {name}: {why}\n"));
        }
        out.push_str(&format!(
            "elastic run: {} powered on, {} retired, {} jobs requeued, peak {} nodes, final {}\n",
            self.scale_ups, self.scale_downs, self.requeued_jobs, self.peak_nodes, self.final_nodes,
        ));
        match self.verdict {
            ElasticVerdict::Satisfied => out.push_str("verdict: demand satisfied\n"),
            ElasticVerdict::AtMaxSize { queued } => {
                out.push_str(&format!("verdict: AT MAX SIZE with {queued} jobs queued\n"))
            }
        }
        out
    }
}

/// One elastic segment cut off by an `elastic.scale-up` fault between
/// ticks. No tick-`tick` work happened and the simulator did not
/// advance, so a resume from `checkpoint` replays the remainder exactly.
#[derive(Debug)]
pub struct ElasticAbort {
    /// The tick that was about to start.
    pub tick: usize,
    /// Progress checkpoint to resume from.
    pub checkpoint: ElasticCheckpoint,
    /// Trace events this segment emitted before the abort.
    pub trace: Vec<TraceEvent>,
    /// Tick stats this segment recorded before the abort — a piece of
    /// the decision stream, so auditors can replay the whole run's
    /// samples through a fresh autoscaler.
    pub ticks: Vec<TickStat>,
}

/// Why an elastic run could not produce an [`ElasticReport`].
#[derive(Debug)]
pub enum ElasticError {
    /// An abort that `on_abort` answered with [`ControlFlow::Break`], or
    /// the last one once the resume bound ran out.
    Aborted(ElasticAbort),
    /// The resume checkpoint was recorded for a different run.
    CheckpointMismatch {
        /// Digest of this (world, config).
        expected: String,
        /// Digest found in the checkpoint.
        found: String,
    },
    /// An abort's checkpoint did not read back from its text form.
    CheckpointText(RecordError),
    /// Nonsensical shape (zero floor, ceiling below floor, job wider
    /// than the floor, grace longer than a tick...).
    BadConfig(String),
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::Aborted(ElasticAbort { tick, .. }) => {
                write!(f, "elastic run aborted before tick {tick} (scale-up fault)")
            }
            ElasticError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different elastic run (expected digest {expected}, found {found})"
            ),
            ElasticError::CheckpointText(e) => write!(f, "bad checkpoint: {e}"),
            ElasticError::BadConfig(msg) => write!(f, "bad elastic config: {msg}"),
        }
    }
}

impl std::error::Error for ElasticError {}

/// Digest binding a checkpoint to one elastic run: fleet bounds, tick
/// shape, workload, and burst schedule.
pub fn elastic_digest(world: &ElasticWorld, config: &ElasticConfig) -> String {
    let mut h = Fnv64::new();
    h.write_u64(config.min_nodes as u64)
        .write_u64(config.max_nodes as u64)
        .write_u64(config.ticks as u64)
        .write_u64(config.step as u64)
        .write_u64(config.up_streak as u64)
        .write_u64(config.down_streak as u64)
        .write_u64(config.tick_s.to_bits())
        .write_u64(config.boot_s.to_bits())
        .write_u64(config.drain_grace_s.to_bits());
    for (tick, job) in &world.workload {
        h.write_u64(*tick as u64)
            .write_str(&job.name)
            .write_u64(job.nodes as u64)
            .write_u64(job.ppn as u64)
            .write_u64(job.walltime_s.to_bits())
            .write_u64(job.runtime_s.to_bits());
    }
    for b in &world.burst_sites {
        h.write_str(&b.name).write_u64(b.join_tick as u64);
        h.write_u64(match b.leave_tick {
            Some(t) => t as u64 + 1,
            None => 0,
        });
    }
    format!("{:016x}", h.finish())
}

/// The name node `i` carries in the membership ledger — the stock
/// Rocks compute naming, so the telemetry pipeline maps the power
/// sequencer's per-node boot spans onto the same hosts.
pub fn node_name(i: usize) -> String {
    format!("compute-0-{i}")
}

fn validate(
    world: &ElasticWorld,
    state: &ElasticState,
    rm: &dyn ResourceManager,
    config: &ElasticConfig,
) -> Result<(), ElasticError> {
    if config.min_nodes == 0 {
        return Err(ElasticError::BadConfig("min_nodes must be >= 1".into()));
    }
    if config.max_nodes < config.min_nodes {
        return Err(ElasticError::BadConfig(format!(
            "max_nodes {} below min_nodes {}",
            config.max_nodes, config.min_nodes
        )));
    }
    if config.tick_s <= 0.0 {
        return Err(ElasticError::BadConfig("tick_s must be positive".into()));
    }
    if config.drain_grace_s > config.tick_s {
        return Err(ElasticError::BadConfig(format!(
            "drain_grace_s {} exceeds tick_s {}",
            config.drain_grace_s, config.tick_s
        )));
    }
    if config.step == 0 || config.up_streak == 0 || config.down_streak == 0 {
        return Err(ElasticError::BadConfig(
            "step, up_streak, and down_streak must be >= 1".into(),
        ));
    }
    for (_, job) in &world.workload {
        if job.nodes as usize > config.min_nodes {
            return Err(ElasticError::BadConfig(format!(
                "job '{}' needs {} nodes but the floor is {}: the fleet could scale below its demand",
                job.name, job.nodes, config.min_nodes
            )));
        }
    }
    for b in &world.burst_sites {
        if let Some(leave) = b.leave_tick {
            if leave <= b.join_tick {
                return Err(ElasticError::BadConfig(format!(
                    "burst site '{}' leaves at tick {} but joins at tick {}",
                    b.name, leave, b.join_tick
                )));
            }
        }
    }
    // Every sequencer slot is either a scheduler node or a boot still in
    // flight (a resume can land mid-boot).
    if rm.sim().node_count() + state.boots_in_flight.len() != state.seq.len() {
        return Err(ElasticError::BadConfig(format!(
            "resource manager has {} nodes (+{} booting) but the power sequencer tracks {}",
            rm.sim().node_count(),
            state.boots_in_flight.len(),
            state.seq.len()
        )));
    }
    Ok(())
}

/// Indices of schedulable nodes: online and never retired.
fn in_service(rm: &dyn ResourceManager) -> Vec<usize> {
    (0..rm.sim().node_count())
        .filter(|&i| !rm.sim().is_offline(i))
        .collect()
}

fn busy_count(rm: &dyn ResourceManager) -> usize {
    in_service(rm).iter().filter(|&&i| !rm.node_idle(i)).count()
}

/// Run the elastic membership engine against a live fleet to its end,
/// resuming after each abort.
///
/// * `state` — caller-owned live state ([`ElasticState::new`]); every
///   resumed segment continues the same fleet.
/// * `rm` — the live scheduler frontend, constructed with
///   `config.min_nodes` nodes; its simulator keeps running jobs
///   through every scale event.
/// * `faults` — `elastic.scale-up` aborts between ticks,
///   `elastic.burst-join` fails a site's join.
/// * `on_abort` — sees each abort. [`ControlFlow::Continue`] resumes
///   from the abort's checkpoint, read back from its text form;
///   [`ControlFlow::Break`] returns the abort as [`ElasticError::Aborted`].
///
/// The run lasts at most `config.ticks + config.max_settle_ticks` ticks
/// and a resume completes at least one, so one attempt more than that
/// always suffices; past it the last abort is returned.
pub fn run_elastic(
    world: &ElasticWorld,
    state: &mut ElasticState,
    rm: &mut dyn ResourceManager,
    faults: &FaultPlan,
    cache: &Arc<SolveCache>,
    config: &ElasticConfig,
    mut on_abort: impl FnMut(&ElasticAbort) -> ControlFlow<()>,
) -> Result<ElasticReport, ElasticError> {
    let mut progress = Progress::default();
    let mut trace = Vec::new();
    let mut attempts = 0;
    loop {
        attempts += 1;
        match run_segment(world, state, rm, faults, cache, config, &mut progress) {
            Ok(mut report) => {
                trace.append(&mut report.trace);
                report.trace = trace;
                return Ok(report);
            }
            Err(ElasticError::Aborted(abort)) => {
                if attempts > config.ticks + config.max_settle_ticks || on_abort(&abort).is_break()
                {
                    return Err(ElasticError::Aborted(abort));
                }
                let reread = ElasticCheckpoint::parse(&abort.checkpoint.to_text());
                progress.resume_from = Some(reread.map_err(ElasticError::CheckpointText)?);
                trace.extend(abort.trace);
            }
            Err(e) => return Err(e),
        }
    }
}

/// How far an elastic run has got across its segments: the checkpoint
/// to resume from (none for a fresh run), and the counts and burst
/// lists so far.
#[derive(Debug, Default)]
struct Progress {
    resume_from: Option<ElasticCheckpoint>,
    scale_ups: usize,
    scale_downs: usize,
    requeued_jobs: usize,
    burst_joined: Vec<String>,
    burst_failed: Vec<(String, String)>,
    peak_nodes: usize,
}

/// Run one elastic segment: from the start, or from
/// `progress.resume_from`, a checkpoint of an earlier abort. Completed
/// ticks are skipped and the abort oracle is not re-consulted for the
/// first resumed tick (the fault that aborted the last segment already
/// fired). What the segment does is added to `progress`, whose counts
/// and burst lists a completed segment's report takes.
fn run_segment(
    world: &ElasticWorld,
    state: &mut ElasticState,
    rm: &mut dyn ResourceManager,
    faults: &FaultPlan,
    cache: &Arc<SolveCache>,
    config: &ElasticConfig,
    progress: &mut Progress,
) -> Result<ElasticReport, ElasticError> {
    validate(world, state, rm, config)?;
    let digest = elastic_digest(world, config);
    let resume_from = progress.resume_from.as_ref();
    let mut checkpoint = match resume_from {
        Some(cp) => {
            if cp.digest() != digest {
                return Err(ElasticError::CheckpointMismatch {
                    expected: digest,
                    found: cp.digest().to_string(),
                });
            }
            cp.clone()
        }
        None => ElasticCheckpoint::new(&digest),
    };
    let start_tick = checkpoint.ticks_completed();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut ticks_out: Vec<TickStat> = Vec::new();
    let mut injector = faults.injector();
    progress.peak_nodes = progress.peak_nodes.max(in_service(rm).len());

    // Day-zero membership: the floor nodes join at the start of a fresh
    // run. A resumed run's ledger already has them.
    if resume_from.is_none() {
        let t0 = SimTime::from_secs_f64(rm.sim().now());
        for i in 0..config.min_nodes {
            trace.push(state.membership.join(t0, &node_name(i), "node"));
        }
    }

    let horizon = config.ticks + config.max_settle_ticks;
    let mut k = start_tick;
    loop {
        if k >= config.ticks {
            let quiet = rm.queue_depth() == 0
                && busy_count(rm) == 0
                && state.boots_in_flight.is_empty()
                && state.scaler.pending() == ScaleDecision::Hold;
            if (quiet && in_service(rm).len() <= config.min_nodes) || k >= horizon {
                break;
            }
        }

        // Between-ticks abort oracle: consulted before ANY tick-k work
        // or simulator advancement so the resumed run's trace is the
        // exact suffix of the uninterrupted one. Skipped for the first
        // resumed tick: the fault that aborted us already "happened".
        let resuming_this_tick = resume_from.is_some() && k == start_tick;
        if !resuming_this_tick
            && injector
                .should_fault(InjectionPoint::ScaleUp, &format!("tick-{k}"))
                .is_some()
        {
            return Err(ElasticError::Aborted(ElasticAbort {
                tick: k,
                checkpoint,
                trace,
                ticks: ticks_out,
            }));
        }

        let t0 = rm.sim().now();
        let t0_sim = SimTime::from_secs_f64(t0);

        // 1. Booted nodes enter service: the scheduler only sees a node
        //    once its boot latency has elapsed on the clock.
        while let Some(&(ready, idx)) = state.boots_in_flight.first() {
            if ready > t0_sim {
                break;
            }
            state.boots_in_flight.remove(0);
            let new_idx = rm.add_node();
            debug_assert_eq!(new_idx, idx, "scheduler and sequencer indices diverged");
            trace.push(state.membership.join(t0_sim, &node_name(idx), "node"));
        }

        // 2. Execute the decision made from the previous tick's metrics.
        match state.scaler.take_pending() {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => {
                trace.push(
                    TraceEvent::mark(t0_sim, ELASTIC_TRACE_SOURCE, format!("scale-up {n} nodes"))
                        .with_field("nodes", n as u64),
                );
                for _ in 0..n {
                    let idx = state.seq.len();
                    state.seq.grow(1);
                    let ready = state.seq.power_on(t0_sim, idx);
                    state.boots_in_flight.push((ready, idx));
                }
                trace.extend(state.seq.take_trace());
                progress.scale_ups += n;
            }
            ScaleDecision::Down(n) => {
                let active = in_service(rm);
                let n = n.min(active.len().saturating_sub(config.min_nodes));
                if n > 0 {
                    trace.push(
                        TraceEvent::mark(
                            t0_sim,
                            ELASTIC_TRACE_SOURCE,
                            format!("scale-down {n} nodes"),
                        )
                        .with_field("nodes", n as u64),
                    );
                    let victims: Vec<usize> = active[active.len() - n..].to_vec();
                    for &idx in &victims {
                        trace.push(state.membership.drain(t0_sim, &node_name(idx), "node"));
                        rm.offline_node(idx);
                    }
                    rm.advance_to(t0 + config.drain_grace_s);
                    let td_sim = SimTime::from_secs_f64(rm.sim().now());
                    for &idx in &victims {
                        if !rm.node_idle(idx) {
                            let evicted = rm.requeue_node(idx);
                            progress.requeued_jobs += evicted.len();
                            if config.mutation == Some(Mutation::ElasticDropJob) {
                                for id in evicted {
                                    rm.sim_mut().kill(id);
                                }
                            }
                        }
                        let retired = rm.retire_node(idx);
                        debug_assert!(retired, "drained node must retire cleanly");
                        state.seq.power_off(td_sim, idx);
                        trace.push(state.membership.leave(td_sim, &node_name(idx), "node"));
                    }
                    trace.extend(state.seq.take_trace());
                    progress.scale_downs += n;
                }
            }
        }

        // 3. Burst departures scheduled for this tick.
        for b in &world.burst_sites {
            if b.leave_tick == Some(k) && state.membership.is_active(&b.name) {
                state.joined.remove(&b.name);
                trace.push(state.membership.leave(t0_sim, &b.name, "burst-site"));
            }
        }

        // 4. Burst arrivals: overlay applied on arrival through the
        //    fleet-shared solve cache, worker results merged in site
        //    order so the trace is thread-count invariant.
        let joiners: Vec<&BurstSite> = world
            .burst_sites
            .iter()
            .filter(|b| b.join_tick == k)
            .collect();
        let mut deploying: Vec<&BurstSite> = Vec::new();
        for b in joiners {
            if let Some(kind) = injector.should_fault(InjectionPoint::BurstJoin, &b.name) {
                trace.push(
                    TraceEvent::mark(
                        t0_sim,
                        ELASTIC_TRACE_SOURCE,
                        format!("burst-join-failed {}", b.name),
                    )
                    .with_field("error", kind.as_str()),
                );
                progress
                    .burst_failed
                    .push((b.name.clone(), kind.as_str().to_string()));
            } else {
                deploying.push(b);
            }
        }
        if !deploying.is_empty() {
            let results = pool::map(config.threads, &deploying, |b| {
                deploy_xnit_overlay_with(&b.existing, b.method, Some(Arc::clone(cache)))
            });
            let offset = SimDuration::from_secs_f64(t0);
            for (b, result) in deploying.iter().zip(results) {
                match result {
                    Ok(rep) => {
                        for ev in &rep.trace {
                            trace.push(ev.shifted(offset).with_field("site", b.name.as_str()));
                        }
                        trace.push(state.membership.join(t0_sim, &b.name, "burst-site"));
                        state.joined.insert(b.name.clone(), rep.node_dbs);
                        progress.burst_joined.push(b.name.clone());
                    }
                    Err(e) => {
                        let why = format!("solve: {e}");
                        trace.push(
                            TraceEvent::mark(
                                t0_sim,
                                ELASTIC_TRACE_SOURCE,
                                format!("burst-join-failed {}", b.name),
                            )
                            .with_field("error", why.as_str()),
                        );
                        progress.burst_failed.push((b.name.clone(), why));
                    }
                }
            }
        }

        // 5. This tick's workload lands on the queue.
        for (tick, job) in &world.workload {
            if *tick == k {
                rm.submit(job.clone());
            }
        }

        // 6. Advance the tick on the clock, then sample the metrics the
        //    fleet already exports: queue depth and the busy/idle rollup.
        rm.advance_to(t0 + config.tick_s);
        let te_sim = SimTime::from_secs_f64(rm.sim().now());
        let capacity = in_service(rm).len();
        progress.peak_nodes = progress.peak_nodes.max(capacity);
        let sample = MetricSample {
            queue_depth: rm.queue_depth(),
            busy_nodes: busy_count(rm),
            capacity,
            booting: state.boots_in_flight.len(),
        };
        let mut decided = state.scaler.observe(sample);
        if config.mutation == Some(Mutation::ElasticSkipScaleUp)
            && matches!(decided, ScaleDecision::Up(_))
        {
            state.scaler.clear_pending();
            decided = ScaleDecision::Hold;
        }
        trace.push(TraceEvent::counter(
            te_sim,
            ELASTIC_TRACE_SOURCE,
            "queue-depth",
            sample.queue_depth as u64,
        ));
        trace.push(TraceEvent::counter(
            te_sim,
            ELASTIC_TRACE_SOURCE,
            "nodes-active",
            capacity as u64,
        ));
        ticks_out.push(TickStat {
            tick: k,
            t_ms: (t0 * 1000.0).round() as u64,
            sample,
            decision: decided,
            powered: state.seq.powered_count(),
        });
        checkpoint.mark_tick_completed(k);
        k += 1;
    }

    let queued = rm.queue_depth();
    let final_nodes = in_service(rm).len();
    let verdict = if queued == 0 && busy_count(rm) == 0 {
        ElasticVerdict::Satisfied
    } else {
        ElasticVerdict::AtMaxSize { queued }
    };
    let Progress {
        scale_ups,
        scale_downs,
        requeued_jobs,
        burst_joined,
        burst_failed,
        peak_nodes,
        ..
    } = std::mem::take(progress);
    Ok(ElasticReport {
        ticks: ticks_out,
        verdict,
        trace,
        policy: config.policy(),
        scale_ups,
        scale_downs,
        requeued_jobs,
        burst_joined,
        burst_failed,
        peak_nodes,
        final_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_sched::TorqueServer;

    /// `on_abort` for runs that must not be resumed.
    fn stop(_: &ElasticAbort) -> ControlFlow<()> {
        ControlFlow::Break(())
    }

    fn limulus_dbs(nodes: usize) -> BTreeMap<String, RpmDb> {
        (0..nodes)
            .map(|i| {
                (
                    format!("burst-n{i}"),
                    crate::deploy::limulus_factory_image(),
                )
            })
            .collect()
    }

    fn bursty_world(ticks: usize) -> ElasticWorld {
        // a burst of narrow jobs early, then silence: queue pressure
        // forces a scale-up, the idle tail forces the scale-down.
        let mut world = ElasticWorld::default();
        for i in 0..6 {
            world.workload.push((
                0,
                JobRequest::new(&format!("burst-{i}"), 1, 2, 900.0, 700.0),
            ));
        }
        let _ = ticks;
        world
    }

    fn config() -> ElasticConfig {
        ElasticConfig {
            min_nodes: 1,
            max_nodes: 4,
            tick_s: 300.0,
            ticks: 12,
            up_streak: 2,
            down_streak: 2,
            step: 1,
            boot_s: 60.0,
            drain_grace_s: 120.0,
            max_settle_ticks: 60,
            threads: 1,
            mutation: None,
        }
    }

    fn run_once(
        world: &ElasticWorld,
        faults: &FaultPlan,
        config: &ElasticConfig,
    ) -> (
        Result<ElasticReport, ElasticError>,
        ElasticState,
        TorqueServer,
    ) {
        let mut state = ElasticState::new(config);
        let mut rm = TorqueServer::with_maui("head", config.min_nodes, 2);
        let cache = Arc::new(SolveCache::new());
        let r = run_elastic(world, &mut state, &mut rm, faults, &cache, config, stop);
        (r, state, rm)
    }

    #[test]
    fn scales_up_on_pressure_and_back_down_when_idle() {
        let config = config();
        let (r, state, mut rm) = run_once(&bursty_world(12), &FaultPlan::new(1), &config);
        let report = r.unwrap();
        assert!(report.scale_ups > 0, "{}", report.render());
        assert!(report.scale_downs > 0, "{}", report.render());
        assert!(report.peak_nodes > config.min_nodes, "{}", report.render());
        assert_eq!(report.final_nodes, config.min_nodes, "{}", report.render());
        assert_eq!(report.verdict, ElasticVerdict::Satisfied);
        // every decision the report recorded is what the pure policy
        // replay derives from the recorded samples
        let replayed = Autoscaler::replay(report.policy, report.ticks.iter().map(|t| t.sample));
        let recorded: Vec<ScaleDecision> = report.ticks.iter().map(|t| t.decision).collect();
        assert_eq!(replayed, recorded);
        // no job was lost to the scale-down drains
        rm.drain();
        assert_eq!(rm.metrics().jobs_finished, 6);
        // power ledger agrees with the scheduler
        assert_eq!(state.seq.powered_count(), report.final_nodes);
        let active = state
            .membership
            .members()
            .filter(|(_, s)| *s == MemberState::Active)
            .count();
        assert_eq!(active, report.final_nodes);
    }

    #[test]
    fn generated_stream_drives_the_autoscaler() {
        let config = config();
        // A teaching-lab stream bucketed onto ticks. Width draws clamp
        // to the 1-node shape passed to the generator, so every job
        // stays satisfiable even after a full scale-down.
        let jobs = xcbc_sched::WorkloadSpec::teaching_lab().generate(11, 1, 2, 12);
        let n = jobs.len();
        // each arrival lands on the tick containing it, clamped to the
        // workload horizon
        let world = ElasticWorld {
            workload: jobs
                .into_iter()
                .map(|(t, req)| (((t / config.tick_s) as usize).min(config.ticks - 1), req))
                .collect(),
            ..ElasticWorld::default()
        };
        assert_eq!(world.workload.len(), n);
        assert!(world.workload.iter().all(|(tick, _)| *tick < config.ticks));
        let (r, _state, mut rm) = run_once(&world, &FaultPlan::new(3), &config);
        let report = r.unwrap();
        assert_eq!(
            report.verdict,
            ElasticVerdict::Satisfied,
            "{}",
            report.render()
        );
        rm.drain();
        assert_eq!(rm.metrics().jobs_finished, n, "no generated job lost");
    }

    #[test]
    fn membership_records_rejoin() {
        let mut m = FleetMembership::new();
        let j = m.join(0.0, "cloud-a", "burst-site");
        assert!(j.to_jsonl().contains("join cloud-a"));
        let l = m.leave(5.0, "cloud-a", "burst-site");
        assert!(l.to_jsonl().contains("leave cloud-a"));
        assert_eq!(m.state("cloud-a"), Some(MemberState::Left));
        let r = m.join(9.0, "cloud-a", "burst-site");
        assert!(r.to_jsonl().contains("rejoin cloud-a"), "{}", r.to_jsonl());
        assert!(m.is_active("cloud-a"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let policy = ScalerPolicy {
            min_nodes: 1,
            max_nodes: 8,
            up_streak: 2,
            down_streak: 2,
            step: 1,
        };
        // queue pressure alternates on/off every tick: neither streak
        // ever completes, so the scaler holds throughout.
        let samples = (0..10).map(|i| MetricSample {
            queue_depth: i % 2,
            busy_nodes: 1,
            capacity: 2,
            booting: 0,
        });
        let decisions = Autoscaler::replay(policy, samples);
        assert!(decisions.iter().all(|d| *d == ScaleDecision::Hold));
    }

    #[test]
    fn burst_sites_join_through_shared_cache_and_leave() {
        let mut world = bursty_world(12);
        world.burst_sites.push(
            BurstSite::new("cloud-a", 1, limulus_dbs(2), XnitSetupMethod::RepoRpm).leaving_at(6),
        );
        let (r, state, _) = run_once(&world, &FaultPlan::new(2), &config());
        let report = r.unwrap();
        assert_eq!(report.burst_joined, vec!["cloud-a".to_string()]);
        assert!(report.burst_failed.is_empty());
        // overlay ran on arrival: the joined dbs carry XNIT packages
        assert!(state.joined.is_empty(), "site left again");
        assert_eq!(state.membership.state("cloud-a"), Some(MemberState::Left));
        let jsonl = report.trace_jsonl();
        assert!(jsonl.contains("join cloud-a"), "{jsonl}");
        assert!(jsonl.contains("leave cloud-a"), "{jsonl}");
    }

    #[test]
    fn burst_join_fault_skips_the_site_without_aborting() {
        let mut world = bursty_world(12);
        world.burst_sites.push(BurstSite::new(
            "cloud-a",
            1,
            limulus_dbs(1),
            XnitSetupMethod::RepoRpm,
        ));
        let faults = FaultPlan::parse("seed=4; elastic.burst-join key=cloud-a").unwrap();
        let (r, state, _) = run_once(&world, &faults, &config());
        let report = r.unwrap();
        assert!(report.burst_joined.is_empty());
        assert_eq!(report.burst_failed.len(), 1);
        assert!(!state.membership.is_active("cloud-a"));
        assert_eq!(report.verdict, ElasticVerdict::Satisfied);
    }

    #[test]
    fn trace_identical_at_any_thread_count() {
        let mut world = bursty_world(12);
        for (i, tick) in [1usize, 1, 2].iter().enumerate() {
            world.burst_sites.push(BurstSite::new(
                &format!("cloud-{i}"),
                *tick,
                limulus_dbs(2),
                XnitSetupMethod::RepoRpm,
            ));
        }
        let mut traces = Vec::new();
        for threads in [1usize, 4] {
            let config = ElasticConfig {
                threads,
                ..config()
            };
            let (r, _, _) = run_once(&world, &FaultPlan::new(3), &config);
            traces.push(r.unwrap().trace_jsonl());
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn abort_and_resume_matches_uninterrupted_run() {
        let config = config();
        let world = bursty_world(12);
        let cache = Arc::new(SolveCache::new());

        // Uninterrupted baseline.
        let mut state_a = ElasticState::new(&config);
        let mut rm_a = TorqueServer::with_maui("head", config.min_nodes, 2);
        let full = run_elastic(
            &world,
            &mut state_a,
            &mut rm_a,
            &FaultPlan::new(11),
            &cache,
            &config,
            stop,
        )
        .unwrap();

        // Faulted run: power dies before tick 3. A Break hands the
        // abort back with the three completed ticks.
        let faults = FaultPlan::parse("seed=11; elastic.scale-up key=tick-3").unwrap();
        let mut state_b = ElasticState::new(&config);
        let mut rm_b = TorqueServer::with_maui("head", config.min_nodes, 2);
        let err = run_elastic(
            &world,
            &mut state_b,
            &mut rm_b,
            &faults,
            &cache,
            &config,
            stop,
        )
        .unwrap_err();
        let ElasticError::Aborted(abort) = err else {
            panic!("expected abort, got {err}");
        };
        assert_eq!(abort.tick, 3);
        assert_eq!(abort.checkpoint.ticks_completed(), 3);
        assert_eq!(abort.ticks.len(), 3);

        // The same run resumed from each abort's checkpoint.
        let mut state_b = ElasticState::new(&config);
        let mut rm_b = TorqueServer::with_maui("head", config.min_nodes, 2);
        let mut all_ticks = Vec::new();
        let resumed = run_elastic(
            &world,
            &mut state_b,
            &mut rm_b,
            &faults,
            &cache,
            &config,
            |abort| {
                all_ticks.extend_from_slice(&abort.ticks);
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert_eq!(resumed.verdict, full.verdict);

        // The stitched trace is byte-identical to the uninterrupted
        // trace, and the fleets converged identically.
        assert_eq!(resumed.trace_jsonl(), full.trace_jsonl());
        all_ticks.extend_from_slice(&resumed.ticks);
        assert_eq!(all_ticks, full.ticks);
        assert_eq!(resumed.final_nodes, full.final_nodes);
        assert_eq!(state_a.seq.powered_count(), state_b.seq.powered_count());
    }

    #[test]
    fn resume_rejects_foreign_checkpoint() {
        let config = config();
        let mut state = ElasticState::new(&config);
        let mut rm = TorqueServer::with_maui("head", config.min_nodes, 2);
        let cache = Arc::new(SolveCache::new());
        let foreign = ElasticCheckpoint::new("deadbeefdeadbeef");
        let err = run_segment(
            &bursty_world(12),
            &mut state,
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &config,
            &mut Progress {
                resume_from: Some(foreign),
                ..Progress::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ElasticError::CheckpointMismatch { .. }));
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let cache = Arc::new(SolveCache::new());
        let mut base = config();
        base.min_nodes = 1;
        // a job wider than the floor could starve forever after a
        // scale-down; the engine refuses it up front
        let mut world = ElasticWorld::default();
        world
            .workload
            .push((0, JobRequest::new("wide", 3, 2, 100.0, 50.0)));
        let mut state = ElasticState::new(&base);
        let mut rm = TorqueServer::with_maui("head", 1, 2);
        let err = run_elastic(
            &world,
            &mut state,
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &base,
            stop,
        )
        .unwrap_err();
        assert!(matches!(err, ElasticError::BadConfig(_)), "{err}");

        let mut bad = config();
        bad.max_nodes = 0;
        let mut state = ElasticState::new(&bad);
        let mut rm = TorqueServer::with_maui("head", 1, 2);
        let err = run_elastic(
            &ElasticWorld::default(),
            &mut state,
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &bad,
            stop,
        )
        .unwrap_err();
        assert!(matches!(err, ElasticError::BadConfig(_)));

        let mut bad = config();
        bad.drain_grace_s = bad.tick_s + 1.0;
        let mut state = ElasticState::new(&bad);
        let mut rm = TorqueServer::with_maui("head", 1, 2);
        let err = run_elastic(
            &ElasticWorld::default(),
            &mut state,
            &mut rm,
            &FaultPlan::new(0),
            &cache,
            &bad,
            stop,
        )
        .unwrap_err();
        assert!(matches!(err, ElasticError::BadConfig(_)));
    }

    #[test]
    fn drop_job_mutation_loses_jobs() {
        let mut config = config();
        config.mutation = Some(Mutation::ElasticDropJob);
        config.down_streak = 2;
        // a blocker pins the floor node, shorts force the scale-up, and
        // one long job lands on a scaled-up node — still running when
        // the idle scale-down drains it, so the drain must requeue
        // (here: drop) it
        let mut world = ElasticWorld::default();
        world
            .workload
            .push((0, JobRequest::new("blocker", 1, 2, 3000.0, 2500.0)));
        world
            .workload
            .push((0, JobRequest::new("long", 1, 2, 9000.0, 8500.0)));
        for i in 0..3 {
            world.workload.push((
                0,
                JobRequest::new(&format!("short-{i}"), 1, 2, 800.0, 700.0),
            ));
        }
        let (r, _, mut rm) = run_once(&world, &FaultPlan::new(6), &config);
        let report = r.unwrap();
        assert!(report.requeued_jobs > 0, "{}", report.render());
        rm.drain();
        use xcbc_sched::JobState;
        let served = rm
            .sim()
            .jobs()
            .filter(|j| matches!(j.state, JobState::Completed { .. }))
            .count();
        let lost = rm
            .sim()
            .jobs()
            .filter(|j| j.state == JobState::Cancelled)
            .count();
        assert!(
            served < 5 && lost > 0,
            "mutation should have lost the long job: {served} served, {lost} lost, report:\n{}",
            report.render()
        );
    }

    #[test]
    fn skip_scale_up_mutation_diverges_from_policy_replay() {
        let mut config = config();
        config.mutation = Some(Mutation::ElasticSkipScaleUp);
        let (r, _, _) = run_once(&bursty_world(12), &FaultPlan::new(7), &config);
        let report = r.unwrap();
        assert_eq!(report.scale_ups, 0);
        let replayed = Autoscaler::replay(report.policy, report.ticks.iter().map(|t| t.sample));
        let recorded: Vec<ScaleDecision> = report.ticks.iter().map(|t| t.decision).collect();
        assert_ne!(
            replayed, recorded,
            "the recorded decisions must betray the suppressed scale-up"
        );
    }
}
