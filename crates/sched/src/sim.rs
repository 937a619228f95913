//! The discrete-event cluster simulator.
//!
//! Time advances through the shared `xcbc-sim` event queue (submits
//! and job ends on one [`SimClock`] timebase); at every event the
//! active [`SchedPolicy`] is given a chance to start queued jobs.
//! Placement is node-granular: a job asking for `nodes × ppn` needs
//! `nodes` distinct nodes with `ppn` free cores each. Job lifecycle is
//! recorded as trace spans/marks in an internal event log, so
//! scheduler time is directly commensurable with boot and install time
//! elsewhere in the stack.

use crate::job::{Job, JobId, JobRequest, JobState};
use crate::policy::SchedPolicy;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use xcbc_sim::{EventQueue, SimClock, SimTime, TraceEvent};

/// Trace source tag for events this simulator emits.
const TRACE_SOURCE: &str = "sched";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Job end for one incarnation; a requeue bumps the incarnation so
    /// the stale end event of the interrupted run is ignored.
    End(JobId, u32),
    Submit(JobId),
    /// Scheduler wake-up (reservation boundaries).
    Wake,
}

/// A maintenance/advance reservation: the listed nodes accept no job
/// whose execution window would overlap `[start, end)` (Maui's
/// standing-reservation semantics for a maintenance window).
#[derive(Debug, Clone, PartialEq)]
pub struct Reservation {
    pub label: String,
    pub nodes: Vec<usize>,
    start: SimTime,
    end: SimTime,
}

impl Reservation {
    /// When the window opens.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// When the window closes.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Window start in seconds (compatibility accessor).
    pub fn start_s(&self) -> f64 {
        self.start.as_secs_f64()
    }

    /// Window end in seconds (compatibility accessor).
    pub fn end_s(&self) -> f64 {
        self.end.as_secs_f64()
    }

    fn blocks(&self, node: usize, job_start: f64, job_end: f64) -> bool {
        self.nodes.contains(&node) && job_start < self.end_s() && job_end > self.start_s()
    }
}

/// A queued job as the scheduling pass reads it: the id plus the
/// request fields that placement and the backfill test use, copied at
/// enqueue time so a pass scans the queue without a job-table lookup
/// per candidate. A request never changes after submission, so the
/// copy cannot go stale.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    id: JobId,
    nodes: u32,
    ppn: u32,
    walltime_s: f64,
}

impl QueueEntry {
    fn of(job: &Job) -> QueueEntry {
        QueueEntry {
            id: job.id,
            nodes: job.request.nodes,
            ppn: job.request.ppn,
            walltime_s: job.request.walltime_s,
        }
    }
}

/// The simulator.
#[derive(Debug)]
pub struct ClusterSim {
    /// Free cores per node.
    free: Vec<u32>,
    /// Cores per node (uniform).
    cores_per_node: u32,
    policy: SchedPolicy,
    clock: SimClock,
    next_id: JobId,
    events: EventQueue<EventKind>,
    /// Structured trace of submits, job spans, and reservations.
    trace: Vec<TraceEvent>,
    jobs: BTreeMap<JobId, Job>,
    /// Queued jobs in arrival order.
    queue: Vec<QueueEntry>,
    /// Running job ids. An index, not state: kept in lockstep with
    /// `jobs[*].state` so per-event work (backfill shadow time, drain
    /// queries) scans the ≤ nodes×cores running jobs instead of every
    /// job ever submitted — the difference between O(n²) and O(n) over
    /// a million-event run.
    running_ids: BTreeSet<JobId>,
    /// Per-user consumed core-seconds (fairshare input).
    usage: HashMap<String, f64>,
    /// Core-seconds actually executed (utilization numerator).
    used_core_seconds: f64,
    /// Advance reservations (maintenance windows).
    reservations: Vec<Reservation>,
    /// Held job ids (`qhold`): queued but not eligible to start.
    held: std::collections::HashSet<JobId>,
    /// Offline (drained) node indices: no new placements land there.
    offline: BTreeSet<usize>,
    /// Retired node indices: permanently out of service (scale-down /
    /// burst-site departure). Always a subset of `offline`; a retired
    /// node cannot be brought back with [`ClusterSim::set_online`].
    retired: BTreeSet<usize>,
    /// Per-job restart counter; see [`EventKind::End`].
    incarnations: HashMap<JobId, u32>,
    /// Emit structured trace events? On by default; million-event
    /// experiment runs turn it off so the event loop does no string
    /// formatting or trace allocation.
    tracing: bool,
    /// Events popped off the queue so far (throughput accounting).
    events_processed: u64,
}

impl ClusterSim {
    /// A cluster of `nodes` nodes with `cores_per_node` cores each.
    pub fn new(nodes: usize, cores_per_node: u32, policy: SchedPolicy) -> Self {
        assert!(nodes > 0 && cores_per_node > 0);
        ClusterSim {
            free: vec![cores_per_node; nodes],
            cores_per_node,
            policy,
            clock: SimClock::new(),
            next_id: 0,
            events: EventQueue::new(),
            trace: Vec::new(),
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            running_ids: BTreeSet::new(),
            usage: HashMap::new(),
            used_core_seconds: 0.0,
            reservations: Vec::new(),
            held: std::collections::HashSet::new(),
            offline: BTreeSet::new(),
            retired: BTreeSet::new(),
            incarnations: HashMap::new(),
            tracing: true,
            events_processed: 0,
        }
    }

    /// Events popped off the queue so far — the denominator of the
    /// million-event throughput bench.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Turn structured trace emission on or off. Scheduling decisions
    /// and metrics are identical either way; off skips all per-event
    /// string formatting, which is what lets a run sustain ~10^6
    /// events in seconds (see the `million_events` bench).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// `qhold`: keep a queued job from starting. Returns false for
    /// running/finished/unknown jobs.
    pub fn hold(&mut self, id: JobId) -> bool {
        match self.jobs.get(&id) {
            Some(j) if j.state == JobState::Queued => {
                self.held.insert(id);
                true
            }
            _ => false,
        }
    }

    /// `qrls`: release a held job (it becomes eligible immediately).
    pub fn release(&mut self, id: JobId) -> bool {
        let released = self.held.remove(&id);
        if released {
            self.try_start_jobs();
        }
        released
    }

    /// Add a maintenance/advance reservation over node indices
    /// `nodes` for `[start, end)`. Jobs whose walltime window would
    /// overlap the reservation cannot be placed on those nodes.
    /// Accepts `SimTime` or float seconds for the window bounds.
    pub fn add_reservation(
        &mut self,
        label: &str,
        nodes: Vec<usize>,
        start: impl Into<SimTime>,
        end: impl Into<SimTime>,
    ) {
        let (start, end) = (start.into(), end.into());
        assert!(start < end, "empty reservation window");
        assert!(
            nodes.iter().all(|&n| n < self.free.len()),
            "reserved node out of range"
        );
        if self.tracing {
            self.trace.push(
                TraceEvent::span(
                    start,
                    TRACE_SOURCE,
                    format!("reservation: {label}"),
                    end - start,
                )
                .with_field("nodes", nodes.len()),
            );
        }
        self.reservations.push(Reservation {
            label: label.to_string(),
            nodes,
            start,
            end,
        });
        // wake the scheduler when the window closes so blocked jobs start
        if end >= self.clock.now() {
            self.push_event(end, EventKind::Wake);
        }
    }

    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Swap the scheduling policy on a live cluster (the §8 "change the
    /// schedulers" workflow). Queued jobs are re-evaluated immediately.
    pub fn set_policy(&mut self, policy: SchedPolicy) {
        self.policy = policy;
        self.try_start_jobs();
    }

    /// Current simulation time in seconds (compatibility accessor).
    pub fn now(&self) -> f64 {
        self.clock.now().as_secs_f64()
    }

    /// Drain the recorded trace (for merging into a scenario-wide log).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    pub fn node_count(&self) -> usize {
        self.free.len()
    }

    pub fn total_cores(&self) -> u32 {
        self.cores_per_node * self.free.len() as u32
    }

    fn push_event(&mut self, t: impl Into<SimTime>, kind: EventKind) {
        self.events.schedule(t, kind);
    }

    /// Schedule a submission at absolute time `t` (>= now). Accepts
    /// `SimTime` or float seconds.
    pub fn submit_at(&mut self, t: impl Into<SimTime>, request: JobRequest) -> JobId {
        let t = t.into();
        assert!(t >= self.clock.now(), "cannot submit in the past");
        assert!(
            request.ppn <= self.cores_per_node,
            "job {} asks ppn={} but nodes have {} cores",
            request.name,
            request.ppn,
            self.cores_per_node
        );
        assert!(
            request.nodes as usize <= self.free.len(),
            "job {} asks {} nodes but cluster has {}",
            request.name,
            request.nodes,
            self.free.len()
        );
        self.next_id += 1;
        let id = self.next_id;
        if self.tracing {
            self.trace.push(
                TraceEvent::mark(t, TRACE_SOURCE, format!("submit {}", request.name))
                    .with_field("user", request.user.clone())
                    .with_field("nodes", request.nodes)
                    .with_field("ppn", request.ppn),
            );
        }
        self.jobs.insert(
            id,
            Job {
                id,
                request,
                submit_s: t.as_secs_f64(),
                state: JobState::Queued,
                placement: vec![],
            },
        );
        self.push_event(t, EventKind::Submit(id));
        id
    }

    /// Submit now.
    pub fn submit(&mut self, request: JobRequest) -> JobId {
        self.submit_at(self.clock.now(), request)
    }

    /// Cancel a queued job (`qdel`/`scancel`). Running jobs keep running.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state == JobState::Queued {
                job.state = JobState::Cancelled;
                self.queue.retain(|q| q.id != id);
                self.held.remove(&id);
                return true;
            }
        }
        false
    }

    /// Kill a job in any unfinished state (`qdel`/`scancel` of a running
    /// job): a queued job is cancelled in place; a running job is
    /// evicted, its cores freed, and its scheduled end fenced off via an
    /// incarnation bump. Returns false for finished or unknown jobs.
    pub fn kill(&mut self, id: JobId) -> bool {
        if self.cancel(id) {
            return true;
        }
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if !matches!(job.state, JobState::Running { .. }) {
            return false;
        }
        job.state = JobState::Cancelled;
        let placement = std::mem::take(&mut job.placement);
        let ppn = job.request.ppn;
        let name = job.request.name.clone();
        self.running_ids.remove(&id);
        *self.incarnations.entry(id).or_insert(0) += 1;
        for n in placement {
            self.free[n] += ppn;
        }
        let now = self.clock.now();
        if self.tracing {
            self.trace
                .push(TraceEvent::mark(now, TRACE_SOURCE, format!("kill {name}")));
        }
        self.try_start_jobs();
        true
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    pub fn queued(&self) -> Vec<&Job> {
        self.queue.iter().map(|q| &self.jobs[&q.id]).collect()
    }

    pub fn running(&self) -> Vec<&Job> {
        self.running_ids.iter().map(|id| &self.jobs[id]).collect()
    }

    pub fn completed(&self) -> Vec<&Job> {
        self.jobs.values().filter(|j| j.is_finished()).collect()
    }

    pub fn used_core_seconds(&self) -> f64 {
        self.used_core_seconds
    }

    // ----- node service state (drain support) -----

    /// Take a node out of service (`pbsnodes -o` / `scontrol update
    /// nodename=... state=drain`): running jobs keep running but no new
    /// placements land on it. Returns false if already offline.
    pub fn set_offline(&mut self, node: usize) -> bool {
        assert!(node < self.free.len(), "node out of range");
        if !self.offline.insert(node) {
            return false;
        }
        let now = self.clock.now();
        if self.tracing {
            self.trace.push(TraceEvent::mark(
                now,
                TRACE_SOURCE,
                format!("offline node {node}"),
            ));
        }
        true
    }

    /// Return a node to service; queued jobs are re-evaluated
    /// immediately. Returns false if it was not offline or has been
    /// retired.
    pub fn set_online(&mut self, node: usize) -> bool {
        assert!(node < self.free.len(), "node out of range");
        if self.retired.contains(&node) {
            return false;
        }
        if !self.offline.remove(&node) {
            return false;
        }
        let now = self.clock.now();
        if self.tracing {
            self.trace.push(TraceEvent::mark(
                now,
                TRACE_SOURCE,
                format!("online node {node}"),
            ));
        }
        self.try_start_jobs();
        true
    }

    pub fn is_offline(&self, node: usize) -> bool {
        self.offline.contains(&node)
    }

    /// Offline node indices, ascending.
    pub fn offline_nodes(&self) -> Vec<usize> {
        self.offline.iter().copied().collect()
    }

    // ----- dynamic membership (elastic scaling) -----

    /// Grow the cluster by one node (elastic scale-up / burst join).
    /// The node arrives online with all cores free; queued jobs are
    /// re-evaluated immediately. Returns the new node's index.
    pub fn add_node(&mut self) -> usize {
        let node = self.free.len();
        self.free.push(self.cores_per_node);
        let now = self.clock.now();
        if self.tracing {
            self.trace.push(TraceEvent::mark(
                now,
                TRACE_SOURCE,
                format!("add node {node}"),
            ));
        }
        self.try_start_jobs();
        node
    }

    /// Permanently remove an idle node from service (elastic
    /// scale-down / burst departure). The caller drains the node first
    /// ([`ClusterSim::set_offline`] + [`ClusterSim::requeue_jobs_on`]);
    /// retiring a node with running jobs panics. A retired node takes
    /// no placements and refuses [`ClusterSim::set_online`]. Returns
    /// false if the node was already retired.
    pub fn retire_node(&mut self, node: usize) -> bool {
        assert!(node < self.free.len(), "node out of range");
        assert!(
            self.node_idle(node),
            "retire requires an idle node: drain and requeue first"
        );
        if !self.retired.insert(node) {
            return false;
        }
        self.offline.insert(node);
        let now = self.clock.now();
        if self.tracing {
            self.trace.push(TraceEvent::mark(
                now,
                TRACE_SOURCE,
                format!("retire node {node}"),
            ));
        }
        true
    }

    /// Jobs sitting in the queue and eligible to run (not held) — the
    /// autoscaler's demand signal.
    pub fn queue_depth(&self) -> usize {
        self.queue
            .iter()
            .filter(|q| !self.held.contains(&q.id))
            .count()
    }

    /// Ids of jobs currently running on `node`, ascending.
    pub fn running_on(&self, node: usize) -> Vec<JobId> {
        self.running_ids
            .iter()
            .filter(|id| self.jobs[id].placement.contains(&node))
            .copied()
            .collect()
    }

    /// True when no job occupies any core of `node`.
    pub fn node_idle(&self, node: usize) -> bool {
        self.free[node] == self.cores_per_node
    }

    /// Requeue every job running on `node` losslessly: cores are freed
    /// on the job's whole placement, the job re-enters the queue with
    /// its original submit time, and the interrupted run's end event is
    /// invalidated (no span is emitted and no core-seconds are charged
    /// for the partial run). Returns the requeued job ids, ascending.
    pub fn requeue_jobs_on(&mut self, node: usize) -> Vec<JobId> {
        assert!(node < self.free.len(), "node out of range");
        let victims = self.running_on(node);
        for &id in &victims {
            let (placement, entry, name) = {
                let job = self.jobs.get_mut(&id).expect("job exists");
                job.state = JobState::Queued;
                (
                    std::mem::take(&mut job.placement),
                    QueueEntry::of(job),
                    job.request.name.clone(),
                )
            };
            self.running_ids.remove(&id);
            *self.incarnations.entry(id).or_insert(0) += 1;
            for n in placement {
                self.free[n] += entry.ppn;
            }
            let now = self.clock.now();
            if self.tracing {
                self.trace.push(
                    TraceEvent::mark(now, TRACE_SOURCE, format!("requeue {name}"))
                        .with_field("node", node),
                );
            }
            self.queue.push(entry);
        }
        if !victims.is_empty() {
            self.try_start_jobs();
        }
        victims
    }

    /// Per-user core-second usage so far.
    pub fn user_usage(&self, user: &str) -> f64 {
        self.usage.get(user).copied().unwrap_or(0.0)
    }

    // ----- placement -----

    /// Could `nodes × ppn` be placed in the given free vector, skipping
    /// offline nodes?
    fn placeable(free: &[u32], offline: &BTreeSet<usize>, nodes: u32, ppn: u32) -> bool {
        let mut found = 0;
        for (i, &f) in free.iter().enumerate() {
            if f >= ppn && !offline.contains(&i) {
                found += 1;
                if found == nodes {
                    return true;
                }
            }
        }
        false
    }

    fn fits_now(&self, job: &QueueEntry) -> Option<Vec<usize>> {
        let job_start = self.now();
        let job_end = job_start + job.walltime_s;
        let mut picked = Vec::with_capacity(job.nodes as usize);
        for (i, &f) in self.free.iter().enumerate() {
            let reserved = self
                .reservations
                .iter()
                .any(|r| r.blocks(i, job_start, job_end));
            if f >= job.ppn && !reserved && !self.offline.contains(&i) {
                picked.push(i);
                if picked.len() == job.nodes as usize {
                    return Some(picked);
                }
            }
        }
        None
    }

    /// Start job `id` on `placement` (a [`ClusterSim::fits_now`]
    /// answer). The caller removes it from `queue`.
    fn start_job(&mut self, id: JobId, placement: Vec<usize>) {
        let now_s = self.now();
        let job = self.jobs.get_mut(&id).expect("job exists");
        for &n in &placement {
            self.free[n] -= job.request.ppn;
        }
        job.placement = placement;
        job.state = JobState::Running { start_s: now_s };
        let end = now_s + job.request.effective_runtime();
        self.running_ids.insert(id);
        let inc = self.incarnations.get(&id).copied().unwrap_or(0);
        self.push_event(end, EventKind::End(id, inc));
    }

    fn finish_job(&mut self, id: JobId, inc: u32) {
        if self.incarnations.get(&id).copied().unwrap_or(0) != inc {
            // End event of a run that was requeued off its node; the
            // current incarnation has its own end event.
            return;
        }
        let now_s = self.now();
        let job = self.jobs.get_mut(&id).expect("job exists");
        if let JobState::Running { start_s } = job.state {
            self.running_ids.remove(&id);
            let timed_out = job.request.runtime_s > job.request.walltime_s;
            job.state = if timed_out {
                JobState::TimedOut {
                    start_s,
                    end_s: now_s,
                }
            } else {
                JobState::Completed {
                    start_s,
                    end_s: now_s,
                }
            };
            let core_secs = job.request.cores() as f64 * (now_s - start_s);
            let ppn = job.request.ppn;
            if self.tracing {
                let placed: Vec<String> = job.placement.iter().map(|n| n.to_string()).collect();
                let span = TraceEvent::span(
                    start_s,
                    TRACE_SOURCE,
                    format!("job {}", job.request.name),
                    now_s - start_s,
                )
                .with_field("user", job.request.user.clone())
                .with_field("cores", job.request.cores())
                .with_field("state", if timed_out { "timed-out" } else { "completed" })
                .with_field("placement", placed.join(","));
                self.trace.push(span);
            }
            self.used_core_seconds += core_secs;
            *self.usage.entry(job.request.user.clone()).or_insert(0.0) += core_secs;
            for &n in &job.placement {
                self.free[n] += ppn;
            }
        }
    }

    // ----- scheduling -----

    /// Queue order the policy wants.
    fn policy_order(&self) -> Vec<QueueEntry> {
        let eligible: Vec<QueueEntry> = self
            .queue
            .iter()
            .copied()
            .filter(|q| !self.held.contains(&q.id))
            .collect();
        match self.policy {
            SchedPolicy::Fifo | SchedPolicy::EasyBackfill => eligible,
            SchedPolicy::MauiPriority {
                queue_weight,
                fairshare_weight,
            } => {
                // Priority depends only on the job, not on the other
                // queue entries, so compute it once per id instead of
                // on every comparison. The comparator is a total order
                // (total_cmp + id tie-break), so the resulting order is
                // identical to sorting with inline evaluation.
                let mut keyed: Vec<(f64, QueueEntry)> = eligible
                    .into_iter()
                    .map(|q| (self.maui_priority(q.id, queue_weight, fairshare_weight), q))
                    .collect();
                keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
                keyed.into_iter().map(|(_, q)| q).collect()
            }
        }
    }

    fn maui_priority(&self, id: JobId, qw: f64, fw: f64) -> f64 {
        let job = &self.jobs[&id];
        let wait = self.now() - job.submit_s;
        wait * qw - self.user_usage(&job.request.user) * fw
    }

    /// Earliest time a `nodes × ppn` head job could start, per the
    /// running jobs' *walltime-based* planned ends (the scheduler cannot
    /// see actual runtimes). Releases are replayed in planned-end order,
    /// ties in ascending id order (a stable sort of the id-ordered
    /// running set), and the first one after which the head fits wins.
    /// Reservations are not consulted.
    fn shadow_time(&self, nodes: u32, ppn: u32) -> f64 {
        let mut free = self.free.clone();
        let mut releases: Vec<(f64, &Job)> = self
            .running_ids
            .iter()
            .filter_map(|id| {
                let j = &self.jobs[id];
                match j.state {
                    JobState::Running { start_s } => Some((start_s + j.request.walltime_s, j)),
                    _ => None,
                }
            })
            .collect();
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, j) in releases {
            for &n in &j.placement {
                free[n] += j.request.ppn;
            }
            if Self::placeable(&free, &self.offline, nodes, ppn) {
                return t;
            }
        }
        f64::INFINITY // should not happen if the job fits the machine
    }

    /// Start every job the policy allows right now, in one pass over
    /// the policy order.
    ///
    /// Within a pass `now`, fairshare usage, holds and reservations are
    /// fixed, and free cores only go down. So the order is computed
    /// once, and heads start while they fit. The first blocked head
    /// stays blocked, and its shadow time is computed once and only
    /// ever lowered (see below). Each later candidate is tested once,
    /// since one that fails could not pass later in the same pass.
    /// The result is exactly that of restarting the pass after every
    /// start (DESIGN.md, "Scheduler pass").
    fn try_start_jobs(&mut self) {
        let order = self.policy_order();
        let mut started = Vec::new();
        let mut blocked = None;
        for (i, q) in order.iter().enumerate() {
            match self.fits_now(q) {
                Some(placement) => {
                    self.start_job(q.id, placement);
                    started.push(q.id);
                }
                None => {
                    blocked = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = blocked.filter(|_| self.policy.backfills()) {
            let head = order[i];
            let mut shadow = self.shadow_time(head.nodes, head.ppn);
            let now = self.now();
            for q in &order[i + 1..] {
                // the cheap shadow bound first: most candidates fail it
                let end = now + q.walltime_s;
                if end <= shadow {
                    if let Some(placement) = self.fits_now(q) {
                        // A backfill ends by the shadow, so its release
                        // moves the shadow only for a head that a
                        // reservation, not a lack of cores, keeps out:
                        // that head fits once this job's cores return.
                        if Self::placeable(&self.free, &self.offline, head.nodes, head.ppn) {
                            shadow = end;
                        }
                        self.start_job(q.id, placement);
                        started.push(q.id);
                    }
                }
            }
        }
        if !started.is_empty() {
            started.sort_unstable();
            self.queue.retain(|q| started.binary_search(&q.id).is_err());
        }
    }

    // ----- event loop -----

    /// Process events up to and including time `t`. Accepts `SimTime`
    /// or float seconds.
    pub fn run_until(&mut self, t: impl Into<SimTime>) {
        let t = t.into();
        while let Some(et) = self.events.peek_time() {
            if et > t {
                break;
            }
            let scheduled = self.events.pop().expect("peeked");
            self.events_processed += 1;
            self.clock.advance_to(scheduled.t);
            match scheduled.event {
                EventKind::Submit(id) => {
                    let job = &self.jobs[&id];
                    if job.state == JobState::Queued {
                        self.queue.push(QueueEntry::of(job));
                    }
                }
                EventKind::End(id, inc) => self.finish_job(id, inc),
                EventKind::Wake => {}
            }
            self.try_start_jobs();
        }
        self.clock.advance_to(t);
    }

    /// Run until the event queue drains. The whole drain is timed as
    /// one [`xcbc_sim::SECTION_SCHED_RUN`] self-profile observation —
    /// deliberately coarse, so the per-event loop stays timer-free.
    pub fn run_to_completion(&mut self) {
        xcbc_sim::self_profiler().time(xcbc_sim::SECTION_SCHED_RUN, || {
            while let Some(et) = self.events.peek_time() {
                self.run_until(et);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn req(name: &str, nodes: u32, ppn: u32, wall: f64, run: f64) -> JobRequest {
        JobRequest::new(name, nodes, ppn, wall, run)
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut sim = ClusterSim::new(6, 2, SchedPolicy::Fifo);
        let id = sim.submit_at(0.0, req("hello", 6, 2, 100.0, 80.0));
        sim.run_to_completion();
        let j = sim.job(id).unwrap();
        assert_eq!(j.wait_s(), Some(0.0));
        assert!(matches!(j.state, JobState::Completed { end_s, .. } if end_s == 80.0));
        assert_eq!(sim.used_core_seconds(), 12.0 * 80.0);
    }

    #[test]
    fn overrunning_job_killed_at_walltime() {
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        let id = sim.submit_at(0.0, req("runaway", 1, 1, 50.0, 500.0));
        sim.run_to_completion();
        assert!(
            matches!(sim.job(id).unwrap().state, JobState::TimedOut { end_s, .. } if end_s == 50.0)
        );
    }

    #[test]
    fn fifo_serializes_full_machine_jobs() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        let a = sim.submit_at(0.0, req("a", 2, 2, 100.0, 100.0));
        let b = sim.submit_at(1.0, req("b", 2, 2, 100.0, 100.0));
        sim.run_to_completion();
        assert_eq!(sim.job(a).unwrap().wait_s(), Some(0.0));
        assert_eq!(sim.job(b).unwrap().wait_s(), Some(99.0));
    }

    #[test]
    fn fifo_head_of_line_blocks_small_job() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("wide-running", 2, 1, 100.0, 100.0)); // leaves 1 core/node
        sim.submit_at(1.0, req("wide-blocked", 2, 2, 100.0, 100.0)); // must wait
        let tiny = sim.submit_at(2.0, req("tiny", 1, 1, 10.0, 10.0)); // would fit now!
        sim.run_to_completion();
        // FIFO: tiny waits behind the blocked head
        assert!(sim.job(tiny).unwrap().wait_s().unwrap() >= 98.0);
    }

    #[test]
    fn backfill_lets_small_job_jump() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        sim.submit_at(0.0, req("wide-running", 2, 1, 100.0, 100.0));
        sim.submit_at(1.0, req("wide-blocked", 2, 2, 100.0, 100.0));
        let tiny = sim.submit_at(2.0, req("tiny", 1, 1, 10.0, 10.0));
        sim.run_to_completion();
        // EASY: tiny ends (t=12) before the head's shadow time (t=100)
        assert_eq!(sim.job(tiny).unwrap().wait_s(), Some(0.0));
    }

    #[test]
    fn backfill_never_delays_head_job() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        sim.submit_at(0.0, req("running", 2, 1, 100.0, 100.0));
        let head = sim.submit_at(1.0, req("head", 2, 2, 100.0, 100.0));
        // this one would fit now but its walltime crosses the shadow time
        let long = sim.submit_at(2.0, req("long", 1, 1, 500.0, 500.0));
        sim.run_to_completion();
        let head_start = match sim.job(head).unwrap().state {
            JobState::Completed { start_s, .. } => start_s,
            other => panic!("{other:?}"),
        };
        assert_eq!(head_start, 100.0, "head starts exactly at the shadow time");
        let long_start = sim.job(long).unwrap().wait_s().unwrap() + 2.0;
        assert!(
            long_start >= 100.0,
            "long job must not backfill: started {long_start}"
        );
    }

    #[test]
    fn maui_fairshare_penalizes_heavy_user() {
        let policy = SchedPolicy::MauiPriority {
            queue_weight: 1.0,
            fairshare_weight: 1.0,
        };
        let mut sim = ClusterSim::new(1, 2, policy);
        // hog builds up usage
        sim.submit_at(0.0, req("hog1", 1, 2, 100.0, 100.0).by("hog"));
        sim.run_until(50.0);
        // both queue while hog1 runs; at t=100 the fair user's job should
        // win despite submitting later
        sim.submit_at(50.0, req("hog2", 1, 2, 100.0, 100.0).by("hog"));
        let fair = sim.submit_at(60.0, req("fair1", 1, 2, 100.0, 100.0).by("fair"));
        sim.run_to_completion();
        assert_eq!(
            sim.job(fair).unwrap().wait_s(),
            Some(40.0),
            "fair user's job runs first"
        );
    }

    #[test]
    fn policy_swap_on_live_cluster() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 2, 1, 100.0, 100.0));
        sim.submit_at(1.0, req("blocked-head", 2, 2, 100.0, 100.0));
        let tiny = sim.submit_at(2.0, req("tiny", 1, 1, 10.0, 10.0));
        sim.run_until(5.0);
        assert!(
            sim.job(tiny).unwrap().wait_s().is_none(),
            "FIFO keeps tiny queued"
        );
        // the XNIT scheduler swap: torque/fifo -> maui backfill
        sim.set_policy(SchedPolicy::EasyBackfill);
        sim.run_until(6.0);
        assert!(
            sim.job(tiny).unwrap().wait_s().is_some(),
            "backfill starts tiny immediately"
        );
    }

    #[test]
    fn cancel_queued_job() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 1, 100.0, 100.0));
        let victim = sim.submit_at(1.0, req("victim", 1, 1, 100.0, 100.0));
        sim.run_until(2.0);
        assert!(sim.cancel(victim));
        assert!(!sim.cancel(victim), "double cancel is a no-op");
        sim.run_to_completion();
        assert_eq!(sim.job(victim).unwrap().state, JobState::Cancelled);
    }

    #[test]
    #[should_panic(expected = "ppn")]
    fn oversized_ppn_rejected() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("fat", 1, 4, 10.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "nodes")]
    fn oversized_node_count_rejected() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("wide", 3, 1, 10.0, 10.0));
    }

    #[test]
    fn reservation_blocks_overlapping_jobs() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        // maintenance window on both nodes from t=100 to t=200
        sim.add_reservation("maintenance", vec![0, 1], 100.0, 200.0);
        // a job whose walltime crosses into the window cannot start now
        let long = sim.submit_at(0.0, req("long", 2, 2, 150.0, 150.0));
        // a short job fits before the window
        let short = sim.submit_at(0.0, req("short", 2, 2, 90.0, 80.0));
        sim.run_to_completion();
        let short_start = sim.job(short).unwrap().wait_s().unwrap();
        assert_eq!(short_start, 0.0, "short job runs before the window");
        let long_start = sim.job(long).unwrap().wait_s().unwrap();
        assert!(
            long_start >= 200.0,
            "long job must wait out the window: {long_start}"
        );
    }

    #[test]
    fn reservation_on_subset_leaves_other_nodes_usable() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        sim.add_reservation("swap node 1 fan", vec![1], 0.0, 1000.0);
        let j = sim.submit_at(0.0, req("fits-on-node0", 1, 2, 100.0, 50.0));
        sim.run_to_completion();
        assert_eq!(sim.job(j).unwrap().wait_s(), Some(0.0));
        assert_eq!(sim.job(j).unwrap().placement, vec![0]);
    }

    #[test]
    #[should_panic(expected = "empty reservation")]
    fn inverted_reservation_window_rejected() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.add_reservation("bad", vec![0], 10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reservation_on_unknown_node_rejected() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.add_reservation("bad", vec![5], 0.0, 10.0);
    }

    #[test]
    fn hold_keeps_job_queued_release_starts_it() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let id = sim.submit_at(0.0, req("held", 1, 1, 10.0, 5.0));
        sim.run_until(0.0);
        // job started immediately (empty machine) — so test with a
        // fresh one that is submitted while held-before-eligible
        assert!(sim.job(id).unwrap().wait_s().is_some());

        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 1, 100.0, 50.0));
        let victim = sim.submit_at(1.0, req("victim", 1, 1, 10.0, 5.0));
        sim.run_until(2.0);
        assert!(sim.hold(victim));
        sim.run_until(60.0); // machine free at t=50, but victim held
        assert!(sim.job(victim).unwrap().wait_s().is_none());
        assert!(sim.release(victim));
        assert!(
            sim.job(victim).unwrap().wait_s().is_some(),
            "starts on release"
        );
        sim.run_to_completion();
    }

    #[test]
    fn hold_rejects_running_and_unknown() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let id = sim.submit_at(0.0, req("r", 1, 1, 10.0, 5.0));
        sim.run_until(1.0);
        assert!(!sim.hold(id), "running job cannot be held");
        assert!(!sim.hold(999));
        assert!(!sim.release(id));
        // ids start at 1, so id 0 is unknown
        assert!(sim.job(0).is_none());
        assert!(!sim.hold(0) && !sim.cancel(0) && !sim.kill(0));
    }

    #[test]
    fn held_job_does_not_block_fifo_queue() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 1, 100.0, 50.0));
        let held = sim.submit_at(1.0, req("held-head", 1, 1, 10.0, 5.0));
        let behind = sim.submit_at(2.0, req("behind", 1, 1, 10.0, 5.0));
        sim.run_until(3.0);
        sim.hold(held);
        sim.run_to_completion();
        // behind ran even though the held job was ahead of it
        assert!(sim.job(behind).unwrap().turnaround_s().is_some());
        assert!(sim.job(held).unwrap().wait_s().is_none());
    }

    #[test]
    fn cancel_clears_hold() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 1, 100.0, 50.0));
        let victim = sim.submit_at(1.0, req("v", 1, 1, 10.0, 5.0));
        sim.run_until(2.0);
        sim.hold(victim);
        assert!(sim.cancel(victim));
        assert!(!sim.release(victim), "cancel already dropped the hold");
    }

    #[test]
    fn trace_records_submits_jobs_and_reservations() {
        use xcbc_sim::TraceKind;
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.add_reservation("maintenance", vec![1], 500.0, 600.0);
        sim.submit_at(0.0, req("a", 1, 2, 100.0, 80.0));
        sim.run_to_completion();
        let events = sim.take_trace();
        assert!(events
            .iter()
            .any(|e| e.label == "reservation: maintenance"
                && matches!(e.kind, TraceKind::Span { .. })));
        assert!(events
            .iter()
            .any(|e| e.label == "submit a" && matches!(e.kind, TraceKind::Mark)));
        let job = events
            .iter()
            .find(|e| e.label == "job a")
            .expect("job span");
        assert_eq!(job.t, SimTime::ZERO);
        assert_eq!(job.duration(), xcbc_sim::SimDuration::from_secs(80));
        assert_eq!(job.source, "sched");
    }

    #[test]
    fn trace_job_span_starts_at_job_start_not_submit() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("first", 1, 1, 100.0, 100.0));
        sim.submit_at(1.0, req("second", 1, 1, 50.0, 50.0));
        sim.run_to_completion();
        let trace = sim.take_trace();
        let second = trace
            .iter()
            .find(|e| e.label == "job second")
            .expect("span");
        assert_eq!(second.t, SimTime::from_secs(100));
    }

    #[test]
    fn offline_node_takes_no_new_placements() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        assert!(sim.set_offline(0));
        assert!(!sim.set_offline(0), "double offline is a no-op");
        assert!(sim.is_offline(0));
        assert_eq!(sim.offline_nodes(), vec![0]);
        let j = sim.submit_at(0.0, req("steered", 1, 2, 10.0, 5.0));
        sim.run_to_completion();
        assert_eq!(sim.job(j).unwrap().placement, vec![1]);
        assert!(sim.set_online(0));
        assert!(!sim.set_online(0));
    }

    #[test]
    fn online_restarts_blocked_queue() {
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        sim.set_offline(0);
        let j = sim.submit_at(0.0, req("waits", 1, 2, 10.0, 5.0));
        sim.run_until(1.0);
        assert!(sim.job(j).unwrap().wait_s().is_none());
        sim.set_online(0);
        sim.run_to_completion();
        assert!(matches!(
            sim.job(j).unwrap().state,
            JobState::Completed { .. }
        ));
    }

    #[test]
    fn requeue_is_lossless_and_ignores_stale_end() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        let j = sim.submit_at(0.0, req("evicted", 1, 2, 100.0, 50.0));
        sim.run_until(10.0);
        assert_eq!(sim.running_on(0), vec![j]);
        assert!(!sim.node_idle(0));
        sim.set_offline(0);
        assert_eq!(sim.requeue_jobs_on(0), vec![j]);
        assert!(sim.node_idle(0));
        // restarts immediately on node 1; the stale end at t=50 must not
        // complete the new run (it would credit only 40s of work)
        sim.run_to_completion();
        let job = sim.job(j).unwrap();
        assert_eq!(job.placement, vec![1]);
        assert!(
            matches!(job.state, JobState::Completed { start_s, end_s } if start_s == 10.0 && end_s == 60.0),
            "restarted run must span 10..60, got {:?}",
            job.state
        );
        // exactly one job span, charged for the full restarted run only
        let trace = sim.take_trace();
        let spans: Vec<_> = trace.iter().filter(|e| e.label == "job evicted").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(sim.used_core_seconds(), 2.0 * 50.0);
        // requeue left a mark in the trace
        assert!(trace.iter().any(|e| e.label == "requeue evicted"));
    }

    #[test]
    fn drain_then_online_resumes_service() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let j = sim.submit_at(0.0, req("v", 1, 1, 100.0, 30.0));
        sim.run_until(5.0);
        sim.set_offline(0);
        sim.requeue_jobs_on(0);
        sim.run_until(20.0);
        assert!(
            sim.job(j).unwrap().state == JobState::Queued,
            "only node offline: job waits"
        );
        sim.set_online(0);
        sim.run_to_completion();
        assert!(
            matches!(sim.job(j).unwrap().state, JobState::Completed { start_s, end_s } if start_s == 20.0 && end_s == 50.0)
        );
    }

    #[test]
    fn add_node_grows_capacity_and_starts_queue() {
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 2, 100.0, 100.0));
        let waiting = sim.submit_at(1.0, req("waiting", 1, 2, 50.0, 50.0));
        sim.run_until(5.0);
        assert_eq!(sim.queue_depth(), 1);
        assert_eq!(sim.add_node(), 1);
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.queue_depth(), 0, "queued job starts on the new node");
        sim.run_to_completion();
        assert_eq!(sim.job(waiting).unwrap().placement, vec![1]);
        assert!(sim.take_trace().iter().any(|e| e.label == "add node 1"));
    }

    #[test]
    fn retired_node_refuses_service_and_online() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.set_offline(1);
        assert!(sim.retire_node(1));
        assert!(!sim.retire_node(1), "double retire is a no-op");
        assert!(!sim.set_online(1), "retired nodes stay out of service");
        let j = sim.submit_at(0.0, req("steered", 1, 2, 10.0, 5.0));
        sim.run_to_completion();
        assert_eq!(sim.job(j).unwrap().placement, vec![0]);
        assert!(sim.take_trace().iter().any(|e| e.label == "retire node 1"));
    }

    #[test]
    fn retire_without_prior_offline_still_blocks_placement() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        assert!(sim.retire_node(0));
        assert!(sim.is_offline(0), "retire implies offline");
        let j = sim.submit_at(0.0, req("j", 1, 1, 10.0, 5.0));
        sim.run_to_completion();
        assert_eq!(sim.job(j).unwrap().placement, vec![1]);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn retire_busy_node_panics() {
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("busy", 1, 2, 100.0, 100.0));
        sim.run_until(5.0);
        sim.retire_node(0);
    }

    #[test]
    fn queue_depth_ignores_held_jobs() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, req("running", 1, 1, 100.0, 100.0));
        let held = sim.submit_at(1.0, req("held", 1, 1, 10.0, 5.0));
        sim.submit_at(2.0, req("queued", 1, 1, 10.0, 5.0));
        sim.run_until(3.0);
        assert_eq!(sim.queue_depth(), 2);
        sim.hold(held);
        assert_eq!(sim.queue_depth(), 1);
    }

    #[test]
    fn kill_evicts_a_running_job_and_frees_its_cores() {
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        let victim = sim.submit_at(0.0, req("victim", 1, 2, 1000.0, 900.0));
        let next = sim.submit_at(0.0, req("next", 1, 2, 10.0, 5.0));
        sim.run_until(1.0);
        assert!(matches!(
            sim.job(victim).unwrap().state,
            JobState::Running { .. }
        ));
        assert!(sim.kill(victim), "running job must be killable");
        assert!(!sim.kill(victim), "already dead");
        assert_eq!(sim.job(victim).unwrap().state, JobState::Cancelled);
        // the freed cores go straight to the next queued job, and the
        // victim's stale end event never resurrects it
        sim.run_to_completion();
        assert!(matches!(
            sim.job(next).unwrap().state,
            JobState::Completed { .. }
        ));
        assert_eq!(sim.job(victim).unwrap().state, JobState::Cancelled);
        let served = sim
            .jobs()
            .filter(|j| matches!(j.state, JobState::Completed { .. }))
            .count();
        assert_eq!(served, 1);
    }

    #[test]
    fn no_oversubscription_ever() {
        // a randomized soak: run many jobs and assert free cores never
        // go negative (they can't by construction, but the invariant is
        // that placements are disjoint at any instant)
        let mut sim = ClusterSim::new(4, 4, SchedPolicy::EasyBackfill);
        let mut t = 0.0;
        for i in 0..40 {
            let nodes = 1 + (i % 4) as u32;
            let ppn = 1 + (i % 3) as u32;
            sim.submit_at(
                t,
                req(&format!("j{i}"), nodes, ppn, 50.0 + (i as f64), 40.0),
            );
            t += 3.0;
        }
        sim.run_to_completion();
        assert_eq!(sim.completed().len(), 40);
        // all cores free at the end
        assert_eq!(sim.free.iter().sum::<u32>(), 16);
        // utilization numerator sane
        assert!(sim.used_core_seconds() > 0.0);
    }

    /// A pass starts everything it can: one more pass right after it
    /// starts nothing.
    fn assert_fixpoint(sim: &mut ClusterSim) -> Result<(), TestCaseError> {
        let (queue, running) = (sim.queue.clone(), sim.running_ids.clone());
        sim.try_start_jobs();
        prop_assert_eq!(&sim.queue, &queue, "second pass at t={}", sim.now());
        prop_assert_eq!(&sim.running_ids, &running, "second pass at t={}", sim.now());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random workloads under every policy, with holds,
        /// reservations and offline spells: after every event step the
        /// pass has reached a fixpoint.
        #[test]
        fn one_pass_leaves_nothing_to_start(
            policy in 0usize..3,
            jobs in proptest::collection::vec(
                (1u32..=4, 1u32..=2, 1u32..12, 2u32..13, 0u32..600),
                1..40,
            ),
            reservations in proptest::collection::vec((0usize..4, 0u32..800, 1u32..300), 0..3),
            holds in proptest::collection::vec(0u64..40, 0..4),
            offline in proptest::collection::vec((0usize..4, 0u32..800), 0..3),
        ) {
            let policy = [
                SchedPolicy::Fifo,
                SchedPolicy::EasyBackfill,
                SchedPolicy::maui_default(),
            ][policy];
            let mut sim = ClusterSim::new(4, 2, policy);
            for (i, &(nodes, ppn, wall, frac, at)) in jobs.iter().enumerate() {
                // coarse walltimes: many equal planned ends
                let wall = wall as f64 * 50.0;
                let run = wall * frac as f64 / 10.0;
                let job = req(&format!("j{i}"), nodes, ppn, wall, run).by(["a", "b"][i % 2]);
                sim.submit_at(at as f64, job);
            }
            for &(node, start, len) in &reservations {
                sim.add_reservation("r", vec![node], start as f64, (start + len) as f64);
            }
            for &h in &holds {
                sim.hold(1 + h % jobs.len() as u64);
            }
            // offline spells of 200 s while the holds stand, then
            // everything back so the run drains
            while let Some(t) = sim.events.peek_time().filter(|t| t.as_secs_f64() <= 1000.0) {
                sim.run_until(t);
                assert_fixpoint(&mut sim)?;
                for &(node, at) in &offline {
                    let (from, to) = (at as f64, at as f64 + 200.0);
                    if (from..to).contains(&sim.now()) {
                        sim.set_offline(node);
                    } else if sim.now() >= to && sim.set_online(node) {
                        assert_fixpoint(&mut sim)?;
                    }
                }
            }
            for &h in &holds {
                sim.release(1 + h % jobs.len() as u64);
                assert_fixpoint(&mut sim)?;
            }
            for node in 0..4 {
                sim.set_online(node);
            }
            while let Some(t) = sim.events.peek_time() {
                sim.run_until(t);
                assert_fixpoint(&mut sim)?;
            }
            prop_assert_eq!(sim.completed().len(), jobs.len());
        }
    }
}
