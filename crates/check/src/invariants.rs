//! The default cross-crate invariant suite.

use std::collections::BTreeMap;

use xcbc_cluster::monitor::MetricKind;
use xcbc_core::elastic::{Autoscaler, ElasticVerdict};
use xcbc_rpm::{rpmvercmp, Evr, RpmDb};
use xcbc_sched::JobState;
use xcbc_sim::{TraceEvent, TraceKind};
use xcbc_svc::{AdmissionController, Disposition, Journal};
use xcbc_yum::{Solution, SolveCache, Solver};

use crate::invariant::{Invariant, Violation};
use crate::outcome::SoakOutcome;

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Multiset of installed NEVRA strings in a database.
fn nevra_multiset(db: &RpmDb) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    for name in db.names() {
        for ip in db.get(name) {
            *out.entry(ip.package.nevra.to_string()).or_default() += 1;
        }
    }
    out
}

/// `a − b` as a multiset difference.
fn multiset_sub(
    a: &BTreeMap<String, usize>,
    b: &BTreeMap<String, usize>,
) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (k, &n) in a {
        let m = b.get(k).copied().unwrap_or(0);
        if n > m {
            out.insert(k.clone(), n - m);
        }
    }
    out
}

/// RPM transaction conservation: what a transaction *reports* doing
/// must equal what actually happened to the database — every reported
/// install/upgrade appears, nothing unreported appears, every reported
/// erase disappears, and the byte delta matches exactly.
pub struct RpmTxConservation;

impl Invariant for RpmTxConservation {
    fn name(&self) -> &'static str {
        "rpm.tx-conservation"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        for rec in &outcome.transactions {
            let before = nevra_multiset(&rec.before);
            let after = nevra_multiset(&rec.after);
            let added = multiset_sub(&after, &before);
            let removed = multiset_sub(&before, &after);

            let mut expected_added: BTreeMap<String, usize> = BTreeMap::new();
            for n in rec.report.installed.iter().chain(&rec.report.upgraded) {
                *expected_added.entry(n.clone()).or_default() += 1;
            }
            if added != expected_added {
                v.push(violation(
                    self.name(),
                    format!(
                        "{}: db additions {:?} != reported installs+upgrades {:?}",
                        rec.label, added, expected_added
                    ),
                ));
            }
            for erased in &rec.report.erased {
                if !removed.contains_key(erased) {
                    v.push(violation(
                        self.name(),
                        format!(
                            "{}: reported erase of {erased} but it is still installed",
                            rec.label
                        ),
                    ));
                }
            }

            let actual_delta =
                rec.after.installed_size_bytes() as i64 - rec.before.installed_size_bytes() as i64;
            if actual_delta != rec.report.size_delta_bytes {
                v.push(violation(
                    self.name(),
                    format!(
                        "{}: db grew by {actual_delta} bytes but transaction reported {}",
                        rec.label, rec.report.size_delta_bytes
                    ),
                ));
            }

            let broken = rec.after.verify();
            if !broken.is_empty() {
                v.push(violation(
                    self.name(),
                    format!(
                        "{}: post-transaction db fails verify: {broken:?}",
                        rec.label
                    ),
                ));
            }
        }
        v
    }
}

/// EVR comparison is a total order: reflexive, antisymmetric,
/// transitive over the harvested sample set, and `Evr`'s `Eq`/`Hash`
/// agree with `Ord`.
pub struct EvrTotalOrder;

impl Invariant for EvrTotalOrder {
    fn name(&self) -> &'static str {
        "rpm.evr-total-order"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        use std::cmp::Ordering;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let mut v = Vec::new();
        let samples: Vec<&str> = outcome
            .evr_samples
            .iter()
            .map(String::as_str)
            .take(20)
            .collect();

        for &a in &samples {
            if rpmvercmp(a, a) != Ordering::Equal {
                v.push(violation(
                    self.name(),
                    format!("rpmvercmp({a:?}, {a:?}) != Equal"),
                ));
            }
            for &b in &samples {
                let ab = rpmvercmp(a, b);
                let ba = rpmvercmp(b, a);
                if ab != ba.reverse() {
                    v.push(violation(
                        self.name(),
                        format!(
                            "antisymmetry: cmp({a:?},{b:?})={ab:?} but cmp({b:?},{a:?})={ba:?}"
                        ),
                    ));
                }
                let (ea, eb) = (Evr::new(0, a, "1"), Evr::new(0, b, "1"));
                let eq_by_cmp = ea.cmp(&eb) == Ordering::Equal;
                if (ea == eb) != eq_by_cmp {
                    v.push(violation(
                        self.name(),
                        format!("Eq disagrees with Ord for {a:?} vs {b:?}"),
                    ));
                }
                if eq_by_cmp {
                    let mut ha = DefaultHasher::new();
                    let mut hb = DefaultHasher::new();
                    ea.hash(&mut ha);
                    eb.hash(&mut hb);
                    if ha.finish() != hb.finish() {
                        v.push(violation(
                            self.name(),
                            format!("equal Evrs {a:?} and {b:?} hash differently"),
                        ));
                    }
                }
            }
        }

        let t: Vec<&str> = samples.iter().copied().take(14).collect();
        for &a in &t {
            for &b in &t {
                for &c in &t {
                    let (ab, bc, ac) = (rpmvercmp(a, b), rpmvercmp(b, c), rpmvercmp(a, c));
                    if ab != Ordering::Greater && bc != Ordering::Greater && ac == Ordering::Greater
                    {
                        v.push(violation(
                            self.name(),
                            format!("transitivity: {a:?} <= {b:?} <= {c:?} but {a:?} > {c:?}"),
                        ));
                    }
                }
            }
        }
        v
    }
}

/// A `(label, start_ns, end_ns)` span within one node's stream.
type NodeSpan = (String, u64, u64);

/// Span events grouped by `(source, node)` as `(label, start, end)`.
fn node_spans(trace: &[TraceEvent]) -> BTreeMap<(&'static str, String), Vec<NodeSpan>> {
    let mut out: BTreeMap<(&'static str, String), Vec<NodeSpan>> = BTreeMap::new();
    for e in trace {
        if let TraceKind::Span { .. } = e.kind {
            let node = e.fields.iter().find_map(|(k, val)| {
                if *k == "node" {
                    if let xcbc_sim::FieldValue::Str(s) = val {
                        return Some(s.clone());
                    }
                }
                None
            });
            if let Some(node) = node {
                out.entry((e.source, node)).or_default().push((
                    e.label.clone(),
                    e.t.as_nanos(),
                    e.end().as_nanos(),
                ));
            }
        }
    }
    out
}

/// Per-node timeline sanity: within one `(source, node)` stream, spans
/// are emitted with monotone non-decreasing starts and never overlap —
/// a node cannot be running two install phases at once.
pub struct TimelineMonotone;

impl TimelineMonotone {
    fn check_trace(&self, what: &str, trace: &[TraceEvent], v: &mut Vec<Violation>) {
        for ((source, node), spans) in node_spans(trace) {
            for w in spans.windows(2) {
                let (ref l0, s0, e0) = w[0];
                let (ref l1, s1, _) = w[1];
                if s1 < s0 {
                    v.push(violation(
                        self.name(),
                        format!(
                            "{what}: {source}/{node}: span {l1:?} starts at {s1}ns before predecessor {l0:?} ({s0}ns)"
                        ),
                    ));
                } else if s1 < e0 {
                    v.push(violation(
                        self.name(),
                        format!(
                            "{what}: {source}/{node}: span {l1:?} (start {s1}ns) overlaps {l0:?} (ends {e0}ns)"
                        ),
                    ));
                }
            }
        }
    }
}

impl Invariant for TimelineMonotone {
    fn name(&self) -> &'static str {
        "trace.timeline-monotone"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        for site in &outcome.fleet.sites {
            if let Ok(dep) = &site.result {
                self.check_trace(&format!("site {}", site.name), &dep.trace, &mut v);
            }
        }
        let resume = &outcome.resume;
        self.check_trace("resume:uninterrupted", &resume.uninterrupted_trace, &mut v);
        self.check_trace("resume:resumed", &resume.resumed_trace, &mut v);
        v
    }
}

/// Scheduler job conservation: every submitted job is accounted for,
/// nothing is left running after drain, core-second accounting matches
/// the per-job state, and the trace carries one mark per submit and
/// one span per finished job.
pub struct SchedConservation;

impl Invariant for SchedConservation {
    fn name(&self) -> &'static str {
        "sched.job-conservation"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let sched = &outcome.sched;
        let total = sched.sim.jobs().count();
        if total != sched.submitted {
            v.push(violation(
                self.name(),
                format!(
                    "submitted {} jobs but simulator holds {total}",
                    sched.submitted
                ),
            ));
        }

        let mut finished = 0usize;
        let mut core_seconds = 0.0f64;
        for job in sched.sim.jobs() {
            match job.state {
                JobState::Running { .. } => v.push(violation(
                    self.name(),
                    format!(
                        "job {} ({}) still Running after drain",
                        job.id, job.request.name
                    ),
                )),
                JobState::Completed { start_s, end_s } | JobState::TimedOut { start_s, end_s } => {
                    finished += 1;
                    core_seconds += job.request.cores() as f64 * (end_s - start_s);
                    if end_s < start_s {
                        v.push(violation(
                            self.name(),
                            format!(
                                "job {} ends at {end_s} before it starts at {start_s}",
                                job.id
                            ),
                        ));
                    }
                }
                JobState::Queued | JobState::Cancelled => {}
            }
        }

        let reported = sched.sim.used_core_seconds();
        let tol = 1e-6 * core_seconds.abs().max(1.0);
        if (reported - core_seconds).abs() > tol {
            v.push(violation(
                self.name(),
                format!("used_core_seconds {reported} != per-job accounting {core_seconds}"),
            ));
        }

        let spans = sched
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Span { .. }))
            .count();
        let marks = sched
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Mark) && e.label.starts_with("submit "))
            .count();
        if spans != finished {
            v.push(violation(
                self.name(),
                format!("{finished} jobs finished but trace holds {spans} job spans"),
            ));
        }
        if marks != sched.submitted {
            v.push(violation(
                self.name(),
                format!(
                    "{} jobs submitted but trace holds {marks} submit marks",
                    sched.submitted
                ),
            ));
        }
        v
    }
}

/// No starvation: the generator only emits satisfiable jobs (nodes and
/// ppn within the cluster shape), so after the event queue drains every
/// job must have reached a terminal state.
pub struct SchedNoStarvation;

impl Invariant for SchedNoStarvation {
    fn name(&self) -> &'static str {
        "sched.no-starvation"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        for job in outcome.sched.sim.jobs() {
            if matches!(job.state, JobState::Queued) {
                v.push(violation(
                    self.name(),
                    format!(
                        "job {} ({}, {}x{} cores) starved: still queued after drain",
                        job.id, job.request.name, job.request.nodes, job.request.ppn
                    ),
                ));
            }
        }
        v
    }
}

/// Generated-workload conservation: the open-loop stream's books must
/// balance. Every generated job reaches a terminal state, the job count
/// is conserved end-to-end, and the core-seconds the simulator accounts
/// for equal the generator's own ledger (Σ cores × capped runtime) —
/// i.e. the workload engine neither invents nor loses work.
pub struct WorkloadConservation;

impl Invariant for WorkloadConservation {
    fn name(&self) -> &'static str {
        "workload.conserves-core-seconds"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let wl = &outcome.workload;
        if wl.job_states.len() != wl.generated.len() {
            v.push(violation(
                self.name(),
                format!(
                    "generated {} jobs but the frontend holds {}",
                    wl.generated.len(),
                    wl.job_states.len()
                ),
            ));
        }
        let mut expected = 0.0f64;
        for (_, cores, busy_s) in &wl.generated {
            expected += *cores as f64 * busy_s;
        }
        for (name, state) in &wl.job_states {
            match state {
                JobState::Completed { start_s, end_s } | JobState::TimedOut { start_s, end_s } => {
                    if end_s < start_s {
                        v.push(violation(
                            self.name(),
                            format!("job {name} ends at {end_s} before it starts at {start_s}"),
                        ));
                    }
                }
                other => v.push(violation(
                    self.name(),
                    format!("job {name} not terminal after drain: {other:?}"),
                )),
            }
        }
        let tol = 1e-6 * expected.abs().max(1.0);
        if (wl.used_core_seconds - expected).abs() > tol {
            v.push(violation(
                self.name(),
                format!(
                    "simulator accounted {} core-seconds but the generator's ledger says {expected}",
                    wl.used_core_seconds
                ),
            ));
        }
        // jobs_finished already counts TimedOut terminals
        if wl.metrics.jobs_finished != wl.generated.len() {
            v.push(violation(
                self.name(),
                format!(
                    "metrics count {} terminal jobs but {} were generated",
                    wl.metrics.jobs_finished,
                    wl.generated.len()
                ),
            ));
        }
        v
    }
}

/// Canonical rendering of a solution for byte-comparison.
fn canonical_solution(sol: &Solution) -> String {
    let mut out = String::new();
    for p in &sol.installs {
        out.push_str("i ");
        out.push_str(&p.nevra.to_string());
        out.push('\n');
    }
    for p in &sol.upgrades {
        out.push_str("u ");
        out.push_str(&p.nevra.to_string());
        out.push('\n');
    }
    out
}

/// Solve-cache coherence: for every depsolve the scenario routed
/// through the shared cache, a fresh solve over the recorded inputs
/// must byte-equal what the cache holds for that key.
pub struct SolveCacheCoherence;

impl Invariant for SolveCacheCoherence {
    fn name(&self) -> &'static str {
        "yum.solvecache-coherence"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        for (i, probe) in outcome.solve_probes.iter().enumerate() {
            let key = SolveCache::key(&probe.repos, &probe.config, &probe.db, &probe.request);
            let Some(cached) = outcome.cache.peek(key) else {
                continue; // solve failed and was (correctly) not cached
            };
            match Solver::new(&probe.repos, &probe.config).resolve(&probe.db, &probe.request) {
                Ok(fresh) => {
                    let (c, f) = (canonical_solution(&cached), canonical_solution(&fresh));
                    if c != f {
                        v.push(violation(
                            self.name(),
                            format!(
                                "probe {i} ({:?}): cached solution differs from fresh solve:\ncached:\n{c}fresh:\n{f}",
                                probe.request
                            ),
                        ));
                    }
                }
                Err(e) => v.push(violation(
                    self.name(),
                    format!(
                        "probe {i} ({:?}): cache holds a solution but a fresh solve fails: {e}",
                        probe.request
                    ),
                )),
            }
        }
        v
    }
}

/// `(label, duration)` pairs of every span in emission order.
fn span_seq(trace: &[TraceEvent]) -> Vec<(String, u64)> {
    trace
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Span { dur } => Some((e.label.clone(), dur.as_nanos())),
            _ => None,
        })
        .collect()
}

/// Checkpoint/resume equivalence: resuming an aborted install must
/// converge to the same final per-node databases, and every span the
/// resumed run emits must appear, in order and with the same duration,
/// in the uninterrupted run (the resumed trace is the uninterrupted
/// trace minus the work the checkpoint already committed).
pub struct CheckpointResumeEquivalence;

impl Invariant for CheckpointResumeEquivalence {
    fn name(&self) -> &'static str {
        "rocks.checkpoint-resume"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let resume = &outcome.resume;
        if resume.aborts != 1 {
            v.push(violation(
                self.name(),
                format!(
                    "scheduled exactly one power loss but observed {} aborts",
                    resume.aborts
                ),
            ));
        }
        if resume.resumed_dbs != resume.uninterrupted_dbs {
            let missing: Vec<&String> = resume
                .uninterrupted_dbs
                .keys()
                .filter(|k| !resume.resumed_dbs.contains_key(*k))
                .collect();
            v.push(violation(
                self.name(),
                format!(
                    "resumed install's final node DBs differ from the uninterrupted run \
                     (nodes missing after resume: {missing:?})"
                ),
            ));
        }

        let full = span_seq(&resume.uninterrupted_trace);
        let part = span_seq(&resume.resumed_trace);
        let mut cursor = 0usize;
        for span in &part {
            match full[cursor..].iter().position(|s| s == span) {
                Some(at) => cursor += at + 1,
                None => {
                    v.push(violation(
                        self.name(),
                        format!(
                            "resumed run span {:?} ({}ns) is not an in-order subsequence match \
                             of the uninterrupted trace",
                            span.0, span.1
                        ),
                    ));
                    return v;
                }
            }
        }
        if let (Some(a), Some(b)) = (full.last(), part.last()) {
            if a != b {
                v.push(violation(
                    self.name(),
                    format!(
                        "final spans differ: uninterrupted ends with {:?}, resumed with {:?}",
                        a.0, b.0
                    ),
                ));
            }
        }
        v
    }
}

/// gmetad rollup consistency: the fleet meta-gmetad must hold exactly
/// the per-site hosts (namespaced `site/host`), and for every host and
/// metric kind the meta sample must bit-equal the site gmond's latest.
pub struct GmetadRollup;

impl Invariant for GmetadRollup {
    fn name(&self) -> &'static str {
        "mon.gmetad-rollup"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let telemetry = &outcome.telemetry;
        let mut expected_hosts = 0usize;
        for (site, mon) in &telemetry.sites {
            for host in mon.hosts() {
                expected_hosts += 1;
                let meta_name = format!("{site}/{host}");
                for kind in MetricKind::ALL {
                    let local = mon.node(&host).and_then(|n| n.ring(kind).latest());
                    let rolled = telemetry
                        .meta
                        .node(&meta_name)
                        .and_then(|n| n.ring(kind).latest());
                    match (local, rolled) {
                        (Some(a), Some(b)) => {
                            if a.time != b.time || a.value.to_bits() != b.value.to_bits() {
                                v.push(violation(
                                    self.name(),
                                    format!(
                                        "{meta_name} {kind:?}: meta-gmetad ({:?} @ {:?}) != site gmond ({:?} @ {:?})",
                                        b.value, b.time, a.value, a.time
                                    ),
                                ));
                            }
                        }
                        (Some(_), None) => v.push(violation(
                            self.name(),
                            format!("{meta_name} {kind:?}: site has a sample the meta-gmetad lost"),
                        )),
                        (None, Some(_)) => v.push(violation(
                            self.name(),
                            format!("{meta_name} {kind:?}: meta-gmetad invented a sample"),
                        )),
                        (None, None) => {}
                    }
                }
            }
        }
        let meta_hosts = telemetry.meta.hosts().len();
        if meta_hosts != expected_hosts {
            v.push(violation(
                self.name(),
                format!(
                    "meta-gmetad tracks {meta_hosts} hosts but the sites have {expected_hosts}"
                ),
            ));
        }
        v
    }
}

/// No job is lost or double-run across a campaign drain: every job
/// submitted before the rolling update finishes exactly once — never
/// cancelled (the scenario cancels nothing, so a cancel means a drain
/// dropped it), never left queued or running after the post-campaign
/// drain, with exactly one `job <name>` completion span in the
/// scheduler trace, and the accounted core-seconds equal the sum over
/// those spans of `cores x duration`.
pub struct CampaignNoJobLost;

impl Invariant for CampaignNoJobLost {
    fn name(&self) -> &'static str {
        "campaign.no-job-lost"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let rec = &outcome.campaign;

        for (name, state) in &rec.job_states {
            match state {
                JobState::Cancelled => v.push(violation(
                    self.name(),
                    format!("job {name} was cancelled: a drain dropped it instead of requeueing"),
                )),
                JobState::Queued | JobState::Running { .. } => v.push(violation(
                    self.name(),
                    format!("job {name} still {state:?} after the post-campaign drain"),
                )),
                _ => {}
            }
        }

        // Exactly one completion span per submitted job: zero means the
        // job vanished, two means a requeue re-ran work it already
        // finished (stale incarnation not fenced off).
        let mut spans: BTreeMap<&str, usize> = BTreeMap::new();
        let mut span_core_seconds = 0.0f64;
        for ev in &rec.trace {
            if let TraceKind::Span { dur } = &ev.kind {
                if let Some(name) = ev.label.strip_prefix("job ") {
                    *spans.entry(name).or_default() += 1;
                    let cores = ev
                        .fields
                        .iter()
                        .find(|(k, _)| *k == "cores")
                        .and_then(|(_, f)| match f {
                            xcbc_sim::FieldValue::U64(n) => Some(*n as f64),
                            _ => None,
                        })
                        .unwrap_or(0.0);
                    span_core_seconds += cores * dur.as_secs_f64();
                }
            }
        }
        for name in &rec.submitted {
            match spans.get(name.as_str()).copied().unwrap_or(0) {
                1 => {}
                0 => v.push(violation(
                    self.name(),
                    format!("job {name} has no completion span: it was lost across a drain"),
                )),
                n => v.push(violation(
                    self.name(),
                    format!("job {name} has {n} completion spans: it ran more than once"),
                )),
            }
        }

        let accounted = rec.used_core_seconds;
        if (span_core_seconds - accounted).abs() > 1e-6 * accounted.max(1.0) {
            v.push(violation(
                self.name(),
                format!(
                    "span core-seconds ({span_core_seconds}) != accounted core-seconds \
                     ({accounted}): work was dropped or double-charged across a drain"
                ),
            ));
        }
        v
    }
}

/// No job is lost across an elastic scale-down: every job submitted to
/// the self-scaling fleet is served to completion. A cancelled job
/// means a drain dropped it instead of requeueing it, and is always a
/// violation; a job still queued or running is a violation whenever the
/// run's verdict claims demand was satisfied. Terminal states are
/// counted directly (the simulator's `jobs_finished` counts
/// cancellations as finished, which would mask exactly this bug).
pub struct ElasticNoJobLost;

impl Invariant for ElasticNoJobLost {
    fn name(&self) -> &'static str {
        "elastic.no-job-lost"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let rec = &outcome.elastic;
        let satisfied = matches!(rec.report.verdict, ElasticVerdict::Satisfied);
        let mut served = 0usize;
        for (name, state) in &rec.job_states {
            match state {
                JobState::Cancelled => v.push(violation(
                    self.name(),
                    format!(
                        "job {name} was cancelled: a scale-down drain dropped it \
                         instead of requeueing"
                    ),
                )),
                JobState::Completed { .. } | JobState::TimedOut { .. } => served += 1,
                JobState::Queued | JobState::Running { .. } => {
                    if satisfied {
                        v.push(violation(
                            self.name(),
                            format!(
                                "job {name} still {state:?} although the verdict claims \
                                 demand was satisfied"
                            ),
                        ));
                    }
                }
            }
        }
        if satisfied && served != rec.submitted.len() {
            v.push(violation(
                self.name(),
                format!(
                    "submitted {} jobs but only {served} reached a served terminal state",
                    rec.submitted.len()
                ),
            ));
        }
        v
    }
}

/// The autoscaler does exactly what its policy dictates and the run
/// ends in a consistent verdict: replaying the recorded metric samples
/// through a fresh autoscaler must reproduce every recorded decision
/// (across abort/resume segments), the provisioned fleet stays within
/// the `[floor, ceiling]` policy bounds at every tick, and the final
/// tick's sample agrees with the verdict — demand satisfied means an
/// empty queue and an idle fleet, at-max-size means the reported
/// backlog is what the last sample actually saw.
pub struct ElasticConverges;

impl Invariant for ElasticConverges {
    fn name(&self) -> &'static str {
        "elastic.converges"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let rec = &outcome.elastic;
        let policy = rec.report.policy;

        let replayed = Autoscaler::replay(policy, rec.ticks.iter().map(|t| t.sample));
        for (t, want) in rec.ticks.iter().zip(&replayed) {
            if t.decision != *want {
                v.push(violation(
                    self.name(),
                    format!(
                        "tick {}: recorded decision `{}` but the policy dictates `{}` \
                         for sample {:?}",
                        t.tick,
                        t.decision.render(),
                        want.render(),
                        t.sample
                    ),
                ));
            }
        }

        for t in &rec.ticks {
            let provisioned = t.sample.capacity + t.sample.booting;
            if provisioned < policy.min_nodes || provisioned > policy.max_nodes {
                v.push(violation(
                    self.name(),
                    format!(
                        "tick {}: {provisioned} node(s) provisioned, outside the \
                         [{}, {}] policy bounds",
                        t.tick, policy.min_nodes, policy.max_nodes
                    ),
                ));
            }
        }

        if let Some(last) = rec.ticks.last() {
            match rec.report.verdict {
                ElasticVerdict::Satisfied => {
                    if last.sample.queue_depth != 0 || last.sample.busy_nodes != 0 {
                        v.push(violation(
                            self.name(),
                            format!(
                                "verdict says demand was satisfied but the last tick \
                                 sampled queue={} busy={}",
                                last.sample.queue_depth, last.sample.busy_nodes
                            ),
                        ));
                    }
                }
                ElasticVerdict::AtMaxSize { queued } => {
                    if queued != last.sample.queue_depth {
                        v.push(violation(
                            self.name(),
                            format!(
                                "verdict reports {queued} jobs queued at max size but \
                                 the last tick sampled queue={}",
                                last.sample.queue_depth
                            ),
                        ));
                    }
                }
            }
        }
        v
    }
}

/// The fleet converges to the campaign's target package set — or the
/// campaign reports exactly which nodes did not and why. Every executed
/// wave must carry a skew-probe summary, every node whose final
/// database still needs the target must be accounted for (listed as
/// failed, or the campaign halted/rolled back before reaching it), and
/// no node reported as failed may actually be converged.
pub struct CampaignConverges;

impl Invariant for CampaignConverges {
    fn name(&self) -> &'static str {
        "campaign.converges"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let rec = &outcome.campaign;
        let report = &rec.report;

        for wave in &report.waves {
            if wave.skew.is_none() {
                v.push(violation(
                    self.name(),
                    format!("wave {} committed without a version-skew probe", wave.index),
                ));
            }
        }

        let failed: BTreeMap<&str, &str> = report.checkpoint.failed().collect();
        let completed = matches!(
            report.outcome,
            xcbc_core::campaign::CampaignOutcome::Completed
        );
        let solver = Solver::new(&rec.target.repos, &rec.target.config);
        for (node, db) in &rec.final_dbs {
            let converged = match solver.resolve(db, &rec.target.request) {
                Ok(solution) => solution.is_empty(),
                Err(_) => false,
            };
            if converged {
                if let Some(reason) = failed.get(node.as_str()) {
                    v.push(violation(
                        self.name(),
                        format!("node {node} is converged but reported as failed ({reason})"),
                    ));
                }
            } else if completed && !failed.contains_key(node.as_str()) {
                v.push(violation(
                    self.name(),
                    format!(
                        "node {node} did not reach the target package set and the \
                         completed campaign does not report why"
                    ),
                ));
            }
        }
        v
    }
}

/// Causal-analysis coherence: re-running the trace analyser over any
/// recorded trace is byte-stable (same render, flame, and folded
/// stacks), and the critical path telescopes exactly — every segment's
/// blocked gap plus busy time sums to the trace's span makespan.
pub struct AnalysisCriticalPath;

impl Invariant for AnalysisCriticalPath {
    fn name(&self) -> &'static str {
        "analyze.critical-path"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let mut traces: Vec<(String, &[TraceEvent])> = Vec::new();
        for site in &outcome.fleet.sites {
            if let Ok(report) = &site.result {
                traces.push((format!("fleet/{}", site.name), &report.trace));
            }
        }
        traces.push(("sched".to_string(), &outcome.sched.trace));
        traces.push(("campaign".to_string(), &outcome.campaign.trace));
        traces.push((
            "resume/uninterrupted".to_string(),
            &outcome.resume.uninterrupted_trace,
        ));
        traces.push(("resume/resumed".to_string(), &outcome.resume.resumed_trace));
        for (label, trace) in traces {
            let a = xcbc_sim::analyze(trace);
            let b = xcbc_sim::analyze(trace);
            if a.render() != b.render() || a.flame() != b.flame() || a.folded() != b.folded() {
                v.push(violation(
                    self.name(),
                    format!("{label}: analysis output not replay-stable"),
                ));
                continue;
            }
            if a.path.total() != a.makespan {
                v.push(violation(
                    self.name(),
                    format!(
                        "{label}: critical path total {} != span makespan {} \
                         ({} segment(s), busy {}, blocked {})",
                        xcbc_sim::analyze::fmt_secs(a.path.total()),
                        xcbc_sim::analyze::fmt_secs(a.makespan),
                        a.path.segments.len(),
                        xcbc_sim::analyze::fmt_secs(a.path.busy()),
                        xcbc_sim::analyze::fmt_secs(a.path.blocked()),
                    ),
                ));
            }
            if a.spans > 0 && a.path.segments.is_empty() {
                v.push(violation(
                    self.name(),
                    format!("{label}: {} span(s) but an empty critical path", a.spans),
                ));
            }
        }
        v
    }
}

/// Service admission soundness: the accept/reject stream `xcbcd`
/// produced must be exactly what a clean admission controller derives
/// from the recorded request stream and quota table — dispositions
/// conserve (accepted + rejected == submitted, per tenant and in
/// total), no tenant is ever admitted past its bucket (a leaked quota
/// token shows up as a decision mismatch), and the journal carries no
/// residue of rejected requests (every entry matches the recomputed
/// accepted stream at its sequence number).
pub struct SvcAdmission;

impl Invariant for SvcAdmission {
    fn name(&self) -> &'static str {
        "svc.admission"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let svc = &outcome.svc;
        let report = &svc.report;

        // disposition conservation, in total and per tenant
        if report.accepted + report.rejected_quota + report.rejected_backpressure
            != svc.requests.len()
        {
            v.push(violation(
                self.name(),
                format!(
                    "dispositions do not conserve: accepted={} + quota={} + backpressure={} != submitted={}",
                    report.accepted,
                    report.rejected_quota,
                    report.rejected_backpressure,
                    svc.requests.len()
                ),
            ));
        }
        for (tenant, (acc, quota, bp)) in &report.tenant_dispositions {
            let presented = svc.requests.iter().filter(|r| &r.tenant == tenant).count() as u64;
            if acc + quota + bp != presented {
                v.push(violation(
                    self.name(),
                    format!(
                        "tenant {tenant}: dispositions {acc}+{quota}+{bp} != {presented} presented"
                    ),
                ));
            }
        }

        // re-derive every decision with a clean controller (no mutation)
        let mut clean = AdmissionController::new(svc.config.quotas.clone(), svc.config.queue_limit);
        let mut expected_accepted: Vec<&xcbc_svc::SvcRequest> = Vec::new();
        for (i, (req, resp)) in svc.requests.iter().zip(&report.responses).enumerate() {
            let expected = clean.admit(&req.tenant, req.tick);
            match (expected, resp.disposition) {
                (Ok(()), Disposition::Accepted { seq }) => {
                    if seq != expected_accepted.len() as u64 {
                        v.push(violation(
                            self.name(),
                            format!(
                                "request {i} ({}): accepted under seq {seq}, expected {}",
                                req.tenant,
                                expected_accepted.len()
                            ),
                        ));
                    }
                    expected_accepted.push(req);
                }
                (Err(want), Disposition::Rejected(got)) => {
                    if want != got {
                        v.push(violation(
                            self.name(),
                            format!(
                                "request {i} ({}): rejected {} but a clean controller says {}",
                                req.tenant,
                                got.as_str(),
                                want.as_str()
                            ),
                        ));
                    }
                }
                (Ok(()), Disposition::Rejected(got)) => {
                    v.push(violation(
                        self.name(),
                        format!(
                            "request {i} ({}): rejected {} but a clean controller admits it",
                            req.tenant,
                            got.as_str()
                        ),
                    ));
                    // keep bucket accounting aligned with the clean model
                    expected_accepted.push(req);
                }
                (Err(want), Disposition::Accepted { .. }) => {
                    v.push(violation(
                        self.name(),
                        format!(
                            "request {i} ({}): admitted past its quota (a clean controller rejects it {})",
                            req.tenant,
                            want.as_str()
                        ),
                    ));
                }
            }
            if v.len() >= 8 {
                return v; // one mutation floods; the first few decisions tell the story
            }
        }

        // rejected requests leave no journal residue: every journaled
        // entry must match the recomputed accepted stream at its seq
        match Journal::parse(&report.journal_text) {
            Err(e) => v.push(violation(
                self.name(),
                format!("journal does not parse: {e}"),
            )),
            Ok(journal) => {
                for entry in &journal.entries {
                    match expected_accepted.get(entry.seq as usize) {
                        None => v.push(violation(
                            self.name(),
                            format!(
                                "journal entry seq {} is beyond the {} accepted request(s): rejected residue",
                                entry.seq,
                                expected_accepted.len()
                            ),
                        )),
                        Some(req) => {
                            if entry.tenant != req.tenant || entry.digest != req.op.digest() {
                                v.push(violation(
                                    self.name(),
                                    format!(
                                        "journal entry seq {}: ({}, digest {}) does not match the accepted request ({}, digest {})",
                                        entry.seq,
                                        entry.tenant,
                                        entry.digest,
                                        req.tenant,
                                        req.op.digest()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        v
    }
}

/// Service replay fidelity: re-executing the journal single-threaded
/// must reproduce every recorded response-body digest and the exact
/// cache-counter totals, whatever worker count originally served the
/// stream — and the journal itself must account for every accepted
/// request (a dropped entry is unaccounted work).
pub struct SvcReplay;

impl Invariant for SvcReplay {
    fn name(&self) -> &'static str {
        "svc.replay"
    }

    fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
        let mut v = Vec::new();
        let svc = &outcome.svc;
        match xcbc_svc::replay(&svc.report.journal_text) {
            Err(e) => v.push(violation(
                self.name(),
                format!("journal does not parse: {e}"),
            )),
            Ok(replayed) => {
                for m in replayed.mismatches.iter().take(8) {
                    v.push(violation(self.name(), m.clone()));
                }
                // every replayed body must also byte-match the response
                // the live run handed back (digest equality is already
                // checked; this pins the journal to the actual bodies)
                let bodies = svc.report.accepted_bodies();
                for (seq, _tenant, body) in &replayed.responses {
                    match bodies.get(seq) {
                        None => v.push(violation(
                            self.name(),
                            format!("replayed seq {seq} has no live response"),
                        )),
                        Some(live) => {
                            if &live.body != body {
                                v.push(violation(
                                    self.name(),
                                    format!(
                                        "seq {seq}: replayed body {:?} != live body {:?}",
                                        body, live.body
                                    ),
                                ));
                            }
                        }
                    }
                    if v.len() >= 8 {
                        break;
                    }
                }
            }
        }
        v
    }
}
