//! The `xcbcd` engine: serial admission, then one executor that runs
//! the journal on a bounded worker pool — and again, on one worker, to
//! replay it.
//!
//! ## The determinism contract
//!
//! A served stream must be reproducible after the fact from its journal
//! alone, byte for byte, no matter how many workers originally ran it.
//! Three design rules deliver that:
//!
//! 1. **Admission is serial.** Requests are decided in arrival order
//!    against token buckets and a tick-windowed queue limit (see
//!    [`crate::admission`]); sequence numbers, the reject stream, and
//!    the journal are fixed before any worker touches anything.
//! 2. **Execution is serial *per tenant*.** Each tenant is one
//!    [`xcbc_sim::pool`] item that owns its state (node databases) and
//!    runs its requests in sequence order; whichever worker claims the
//!    tenant, that state is only ever touched by its own serial stream.
//! 3. **Cache keys are tenant-salted.** Shard counters move only under
//!    a tenant's own keys, and a tenant's hit/miss outcomes depend only
//!    on its own serial history — so even bank-wide counter totals are
//!    scheduling-independent and belong in the journal footer.
//!
//! Ledger-derived operations (mon snapshots, trace fetches) are pure
//! functions of the journal prefix before the request's own entry, so
//! the executor derives them from the journal alone — whether `serve`
//! just wrote it or `replay` just parsed it.

use crate::admission::{AdmissionController, QuotaTable};
use crate::api::{body_digest, Disposition, RejectReason, SvcOp, SvcRequest, SvcResponse};
use crate::journal::{Journal, JournalEntry};
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_core::deploy::{deploy_xnit_overlay_kept, limulus_factory_image, OverlayImages};
use xcbc_core::xnit::{xnit_repository, XnitSetupMethod};
use xcbc_fault::{Mutation, RecordError};
use xcbc_rpm::RpmDb;
use xcbc_sim::{pool, self_profiler, MetricRegistry, SECTION_SVC_SERVE};
use xcbc_yum::{CacheStats, Repository, ShardedSolveCache, SolveRequest, Solver, YumConfig};

/// The largest cache shard count a run may use. The cache builds every
/// shard up front, so the command line and the journal reader refuse
/// more; nothing needs more than a handful.
pub const MAX_SHARDS: usize = 1024;

/// How the service is shaped for one run.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Worker-pool width (clamped to at least 1). Changes wall clock,
    /// never output.
    pub workers: usize,
    /// Cache shard count (clamped to at least 1).
    pub shards: usize,
    /// Global admission window: max requests accepted per arrival tick.
    pub queue_limit: usize,
    /// Per-tenant token buckets.
    pub quotas: QuotaTable,
    /// The stream seed, journaled in the header.
    pub seed: u64,
    /// A deliberately planted defect for invariant self-tests.
    pub mutation: Option<Mutation>,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            workers: 1,
            shards: 4,
            queue_limit: 8,
            quotas: QuotaTable::new(),
            seed: 0,
            mutation: None,
        }
    }
}

/// Everything one served stream produced.
#[derive(Debug)]
pub struct SvcReport {
    /// One response per submitted request, in submission order.
    pub responses: Vec<SvcResponse>,
    /// The rendered journal (post-mutation, when one was planted).
    pub journal_text: String,
    /// Requests accepted (== journal entries, absent mutations).
    pub accepted: usize,
    /// Requests rejected `quota-exceeded`.
    pub rejected_quota: usize,
    /// Requests rejected `backpressure`.
    pub rejected_backpressure: usize,
    /// Per-tenant `(accepted, quota-rejected, backpressure-rejected)`.
    pub tenant_dispositions: BTreeMap<String, (u64, u64, u64)>,
    /// Per-shard cache counters after the run.
    pub shard_stats: Vec<CacheStats>,
    /// Worker-pool width that served the run.
    pub workers: usize,
}

/// The tenant's repo view: every tenant currently sees the XNIT
/// repository (per-tenant overlays would slot in here). It is fixed for
/// a run, so `serve` and `replay` each build one [`Solver`] over it and
/// every tenant's solves share that view.
fn tenant_repos() -> Vec<Repository> {
    vec![xnit_repository()]
}

/// A tenant's mutable service-side state: its little cluster, and
/// every node image its deploys have overlaid this run. Most deploys
/// start from an image an earlier one produced, and the run's
/// repository view is fixed, so the store is kept for the whole run.
struct TenantState {
    salt: u64,
    nodes: BTreeMap<String, RpmDb>,
    images: OverlayImages,
}

impl TenantState {
    fn new(tenant: &str) -> TenantState {
        let mut nodes = BTreeMap::new();
        nodes.insert(format!("{tenant}-fe"), limulus_factory_image());
        nodes.insert(format!("{tenant}-c0"), limulus_factory_image());
        TenantState {
            salt: ShardedSolveCache::tenant_salt(tenant),
            nodes,
            images: OverlayImages::default(),
        }
    }

    fn solve(&self, req: &SolveRequest, bank: &ShardedSolveCache, solver: &Solver<'_>) -> String {
        let frontend = self.nodes.values().next().expect("tenant has a frontend");
        match bank.get_or_solve(self.salt, solver, frontend, req) {
            Ok(sol) => {
                let mut nevras: Vec<String> = sol
                    .installs
                    .iter()
                    .chain(sol.upgrades.iter())
                    .map(|p| p.nevra.to_string())
                    .collect();
                let total = nevras.len();
                if total > 12 {
                    nevras.truncate(12);
                    nevras.push(format!("+{}", total - 12));
                }
                format!(
                    "solve ok installs={} upgrades={} [{}]",
                    sol.installs.len(),
                    sol.upgrades.len(),
                    nevras.join(",")
                )
            }
            Err(e) => format!("solve err {e}"),
        }
    }

    fn deploy(&mut self, bank: &ShardedSolveCache) -> String {
        let before: usize = self.nodes.values().map(|db| db.len()).sum();
        let shard = Arc::clone(bank.home_shard(self.salt));
        match deploy_xnit_overlay_kept(
            &self.nodes,
            XnitSetupMethod::RepoRpm,
            Some(shard),
            self.salt,
            &self.images,
        ) {
            Ok(report) => {
                self.nodes = report.node_dbs;
                let after: usize = self.nodes.values().map(|db| db.len()).sum();
                format!(
                    "deploy ok nodes={} installed={} compat={:.1} preserved={}",
                    self.nodes.len(),
                    after - before,
                    report.compat.score * 100.0,
                    report.preexisting_preserved
                )
            }
            Err(e) => format!("deploy err {e}"),
        }
    }
}

/// The accepted-request ledger over a journal prefix — the state
/// mon/trace bodies are derived from.
#[derive(Debug, Default)]
struct Ledger {
    total: u64,
    per_tenant: BTreeMap<String, Vec<u64>>,
}

impl Ledger {
    fn record(&mut self, tenant: &str, seq: u64) {
        self.total += 1;
        self.per_tenant
            .entry(tenant.to_string())
            .or_default()
            .push(seq);
    }

    fn mon_body(&self, tenant: &str) -> String {
        let mine = self.per_tenant.get(tenant).map_or(0, Vec::len);
        format!(
            "mon ok accepted={} tenants={} mine={mine}",
            self.total,
            self.per_tenant.len()
        )
    }

    fn trace_body(&self, tenant: &str) -> String {
        match self.per_tenant.get(tenant) {
            None => "trace ok n=0 seqs=-".to_string(),
            Some(seqs) => {
                let tail: Vec<String> = seqs
                    .iter()
                    .rev()
                    .take(8)
                    .rev()
                    .map(u64::to_string)
                    .collect();
                format!("trace ok n={} seqs={}", seqs.len(), tail.join(","))
            }
        }
    }
}

/// What a tenant's serial stream runs for one journal entry.
enum Work<'a> {
    /// A solve against the tenant's frontend database.
    Solve(&'a SolveRequest),
    /// An XNIT overlay deploy onto the tenant's nodes.
    Deploy,
    /// A ledger-derived body, fixed from the journal prefix.
    Ready(String),
}

/// Execute journal entries: mon/trace bodies come from the ledger over
/// the journal prefix, and each tenant's solves and deploys run as one
/// [`pool`] item, serially in journal order, against a fresh bank and
/// one shared solver view. Returns one body per entry, indexed by
/// position in `entries` (never by `seq`: a replayed journal may carry
/// gaps or duplicates there), and the bank the run left behind.
fn execute(
    entries: &[JournalEntry],
    shards: usize,
    workers: usize,
) -> (Vec<String>, ShardedSolveCache) {
    let mut ledger = Ledger::default();
    let mut streams: BTreeMap<&str, Vec<(usize, Work<'_>)>> = BTreeMap::new();
    for (i, entry) in entries.iter().enumerate() {
        let work = match &entry.op {
            SvcOp::Solve(req) => Work::Solve(req),
            SvcOp::Deploy => Work::Deploy,
            SvcOp::MonSnapshot => Work::Ready(ledger.mon_body(&entry.tenant)),
            SvcOp::TraceFetch => Work::Ready(ledger.trace_body(&entry.tenant)),
        };
        ledger.record(&entry.tenant, entry.seq);
        streams.entry(&entry.tenant).or_default().push((i, work));
    }

    let bank = ShardedSolveCache::new(shards);
    let repos = tenant_repos();
    let yum_config = YumConfig::default();
    let solver = Solver::new(&repos, &yum_config);
    let executed = pool::map(workers, streams, |(tenant, items)| {
        let mut state = TenantState::new(tenant);
        items
            .into_iter()
            .map(|(i, work)| {
                let body = match work {
                    Work::Solve(req) => state.solve(req, &bank, &solver),
                    Work::Deploy => state.deploy(&bank),
                    Work::Ready(body) => body,
                };
                (i, body)
            })
            .collect::<Vec<_>>()
    });
    let mut bodies = vec![String::new(); entries.len()];
    for (i, body) in executed.into_iter().flatten() {
        bodies[i] = body;
    }
    (bodies, bank)
}

/// Serve a request stream: serial admission, per-tenant concurrent
/// execution, journaled outcome. See the module docs for
/// the determinism contract.
pub fn serve(requests: &[SvcRequest], config: &SvcConfig) -> SvcReport {
    self_profiler().time(SECTION_SVC_SERVE, || serve_inner(requests, config))
}

fn serve_inner(requests: &[SvcRequest], config: &SvcConfig) -> SvcReport {
    let workers = config.workers.max(1);
    let shards = config.shards.max(1);
    let mut admission = AdmissionController::new(config.quotas.clone(), config.queue_limit)
        .with_mutation(config.mutation);
    let mut journal = Journal {
        seed: config.seed,
        shards,
        quota_lines: config
            .quotas
            .to_string()
            .lines()
            .map(str::to_string)
            .collect(),
        ..Journal::default()
    };

    let mut responses: Vec<SvcResponse> = Vec::with_capacity(requests.len());
    // journal position → index into `responses`
    let mut entry_slot: Vec<usize> = Vec::new();
    let mut tenant_dispositions: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let (mut rejected_quota, mut rejected_backpressure) = (0usize, 0usize);

    for req in requests {
        let slot = tenant_dispositions.entry(req.tenant.clone()).or_default();
        match admission.admit(&req.tenant, req.tick) {
            Err(reason) => {
                match reason {
                    RejectReason::QuotaExceeded => {
                        rejected_quota += 1;
                        slot.1 += 1;
                    }
                    RejectReason::Backpressure => {
                        rejected_backpressure += 1;
                        slot.2 += 1;
                    }
                }
                responses.push(SvcResponse {
                    tenant: req.tenant.clone(),
                    disposition: Disposition::Rejected(reason),
                    body: format!("rejected {}", reason.as_str()),
                });
            }
            Ok(()) => {
                let seq = journal.entries.len() as u64;
                slot.0 += 1;
                journal.entries.push(JournalEntry {
                    seq,
                    tenant: req.tenant.clone(),
                    digest: req.op.digest(),
                    seed: req.seed,
                    op: req.op.clone(),
                });
                entry_slot.push(responses.len());
                responses.push(SvcResponse {
                    tenant: req.tenant.clone(),
                    disposition: Disposition::Accepted { seq },
                    body: String::new(),
                });
            }
        }
    }
    let accepted = journal.entries.len();

    // ---- execution, then footer + mutations ----
    let (bodies, bank) = execute(&journal.entries, shards, workers);
    for ((entry, slot), body) in journal.entries.iter().zip(entry_slot).zip(bodies) {
        responses[slot].body = body;
        journal
            .response_digests
            .push((entry.seq, responses[slot].body_digest()));
    }
    journal.set_cache_totals(&bank.stats());
    if config.mutation == Some(Mutation::SvcDropJournalEntry) && !journal.entries.is_empty() {
        let victim = journal.entries.len() / 2;
        journal.entries.remove(victim);
        // the dropped entry's `end entries` count must still agree with
        // what the (mutated) journal carries, or parsing would reject
        // it before the replay invariant ever ran
    }

    SvcReport {
        responses,
        journal_text: journal.render(),
        accepted,
        rejected_quota,
        rejected_backpressure,
        tenant_dispositions,
        shard_stats: bank.shard_stats(),
        workers,
    }
}

impl SvcReport {
    /// Total submitted requests.
    pub fn submitted(&self) -> usize {
        self.responses.len()
    }

    /// Bank-wide cache totals.
    pub fn cache_totals(&self) -> CacheStats {
        self.shard_stats.iter().copied().sum()
    }

    /// The accepted responses keyed by journal sequence number.
    pub fn accepted_bodies(&self) -> BTreeMap<u64, &SvcResponse> {
        self.responses
            .iter()
            .filter_map(|r| match r.disposition {
                Disposition::Accepted { seq } => Some((seq, r)),
                Disposition::Rejected(_) => None,
            })
            .collect()
    }

    /// Export the run's counters as `xcbc_svc_*` families.
    pub fn register_metrics(&self, registry: &mut MetricRegistry) {
        for (tenant, (acc, quota, bp)) in &self.tenant_dispositions {
            for (disposition, value) in [
                ("accepted", *acc),
                ("quota-exceeded", *quota),
                ("backpressure", *bp),
            ] {
                registry.set_counter(
                    "xcbc_svc_requests_total",
                    "Requests presented to the multi-tenant service",
                    &[("tenant", tenant), ("disposition", disposition)],
                    value,
                );
            }
        }
        registry.set_gauge(
            "xcbc_svc_journal_entries",
            "Accepted requests journaled this run",
            &[],
            self.accepted as f64,
        );
        for (i, stats) in self.shard_stats.iter().enumerate() {
            let shard = i.to_string();
            registry.set_counter(
                "xcbc_svc_cache_hits_total",
                "Tenant-salted depsolve lookups answered from a service cache shard",
                &[("shard", &shard)],
                stats.hits,
            );
            registry.set_counter(
                "xcbc_svc_cache_misses_total",
                "Tenant-salted depsolve lookups that fell through to a real solve",
                &[("shard", &shard)],
                stats.misses,
            );
            registry.set_gauge(
                "xcbc_svc_shard_entries",
                "Distinct solutions currently stored in a service cache shard",
                &[("shard", &shard)],
                stats.entries as f64,
            );
        }
    }

    /// Human-readable run summary (the `xcbc svc` transcript body).
    pub fn summary(&self) -> String {
        let cache = self.cache_totals();
        let mut out = format!(
            "xcbcd: {} requests, {} tenants, {} workers\n\
             admission: accepted={} rejected: quota={} backpressure={}\n\
             cache: hits={} misses={} entries={} hit-rate={:.0}%\n",
            self.submitted(),
            self.tenant_dispositions.len(),
            self.workers,
            self.accepted,
            self.rejected_quota,
            self.rejected_backpressure,
            cache.hits,
            cache.misses,
            cache.entries,
            cache.hit_rate() * 100.0,
        );
        let occupancy: Vec<String> = self
            .shard_stats
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}:{}", s.entries))
            .collect();
        out.push_str(&format!("shard occupancy: {}\n", occupancy.join(" ")));
        for (tenant, (acc, quota, bp)) in &self.tenant_dispositions {
            out.push_str(&format!(
                "tenant {tenant}: accepted={acc} quota-rejected={quota} backpressured={bp}\n"
            ));
        }
        out
    }
}

/// The single-threaded replayer's verdict on one journal.
#[derive(Debug)]
pub struct ReplayReport {
    /// `(seq, tenant, body)` for every replayed entry, in order.
    pub responses: Vec<(u64, String, String)>,
    /// Per-shard cache counters after the replay.
    pub shard_stats: Vec<CacheStats>,
    /// Every discrepancy between the replay and the journal's footer;
    /// empty means the journal is self-consistent.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// Did the replay reproduce the journal exactly?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Bank-wide cache totals of the replay.
    pub fn cache_totals(&self) -> CacheStats {
        self.shard_stats.iter().copied().sum()
    }

    /// One-line verdict plus mismatches, for `xcbcd --replay`.
    pub fn render(&self) -> String {
        if self.is_clean() {
            let cache = self.cache_totals();
            format!(
                "replay ok: {} responses reproduced, cache hits={} misses={} entries={}\n",
                self.responses.len(),
                cache.hits,
                cache.misses,
                cache.entries
            )
        } else {
            let mut out = format!("replay FAILED: {} mismatch(es)\n", self.mismatches.len());
            for m in &self.mismatches {
                out.push_str(&format!("  {m}\n"));
            }
            out
        }
    }
}

/// Re-execute a journal with `serve`'s executor on one worker and
/// verify it against its own footer: every response body must digest
/// to what the original run recorded, and the final cache-counter
/// totals must match. This is `xcbcd --replay LOG`.
pub fn replay(journal_text: &str) -> Result<ReplayReport, RecordError> {
    let journal = Journal::parse(journal_text)?;
    let (bodies, bank) = execute(&journal.entries, journal.shards, 1);
    let responses: Vec<(u64, String, String)> = journal
        .entries
        .iter()
        .zip(bodies)
        .map(|(entry, body)| (entry.seq, entry.tenant.clone(), body))
        .collect();

    let mut mismatches = Vec::new();
    if journal.entries.len() != journal.response_digests.len() {
        mismatches.push(format!(
            "journal carries {} entries but {} response digests",
            journal.entries.len(),
            journal.response_digests.len()
        ));
    }
    let replayed: BTreeMap<u64, &str> = responses
        .iter()
        .map(|(seq, _, body)| (*seq, body.as_str()))
        .collect();
    for (seq, recorded) in &journal.response_digests {
        match replayed.get(seq) {
            None => mismatches.push(format!("seq {seq}: recorded response has no journal entry")),
            Some(body) => {
                let digest = body_digest(body);
                if digest != *recorded {
                    mismatches.push(format!(
                        "seq {seq}: replayed body digest {digest} != recorded {recorded}"
                    ));
                }
            }
        }
    }
    let totals = bank.stats();
    let recorded = journal.cache_totals;
    if (totals.hits, totals.misses, totals.entries) != recorded {
        mismatches.push(format!(
            "cache totals: replay (hits={} misses={} entries={}) != recorded (hits={} misses={} entries={})",
            totals.hits, totals.misses, totals.entries, recorded.0, recorded.1, recorded.2
        ));
    }

    Ok(ReplayReport {
        responses,
        shard_stats: bank.shard_stats(),
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TenantQuota;

    fn quotas() -> QuotaTable {
        let mut q = QuotaTable::new();
        q.set("campus-a", TenantQuota::new(4, 8));
        q.set("campus-b", TenantQuota::new(4, 8));
        q
    }

    fn stream() -> Vec<SvcRequest> {
        let mut reqs = Vec::new();
        for (i, tenant) in ["campus-a", "campus-b", "campus-a", "campus-b"]
            .iter()
            .enumerate()
        {
            reqs.push(SvcRequest {
                tenant: tenant.to_string(),
                tick: i as u64,
                seed: 100 + i as u64,
                op: SvcOp::Solve(SolveRequest::install(["gromacs"])),
            });
            reqs.push(SvcRequest {
                tenant: tenant.to_string(),
                tick: i as u64,
                seed: 200 + i as u64,
                op: SvcOp::MonSnapshot,
            });
        }
        reqs.push(SvcRequest {
            tenant: "campus-a".into(),
            tick: 4,
            seed: 300,
            op: SvcOp::TraceFetch,
        });
        reqs
    }

    fn config(workers: usize) -> SvcConfig {
        SvcConfig {
            workers,
            shards: 3,
            queue_limit: 8,
            quotas: quotas(),
            seed: 42,
            mutation: None,
        }
    }

    #[test]
    fn worker_count_never_changes_output() {
        let reqs = stream();
        let base = serve(&reqs, &config(1));
        for workers in [2, 4] {
            let other = serve(&reqs, &config(workers));
            assert_eq!(other.journal_text, base.journal_text, "workers={workers}");
            assert_eq!(other.responses, base.responses, "workers={workers}");
            assert_eq!(
                other.cache_totals(),
                base.cache_totals(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn replay_reproduces_bodies_and_totals() {
        let reqs = stream();
        let report = serve(&reqs, &config(2));
        let replayed = replay(&report.journal_text).unwrap();
        assert!(replayed.is_clean(), "{}", replayed.render());
        // byte-identical bodies, not just digests
        let bodies = report.accepted_bodies();
        for (seq, _tenant, body) in &replayed.responses {
            assert_eq!(bodies[seq].body, *body, "seq {seq}");
        }
        assert_eq!(replayed.cache_totals(), report.cache_totals());
    }

    #[test]
    fn second_identical_solve_hits_the_tenant_shard() {
        let reqs = stream();
        let report = serve(&reqs, &config(2));
        let cache = report.cache_totals();
        // campus-a and campus-b each solve gromacs twice: second is a
        // per-tenant hit, never a cross-tenant one
        assert_eq!(cache.misses, 2, "{cache:?}");
        assert_eq!(cache.hits, 2, "{cache:?}");
        assert_eq!(cache.entries, 2, "one entry per tenant");
    }

    #[test]
    fn rejected_requests_leave_no_residue() {
        let mut q = QuotaTable::new();
        q.set("campus-a", TenantQuota::new(0, 1));
        let reqs: Vec<SvcRequest> = (0..4)
            .map(|i| SvcRequest {
                tenant: "campus-a".into(),
                tick: i,
                seed: i,
                op: SvcOp::Solve(SolveRequest::install(["gromacs"])),
            })
            .collect();
        let report = serve(
            &reqs,
            &SvcConfig {
                quotas: q,
                ..SvcConfig::default()
            },
        );
        assert_eq!(report.accepted, 1, "one burst token");
        assert_eq!(report.rejected_quota, 3);
        let journal = Journal::parse(&report.journal_text).unwrap();
        assert_eq!(journal.entries.len(), 1, "rejections never journal");
        assert_eq!(
            report.cache_totals().misses,
            1,
            "rejections never probe the cache"
        );
    }

    #[test]
    fn drop_journal_entry_mutation_breaks_replay() {
        let reqs = stream();
        let report = serve(
            &reqs,
            &SvcConfig {
                mutation: Some(Mutation::SvcDropJournalEntry),
                ..config(2)
            },
        );
        let replayed = replay(&report.journal_text).unwrap();
        assert!(
            !replayed.is_clean(),
            "a dropped entry must not replay clean"
        );
    }

    #[test]
    fn deploy_then_solve_round_trip() {
        let mut q = QuotaTable::new();
        q.set("campus-a", TenantQuota::new(8, 8));
        let reqs = vec![
            SvcRequest {
                tenant: "campus-a".into(),
                tick: 0,
                seed: 1,
                op: SvcOp::Deploy,
            },
            SvcRequest {
                tenant: "campus-a".into(),
                tick: 1,
                seed: 2,
                op: SvcOp::Solve(SolveRequest::install(["gromacs"])),
            },
        ];
        let report = serve(
            &reqs,
            &SvcConfig {
                quotas: q,
                ..SvcConfig::default()
            },
        );
        assert!(
            report.responses[0].body.starts_with("deploy ok"),
            "{}",
            report.responses[0].body
        );
        // after the overlay deploy, gromacs is installed: empty solution
        assert!(
            report.responses[1].body.starts_with("solve ok installs=0"),
            "{}",
            report.responses[1].body
        );
        let replayed = replay(&report.journal_text).unwrap();
        assert!(replayed.is_clean(), "{}", replayed.render());
    }

    #[test]
    fn metrics_families_register() {
        let report = serve(&stream(), &config(2));
        let mut registry = MetricRegistry::new();
        report.register_metrics(&mut registry);
        assert_eq!(
            registry.counter_value(
                "xcbc_svc_requests_total",
                &[("tenant", "campus-a"), ("disposition", "accepted")]
            ),
            Some(5)
        );
        let prom = registry.render_prometheus();
        assert!(prom.contains("xcbc_svc_cache_hits_total"), "{prom}");
        assert!(prom.contains("xcbc_svc_shard_entries"), "{prom}");
        assert!(prom.contains("xcbc_svc_journal_entries"), "{prom}");
    }
}
