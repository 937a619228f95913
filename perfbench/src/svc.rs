//! `svc`: a seeded multi-tenant request stream through the `xcbcd`
//! engine on one worker, served and then replayed from its journal.
//!
//! The traced run drives the same stream through the layers' public
//! functions itself (admission, salted cache keys, lookups, solves,
//! overlay deploys, journal render/parse, replay) and must reproduce the
//! served journal byte for byte.

use crate::trace::Tracer;
use crate::{digest_texts, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc::core::deploy::{deploy_xnit_overlay_salted, limulus_factory_image};
use xcbc::core::xnit::{xnit_repository, XnitSetupMethod};
use xcbc::rpm::RpmDb;
use xcbc::svc::{
    body_digest, replay, serve, AdmissionController, Journal, JournalEntry, ReplayReport,
    SvcConfig, SvcOp, SvcReport, SvcRequest, SvcWorkload,
};
use xcbc::yum::{Repository, ShardedSolveCache, SolveCache, SolveRequest, Solver, YumConfig};

pub struct Svc {
    requests: Vec<SvcRequest>,
    config: SvcConfig,
}

/// Accepted deploy requests per stream. A deploy costs the engines more
/// than any other request, and in a stream of fixed length the number
/// accepted follows the seed (186 to 239 in 4,000 requests, which moved
/// the iteration from 616 to 807 ms), so the stream is instead cut right
/// after the request that brings accepted deploys to this number, 3,400
/// to 4,000 requests into the stream depending on the seed.
const DEPLOYS: usize = 200;

pub fn setup(seed: u64, size: Size) -> Svc {
    let workload = SvcWorkload {
        tenants: 4,
        requests: size.pick(120, 6000),
        seed,
        ..SvcWorkload::default()
    };
    let config = workload.config(1);
    let mut requests = workload.generate();
    // admission is decided in arrival order, so a prefix of the stream
    // is admitted exactly as it is within the whole stream
    let mut admission = AdmissionController::new(config.quotas.clone(), config.queue_limit);
    let mut deploys = 0;
    let cut = requests.iter().position(|req| {
        let admitted = admission.admit(&req.tenant, req.tick).is_ok();
        if admitted && matches!(req.op, SvcOp::Deploy) {
            deploys += 1;
        }
        deploys == size.pick(3, DEPLOYS)
    });
    requests.truncate(cut.map_or(requests.len(), |i| i + 1));
    Svc { requests, config }
}

/// The served run's output check: every submitted request has exactly
/// one disposition, and the journal replays clean, reproducing every
/// accepted body byte for byte and the cache totals.
pub fn check_served(
    report: &SvcReport,
    submitted: usize,
    replayed: Result<ReplayReport, String>,
) -> Result<(), String> {
    let replayed = replayed.map_err(|e| format!("journal does not parse: {e}"))?;
    if !replayed.is_clean() {
        return Err(format!("replay not clean: {}", replayed.render().trim()));
    }
    let dispositions = report.accepted + report.rejected_quota + report.rejected_backpressure;
    if report.submitted() != submitted || dispositions != submitted {
        return Err(format!(
            "{submitted} submitted but {} responses, {dispositions} dispositions",
            report.submitted()
        ));
    }
    let bodies = report.accepted_bodies();
    if replayed.responses.len() != bodies.len() {
        return Err(format!(
            "replay reproduced {} of {} accepted responses",
            replayed.responses.len(),
            bodies.len()
        ));
    }
    for (seq, _, body) in &replayed.responses {
        if bodies.get(seq).map(|r| r.body.as_str()) != Some(body.as_str()) {
            return Err(format!("seq {seq}: replayed body differs from served body"));
        }
    }
    if replayed.cache_totals() != report.cache_totals() {
        return Err("replayed cache totals differ from served totals".to_string());
    }
    Ok(())
}

fn is_err_body(body: &str) -> bool {
    body.starts_with("solve err") || body.starts_with("deploy err")
}

/// Work is every submitted request answered, served or rejected: the
/// stream the service was offered, the same size for every seed.
fn outcome<'a>(
    journal: &str,
    bodies: impl Iterator<Item = &'a str>,
    accepted: usize,
    check: Result<(), String>,
) -> Outcome {
    let bodies: Vec<&str> = bodies.collect();
    let errors = bodies.iter().filter(|b| is_err_body(b)).count();
    Outcome {
        digest: digest_texts(std::iter::once(journal).chain(bodies.iter().copied())),
        work: bodies.len() as u64,
        attempted: bodies.len() as u64,
        ok: (accepted - errors) as u64,
        check,
    }
}

impl Workload for Svc {
    fn run(&self) -> Outcome {
        let report = serve(&self.requests, &self.config);
        let replayed = replay(&report.journal_text).map_err(|e| e.to_string());
        let check = check_served(&report, self.requests.len(), replayed);
        outcome(
            &report.journal_text,
            report.responses.iter().map(|r| r.body.as_str()),
            report.accepted,
            check,
        )
    }

    fn run_traced(&self, t: &mut Tracer) -> Outcome {
        let cfg = &self.config;
        let mut journal = Journal {
            seed: cfg.seed,
            shards: cfg.shards.max(1),
            quota_lines: cfg.quotas.to_string().lines().map(str::to_string).collect(),
            ..Journal::default()
        };
        // submission-order bodies; accepted ones are filled in after
        // execution through `slot_of_seq`
        let mut bodies: Vec<String> = Vec::with_capacity(self.requests.len());
        let mut slot_of_seq: Vec<usize> = Vec::new();
        let mut work: BTreeMap<&str, Vec<(u64, Option<String>)>> = BTreeMap::new();
        t.span("svc.admit", |_| {
            let mut admission = AdmissionController::new(cfg.quotas.clone(), cfg.queue_limit);
            let mut ledger = Ledger::default();
            for req in &self.requests {
                match admission.admit(&req.tenant, req.tick) {
                    Err(reason) => bodies.push(format!("rejected {}", reason.as_str())),
                    Ok(()) => {
                        let seq = journal.entries.len() as u64;
                        journal.entries.push(JournalEntry {
                            seq,
                            tenant: req.tenant.clone(),
                            digest: req.op.digest(),
                            seed: req.seed,
                            op: req.op.clone(),
                        });
                        let ready = match &req.op {
                            SvcOp::MonSnapshot => Some(ledger.mon_body(&req.tenant)),
                            SvcOp::TraceFetch => Some(ledger.trace_body(&req.tenant)),
                            _ => None,
                        };
                        ledger.record(&req.tenant, seq);
                        work.entry(&req.tenant).or_default().push((seq, ready));
                        slot_of_seq.push(bodies.len());
                        bodies.push(String::new());
                    }
                }
            }
        });
        let accepted = journal.entries.len();
        t.add("svc.accepted", accepted as f64);
        t.add("svc.rejected", (self.requests.len() - accepted) as f64);

        let bank = ShardedSolveCache::new(journal.shards);
        let repos = vec![xnit_repository()];
        let yum_config = YumConfig::default();
        let entries = &journal.entries;
        t.span("svc.execute", |t| {
            for (tenant, items) in &work {
                let mut state = Tenant::new(tenant);
                for (seq, ready) in items {
                    let body = match ready {
                        Some(body) => body.clone(),
                        None => {
                            state.execute(t, &entries[*seq as usize].op, &bank, &repos, &yum_config)
                        }
                    };
                    bodies[slot_of_seq[*seq as usize]] = body;
                }
            }
        });
        let stats = bank.stats();
        t.add("yum.cache_hits", stats.hits as f64);
        t.add("yum.cache_misses", stats.misses as f64);
        t.add("yum.cache_entries", stats.entries as f64);
        t.add("yum.hit_ratio", stats.hit_rate());

        let text = t.span("svc.journal", |_| {
            journal.response_digests = (0..accepted)
                .map(|seq| (seq as u64, body_digest(&bodies[slot_of_seq[seq]])))
                .collect();
            journal.set_cache_totals(&stats);
            journal.render()
        });
        let reparsed = t.span("svc.journal", |_| Journal::parse(&text));
        t.add("svc.journal_bytes", text.len() as f64);
        let replayed = t.span("svc.replay", |_| replay(&text));

        let check = match (reparsed, replayed) {
            (Ok(parsed), _) if parsed.render() != text => {
                Err("journal does not survive parse and render".to_string())
            }
            (Err(e), _) | (_, Err(e)) => Err(format!("journal does not parse: {e}")),
            (Ok(_), Ok(r)) if !r.is_clean() => Err(format!("replay not clean: {}", r.render())),
            (Ok(_), Ok(r)) if r.cache_totals() != stats => {
                Err("replayed cache totals differ from the re-drive's".to_string())
            }
            _ => Ok(()),
        };
        outcome(&text, bodies.iter().map(String::as_str), accepted, check)
    }
}

/// A tenant's little cluster, as the service keeps it.
struct Tenant {
    salt: u64,
    nodes: BTreeMap<String, RpmDb>,
}

impl Tenant {
    fn new(tenant: &str) -> Tenant {
        let nodes = [format!("{tenant}-fe"), format!("{tenant}-c0")]
            .into_iter()
            .map(|host| (host, limulus_factory_image()))
            .collect();
        Tenant {
            salt: ShardedSolveCache::tenant_salt(tenant),
            nodes,
        }
    }

    fn execute(
        &mut self,
        t: &mut Tracer,
        op: &SvcOp,
        bank: &ShardedSolveCache,
        repos: &[Repository],
        config: &YumConfig,
    ) -> String {
        match op {
            SvcOp::Solve(req) => self.solve(t, req, bank, repos, config),
            SvcOp::Deploy => self.deploy(t, bank),
            SvcOp::MonSnapshot | SvcOp::TraceFetch => {
                unreachable!("ledger op answered at admission")
            }
        }
    }

    fn solve(
        &self,
        t: &mut Tracer,
        req: &SolveRequest,
        bank: &ShardedSolveCache,
        repos: &[Repository],
        config: &YumConfig,
    ) -> String {
        let frontend = self.nodes.values().next().expect("tenant has a frontend");
        let key = t.span("yum.key", |_| {
            SolveCache::salted_key(self.salt, repos, config, frontend, req)
        });
        let shard = bank.shard(key);
        let solved = match t.span("yum.lookup", |_| shard.lookup(key)) {
            Some(hit) => Ok(hit),
            None => {
                t.add("yum.solve_calls", 1.0);
                match t.span("yum.solve", |_| {
                    Solver::new(repos, config).resolve(frontend, req)
                }) {
                    Ok(sol) => Ok(t.span("yum.insert", |_| shard.insert(key, sol))),
                    Err(e) => {
                        t.add("yum.solve_errors", 1.0);
                        Err(e)
                    }
                }
            }
        };
        match solved {
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

    fn deploy(&mut self, t: &mut Tracer, bank: &ShardedSolveCache) -> String {
        let before: usize = self.nodes.values().map(RpmDb::len).sum();
        let shard = Arc::clone(bank.home_shard(self.salt));
        t.add("core.overlay_calls", 1.0);
        let deployed = t.span("core.overlay", |_| {
            deploy_xnit_overlay_salted(
                &self.nodes,
                XnitSetupMethod::RepoRpm,
                Some(shard),
                self.salt,
            )
        });
        match deployed {
            Ok(report) => {
                self.nodes = report.node_dbs;
                let after: usize = self.nodes.values().map(RpmDb::len).sum();
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

/// Accepted requests so far, per tenant: what monitoring and trace
/// reads are answered from.
#[derive(Default)]
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
                let start = seqs.len().saturating_sub(8);
                let tail: Vec<String> = seqs[start..].iter().map(u64::to_string).collect();
                format!("trace ok n={} seqs={}", seqs.len(), tail.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_journal_byte_fails_the_check() {
        let svc = setup(3, Size::Tiny);
        let report = serve(&svc.requests, &svc.config);
        let clean = replay(&report.journal_text).map_err(|e| e.to_string());
        assert_eq!(check_served(&report, svc.requests.len(), clean), Ok(()));

        // flip the last digit of the first recorded response digest
        let mut bytes = report.journal_text.clone().into_bytes();
        let line = report
            .journal_text
            .find("\nresponse ")
            .expect("a response line")
            + 1;
        let end = line + report.journal_text[line..].find('\n').expect("line end") - 1;
        bytes[end] = if bytes[end] == b'0' { b'1' } else { b'0' };
        let tampered = String::from_utf8(bytes).expect("ascii journal");
        let replayed = replay(&tampered).map_err(|e| e.to_string());
        assert!(check_served(&report, svc.requests.len(), replayed).is_err());
    }
}
