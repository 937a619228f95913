//! The soak driver: run seeds, report the first violation, shrink it.

use crate::invariant::{default_invariants, Invariant, Violation};
use crate::outcome::SoakOutcome;
use crate::scenario::{Scenario, ScenarioLimits};
use xcbc_fault::Mutation;
use xcbc_sched::JobState;

/// Configuration for one [`soak`] run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// How many consecutive seeds to run.
    pub seeds: u64,
    /// First seed (`start_seed..start_seed + seeds`).
    pub start_seed: u64,
    /// Enable fault injection in generated scenarios.
    pub faults: bool,
    /// On violation, shrink to a minimal reproducing scenario.
    pub shrink: bool,
    /// Scenario size bounds and the planted mutation, if any.
    pub limits: ScenarioLimits,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seeds: 100,
            start_seed: 0,
            faults: false,
            shrink: true,
            limits: ScenarioLimits::default(),
        }
    }
}

/// The exact CLI invocation that replays one scenario deterministically.
pub fn repro_command(seed: u64, faults: bool, limits: &ScenarioLimits) -> String {
    let mut cmd = format!(
        "xcbc soak --seed {seed} --sites {} --fault-specs {} --jobs {} --updates {}",
        limits.sites, limits.fault_specs, limits.jobs, limits.updates
    );
    if faults {
        cmd.push_str(" --faults");
    }
    if let Some(m) = limits.mutation {
        cmd.push_str(" --mutation ");
        cmd.push_str(m.as_str());
    }
    cmd
}

/// The invariant suite a soak with `mutation` planted checks: the
/// default suite, plus a deliberately broken "no job ever times out"
/// invariant when the mutation is `soak.no-timeouts`.
pub fn invariants_for(mutation: Option<Mutation>) -> Vec<Box<dyn Invariant + Send + Sync>> {
    let mut suite = default_invariants();
    if mutation == Some(Mutation::SoakNoTimeouts) {
        suite.push(mutation_invariant());
    }
    suite
}

/// Generate and run one seed, returning every violation the given
/// invariant suite found.
pub fn run_seed(
    seed: u64,
    faults: bool,
    limits: &ScenarioLimits,
    invariants: &[Box<dyn Invariant + Send + Sync>],
) -> Vec<Violation> {
    let outcome = Scenario::generate(seed, faults, limits).run();
    check_outcome(&outcome, invariants)
}

/// Run every invariant over an already-collected outcome.
pub fn check_outcome(
    outcome: &SoakOutcome,
    invariants: &[Box<dyn Invariant + Send + Sync>],
) -> Vec<Violation> {
    invariants.iter().flat_map(|i| i.check(outcome)).collect()
}

/// Result of shrinking one failing seed.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The failing seed (shrinking never changes the seed — only the
    /// scenario limits, which truncate what the seed generates).
    pub seed: u64,
    /// Fault injection setting of the repro.
    pub faults: bool,
    /// Minimal limits that still reproduce the violation.
    pub limits: ScenarioLimits,
    /// Violations observed at the minimal limits.
    pub violations: Vec<Violation>,
    /// How many candidate scenarios the shrinker ran.
    pub steps: usize,
}

/// One failing seed with everything needed to reproduce and debug it.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The seed that violated an invariant.
    pub seed: u64,
    /// Violations at the original (unshrunk) limits.
    pub violations: Vec<Violation>,
    /// The shrunk repro, when shrinking was enabled.
    pub shrink: Option<ShrinkResult>,
}

/// Outcome of a whole [`soak`] run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration the run used.
    pub config: SoakConfig,
    /// Seeds that ran clean before the failure (or all of them).
    pub seeds_passed: u64,
    /// The first failing seed, if any. The run stops at the first
    /// failure: one minimal repro beats a pile of correlated ones.
    pub failure: Option<SeedFailure>,
    /// How many campaign-stage checkpoint resumes happened across the
    /// clean seeds (faulted soaks should see a nonzero count — it is
    /// the evidence that abort/resume paths were actually exercised).
    pub campaign_resumes: u64,
    /// How many elastic-stage checkpoint resumes happened across the
    /// clean seeds.
    pub elastic_resumes: u64,
    /// How many jobs elastic scale-down drains requeued across the
    /// clean seeds (a nonzero count is the evidence that drains caught
    /// running work and moved it losslessly).
    pub elastic_requeues: u64,
}

impl SoakReport {
    /// Did every seed run clean?
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Human-readable report, ending (on failure) with the exact repro
    /// command.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.failure {
            None => {
                out.push_str(&format!(
                    "soak: {} seed(s) passed ({}..{}), faults={}, campaign-resumes={}, \
                     elastic-resumes={}, elastic-requeues={}, all invariants held\n",
                    self.seeds_passed,
                    self.config.start_seed,
                    self.config.start_seed + self.config.seeds,
                    self.config.faults,
                    self.campaign_resumes,
                    self.elastic_resumes,
                    self.elastic_requeues,
                ));
            }
            Some(fail) => {
                out.push_str(&format!(
                    "soak: seed {} violated {} invariant(s) after {} clean seed(s):\n",
                    fail.seed,
                    fail.violations.len(),
                    self.seeds_passed,
                ));
                for v in &fail.violations {
                    out.push_str(&format!("  {v}\n"));
                }
                match &fail.shrink {
                    Some(shrunk) => {
                        out.push_str(&format!(
                            "shrunk to sites={} fault-specs={} jobs={} updates={} in {} step(s); \
                             {} violation(s) remain:\n",
                            shrunk.limits.sites,
                            shrunk.limits.fault_specs,
                            shrunk.limits.jobs,
                            shrunk.limits.updates,
                            shrunk.steps,
                            shrunk.violations.len(),
                        ));
                        for v in &shrunk.violations {
                            out.push_str(&format!("  {v}\n"));
                        }
                        out.push_str(&format!(
                            "repro: {}\n",
                            repro_command(shrunk.seed, shrunk.faults, &shrunk.limits)
                        ));
                    }
                    None => {
                        out.push_str(&format!(
                            "repro: {}\n",
                            repro_command(fail.seed, self.config.faults, &self.config.limits)
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Does this seed, at these limits, still violate the *same* invariant?
fn reproduces(
    seed: u64,
    faults: bool,
    limits: &ScenarioLimits,
    invariant_name: &str,
    invariants: &[Box<dyn Invariant + Send + Sync>],
    steps: &mut usize,
) -> Option<Vec<Violation>> {
    *steps += 1;
    let violations = run_seed(seed, faults, limits, invariants);
    if violations.iter().any(|v| v.invariant == invariant_name) {
        Some(violations)
    } else {
        None
    }
}

/// Greedily shrink a failing seed: lower one dimension at a time
/// (sites → fault specs → jobs → updates), keeping a smaller value only
/// if the **same invariant** still fires. Limits only truncate what the
/// seed generates, so every accepted candidate is a strict sub-scenario
/// of the original and has itself been re-run and observed to fail.
pub fn shrink(
    seed: u64,
    faults: bool,
    start: &ScenarioLimits,
    invariant_name: &str,
    invariants: &[Box<dyn Invariant + Send + Sync>],
    initial_violations: Vec<Violation>,
) -> ShrinkResult {
    let mut limits = *start;
    let mut violations = initial_violations;
    let mut steps = 0usize;

    // (accessor, floor): a fleet needs at least one site; everything
    // else can shrink to nothing.
    type Dim = fn(&mut ScenarioLimits) -> &mut usize;
    let dims: [(Dim, usize); 4] = [
        (|l| &mut l.sites, 1),
        (|l| &mut l.fault_specs, 0),
        (|l| &mut l.jobs, 0),
        (|l| &mut l.updates, 0),
    ];

    for (dim, floor) in dims {
        let current = *dim(&mut limits);
        if current <= floor {
            continue;
        }
        // Fast path: does the floor alone still reproduce?
        let mut candidate = limits;
        *dim(&mut candidate) = floor;
        if let Some(v) = reproduces(
            seed,
            faults,
            &candidate,
            invariant_name,
            invariants,
            &mut steps,
        ) {
            limits = candidate;
            violations = v;
            continue;
        }
        // Binary descent between (floor, current): find a small value
        // that still reproduces. The failure need not be monotone in
        // the limit, but every accepted value has actually been re-run.
        let mut lo = floor + 1;
        let mut hi = current;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = limits;
            *dim(&mut candidate) = mid;
            match reproduces(
                seed,
                faults,
                &candidate,
                invariant_name,
                invariants,
                &mut steps,
            ) {
                Some(v) => {
                    limits = candidate;
                    violations = v;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
    }

    ShrinkResult {
        seed,
        faults,
        limits,
        violations,
        steps,
    }
}

/// Run `config.seeds` consecutive seeds through the full stack and the
/// given invariant suite, stopping at the first failure (and shrinking
/// it if configured).
pub fn soak(config: &SoakConfig, invariants: &[Box<dyn Invariant + Send + Sync>]) -> SoakReport {
    let mut seeds_passed = 0u64;
    let mut campaign_resumes = 0u64;
    let mut elastic_resumes = 0u64;
    let mut elastic_requeues = 0u64;
    for seed in config.start_seed..config.start_seed.saturating_add(config.seeds) {
        let outcome = Scenario::generate(seed, config.faults, &config.limits).run();
        campaign_resumes += outcome.campaign.resumes as u64;
        elastic_resumes += outcome.elastic.resumes as u64;
        elastic_requeues += outcome.elastic.report.requeued_jobs as u64;
        let violations = check_outcome(&outcome, invariants);
        if violations.is_empty() {
            seeds_passed += 1;
            continue;
        }
        let shrunk = if config.shrink {
            let name = violations[0].invariant;
            Some(shrink(
                seed,
                config.faults,
                &config.limits,
                name,
                invariants,
                violations.clone(),
            ))
        } else {
            None
        };
        return SoakReport {
            config: *config,
            seeds_passed,
            failure: Some(SeedFailure {
                seed,
                violations,
                shrink: shrunk,
            }),
            campaign_resumes,
            elastic_resumes,
            elastic_requeues,
        };
    }
    SoakReport {
        config: *config,
        seeds_passed,
        failure: None,
        campaign_resumes,
        elastic_resumes,
        elastic_requeues,
    }
}

/// A deliberately broken invariant — "no job ever times out" — planted
/// by `xcbc soak --mutation soak.no-timeouts` to prove the
/// harness catches violations and shrinks them. Generated workloads
/// draw runtimes up to 1.2× the requested walltime, so timeouts are a
/// legitimate, reachable outcome that this invariant wrongly forbids.
fn mutation_invariant() -> Box<dyn Invariant + Send + Sync> {
    struct NoTimeouts;
    impl Invariant for NoTimeouts {
        fn name(&self) -> &'static str {
            "mutation.no-timeouts"
        }
        fn check(&self, outcome: &SoakOutcome) -> Vec<Violation> {
            outcome
                .sched
                .sim
                .jobs()
                .filter(|j| matches!(j.state, JobState::TimedOut { .. }))
                .map(|j| Violation {
                    invariant: "mutation.no-timeouts",
                    detail: format!(
                        "job {} ({}) timed out at its walltime limit",
                        j.id, j.request.name
                    ),
                })
                .collect()
        }
    }
    Box::new(NoTimeouts)
}
