//! `xcbc` — the toolkit's command-line entry point.
//!
//! ```text
//! xcbc tables              regenerate every paper table + figures
//! xcbc deploy [target]     simulate a deployment (littlefe | limulus | both,
//!       [--faults "<plan>"]  default both); --faults injects faults, e.g.
//!                            "seed=42; node.boot key=compute-0-2"
//!                            (littlefe path only: limulus rejects --faults)
//! xcbc lab [student]       run the training curriculum and print the grade sheet
//! xcbc linpack [n]         run a real HPL point on this machine (n > 0, default 512)
//! xcbc fleet               deploy the Table 3 fleet concurrently
//!       [--threads N]        worker threads (default 4)
//!       [--jsonl|--table]    emit the merged fleet trace as JSONL, or just
//!                            print the static Table 3 registry
//! xcbc compat              demo the compatibility checker on a bare cluster
//! xcbc trace [scenario]    merged event trace of a whole deployment day
//!       [--faults "<plan>"]  on one simulated timebase (scenario: littlefe)
//!       [--jsonl]            emit the raw deterministic JSONL log instead
//! xcbc trace analyze [scenario]  causal analysis of the same trace: the
//!       [--faults "<plan>"]  critical path bounding the simulated makespan
//!       [--folded|--top N]   plus ASCII flame lanes — or folded stacks /
//!                            the top-N self-time frames
//! xcbc mon [scenario]      gmond/gmetad telemetry dashboard over the same
//!       [--faults "<plan>"]  deployment day: sparkline rings, alerts,
//!       [--prom|--xml|--jsonl|--self]  span-latency table — or machine
//!                            exposition (scenario: littlefe | elastic);
//!                            --self prints the engine's own wall-clock
//!                            hot-path profile
//! xcbc soak                chaos-soak: run seeded random scenarios through
//!       [--seeds N] [--seed S]  the whole stack and check every cross-crate
//!       [--faults]           invariant; violations shrink to a minimal seed
//!       [--no-shrink]        with an exact repro command. --sites/--fault-specs/
//!       [--sites N] [--fault-specs N]  --jobs/--updates bound (and replay)
//!       [--jobs N] [--updates N]  scenario size; --mutation plants a named
//!       [--mutation NAME]    defect (self-test): campaign.drop-job |
//!                            campaign.skip-skew | elastic.drop-job |
//!                            elastic.skip-scale-up | svc.drop-journal-entry |
//!                            svc.leak-quota | soak.no-timeouts
//! xcbc campaign            drained, canaried rolling update of a live fleet
//!       [--nodes N] [--canary N] [--waves N] [--threads N]
//!       [--rollback] [--resume] [--faults "<plan>"] [--jsonl]
//! xcbc elastic             elastic fleet demo: the power-aware autoscaler
//!       [--min N] [--max N]  grows a bursty fleet from its floor to its
//!       [--ticks N]          ceiling and back, burst sites join mid-run
//!       [--faults "<plan>"]  through the shared solve cache; scale-up
//!       [--resume] [--jsonl] aborts resume from a printed checkpoint
//! xcbc svc                 serve a seeded multi-tenant request stream
//!       [--tenants N]        through xcbcd: admission-controlled solves,
//!       [--workers N]        deploys and monitoring reads over sharded
//!       [--requests N]       tenant-salted caches; prints the run summary,
//!       [--seed S]           verifies the journal by single-threaded
//!       [--shards N]         replay, and (with --journal) writes the
//!       [--journal FILE]     journal for `xcbcd --replay`
//!       [--prom]
//! xcbc exp                 sweep the open-loop workload engine over a
//!       [--spec S]           frontend x policy x load x seed grid on a
//!       [--policies a,b]     worker pool; per-variant JSONL, aggregated
//!       [--rms a,b]          CSV and utilization/wait curves land under
//!       [--loads 1.0,2.0]    results/exp-NNN/ (spec: teaching-lab |
//!       [--seeds N]          campus-research | heavy-tail). Byte-identical
//!       [--jobs N]           re-runs at any --workers count.
//!       [--nodes N] [--cores N] [--workers N] [--out DIR] [--name NAME]
//! ```
//!
//! Every command is strict: an unknown flag, a stray argument, a flag
//! missing its value or a malformed value exits 1 with a message before
//! anything runs. Counts (`--tenants`, `--workers`, `--shards`, `--nodes`,
//! `--cores`, `--seeds` on exp, `--min`) must be at least 1, and at most
//! one output selector may be given. On every command but `soak` (where
//! it is a switch) `--faults` takes a plan; on trace, trace analyze, mon,
//! campaign and elastic a bare `--faults` means the default seed-42 plan.
//! A reader that closes stdout early (`xcbc tables | head -c1`) ends the
//! output quietly: exit 0, nothing on stderr.

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use xcbc::cli::{exit_code, svc_args, Args, Stop};
use xcbc::cluster::default_alert_rules;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc::core::deploy::{
    deploy_from_scratch, deploy_from_scratch_resilient, deploy_xnit_overlay, limulus_factory_image,
};
use xcbc::core::fleet::{Fleet, FleetSite};
use xcbc::core::mon::monitor_run;
use xcbc::core::report;
use xcbc::core::scenario::{littlefe_day_one, DayOneRun};
use xcbc::core::sites::{deployed_sites, AdoptionPath};
use xcbc::core::training::{littlefe_curriculum, LabSession};
use xcbc::core::XnitSetupMethod;
use xcbc::fault::{FaultPlan, InstallCheckpoint};
use xcbc::rocks::{InstallErrorKind, ResilienceConfig};
use xcbc::sim::{events_to_jsonl, SimDuration, SimTime, TraceKind};
use xcbc::{out, outln};

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    let (cmd, rest) = match argv.as_slice() {
        [] => ("help", &argv[..]),
        [trace, analyze, rest @ ..] if trace == "trace" && analyze == "analyze" => {
            ("trace analyze", rest)
        }
        [cmd, rest @ ..] => (cmd.as_str(), rest),
    };
    exit_code(
        &format!("xcbc {cmd}"),
        run(cmd, Args::new("xcbc help", rest.to_vec())),
    )
}

/// Read `cmd`'s arguments, rejecting any it does not take, then run it.
fn run(cmd: &str, mut args: Args) -> Result<ExitCode, Stop> {
    match cmd {
        "tables" => {
            args.finish()?;
            tables()
        }
        "deploy" => {
            let faults = args.value::<String>("--faults")?;
            let target = args.positional().unwrap_or_else(|| "both".into());
            args.finish()?;
            deploy(&target, faults.as_deref())
        }
        "lab" => {
            let student = args.positional().unwrap_or_else(|| "student".into());
            args.finish()?;
            lab(&student)
        }
        "linpack" => {
            let n = match args.positional() {
                None => 512,
                Some(text) => text
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("N must be a positive integer, got {text:?}"))?,
            };
            args.finish()?;
            linpack(n)
        }
        "fleet" => {
            args.exclusive(&["--jsonl", "--table"])?;
            let jsonl = args.flag("--jsonl");
            let table = args.flag("--table");
            let threads = args.value("--threads")?.unwrap_or(4);
            args.finish()?;
            if table {
                out!("{}", report::render_table3())?;
                return Ok(ExitCode::SUCCESS);
            }
            fleet_deploy(threads, jsonl)
        }
        "compat" => {
            args.finish()?;
            compat()
        }
        "trace" => {
            let plan = fault_plan(&mut args)?;
            let jsonl = args.flag("--jsonl");
            let scenario = scenario(&mut args, &["littlefe"])?;
            args.finish()?;
            trace(&scenario, &plan, jsonl)
        }
        "trace analyze" => {
            args.exclusive(&["--folded", "--top"])?;
            let plan = fault_plan(&mut args)?;
            let folded = args.flag("--folded");
            let top = args.value("--top")?;
            let scenario = scenario(&mut args, &["littlefe"])?;
            args.finish()?;
            trace_analyze(&scenario, &plan, folded, top)
        }
        "mon" => {
            let formats = [
                ("--prom", MonFormat::Prometheus),
                ("--xml", MonFormat::GangliaXml),
                ("--jsonl", MonFormat::Jsonl),
                ("--self", MonFormat::SelfProfile),
            ];
            args.exclusive(&formats.map(|(flag, _)| flag))?;
            let plan = fault_plan(&mut args)?;
            let format = formats
                .into_iter()
                .find(|(flag, _)| args.flag(flag))
                .map_or(MonFormat::Dashboard, |(_, format)| format);
            let scenario = scenario(&mut args, &["littlefe", "elastic"])?;
            args.finish()?;
            mon(&scenario, &plan, format)
        }
        "soak" => soak_cmd(args),
        "campaign" => campaign_cmd(args),
        "elastic" => elastic_cmd(args),
        "exp" => exp_cmd(args),
        "svc" => svc_cmd(args),
        "help" | "--help" | "-h" => {
            args.finish()?;
            eprintln!(
                "usage: xcbc <tables|deploy [littlefe|limulus|both] [--faults \"<plan>\"]|lab [name]|linpack [n]|fleet [--threads N] [--jsonl|--table]|compat|trace [littlefe] [--faults \"<plan>\"] [--jsonl]|trace analyze [littlefe] [--faults \"<plan>\"] [--folded|--top N]|mon [littlefe|elastic] [--faults \"<plan>\"] [--prom|--xml|--jsonl|--self]|soak [--seeds N] [--seed S] [--faults] [--no-shrink] [--sites N] [--fault-specs N] [--jobs N] [--updates N] [--mutation campaign.drop-job|campaign.skip-skew|elastic.drop-job|elastic.skip-scale-up|svc.drop-journal-entry|svc.leak-quota|soak.no-timeouts]|campaign [--nodes N] [--canary N] [--waves N] [--threads N] [--rollback] [--resume] [--faults \"<plan>\"] [--jsonl]|elastic [--min N] [--max N] [--ticks N] [--faults \"<plan>\"] [--resume] [--jsonl]|exp [--spec teaching-lab|campus-research|heavy-tail] [--policies fifo,easy,maui] [--rms torque,slurm,sge] [--loads 1.0,2.0] [--seeds N] [--jobs N] [--nodes N] [--cores N] [--workers N] [--out DIR] [--name NAME]|svc [--tenants N] [--workers N] [--requests N] [--seed S] [--shards N] [--journal FILE] [--prom]>\n\
                 Every command rejects an unknown flag or a stray argument. On trace, trace analyze, mon, campaign and elastic a bare --faults means the default seed-42 plan."
            );
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("xcbc: unknown command {other:?} (try `xcbc help`)");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Exit 0 when `ok`, else 1.
fn status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The optional scenario positional, defaulting to the first `known` one.
fn scenario(args: &mut Args, known: &[&str]) -> Result<String, String> {
    let scenario = args.positional().unwrap_or_else(|| known[0].to_string());
    if known.contains(&scenario.as_str()) {
        return Ok(scenario);
    }
    let known: Vec<String> = known.iter().map(|k| format!("`{k}`")).collect();
    Err(format!(
        "unknown scenario {scenario:?} (try {})",
        known.join(" or ")
    ))
}

fn parse_plan(dsl: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(dsl).map_err(|e| format!("bad fault plan: {e}"))
}

/// `--faults "<plan>"` on trace, trace analyze, mon, campaign and
/// elastic: absent or bare, the default seed-42 plan.
fn fault_plan(args: &mut Args) -> Result<FaultPlan, String> {
    args.bare("--faults");
    match args.value::<String>("--faults")? {
        Some(dsl) => parse_plan(&dsl),
        None => Ok(FaultPlan::new(42)),
    }
}

/// Deploy a fleet modeled on Table 3's adoption paths: every
/// `XcbcFromScratch` row becomes a from-scratch Rocks install (on the
/// LittleFe spec, seeded per site) and every `XnitRepository` row an
/// XNIT overlay on a Limulus factory image — all sharing one solve
/// cache across `threads` workers.
fn fleet_deploy(threads: usize, jsonl: bool) -> Result<ExitCode, Stop> {
    let limulus_dbs = || -> BTreeMap<_, _> {
        limulus_hpc200()
            .nodes
            .iter()
            .map(|n| (n.hostname.clone(), limulus_factory_image()))
            .collect()
    };
    let mut fleet = Fleet::new().with_threads(threads);
    for (i, site) in deployed_sites().into_iter().enumerate() {
        fleet = fleet.add_site(match site.path {
            AdoptionPath::XcbcFromScratch => {
                FleetSite::from_scratch(site.name, littlefe_modified(), i as u64)
            }
            AdoptionPath::XnitRepository => {
                FleetSite::overlay(site.name, limulus_dbs(), XnitSetupMethod::RepoRpm)
            }
        });
    }
    let report = fleet.deploy();
    if jsonl {
        out!("{}", report.merged_jsonl())?;
    } else {
        out!("{}", report.render())?;
    }
    Ok(status(report.all_succeeded()))
}

fn tables() -> Result<ExitCode, Stop> {
    out!("{}", report::render_table1())?;
    outln!()?;
    out!("{}", report::render_table2())?;
    out!("{}", report::render_table3())?;
    outln!()?;
    out!("{}", report::render_table4())?;
    outln!()?;
    out!("{}", report::render_table5())?;
    outln!()?;
    out!("{}", report::render_figures())?;
    Ok(ExitCode::SUCCESS)
}

fn deploy(target: &str, faults: Option<&str>) -> Result<ExitCode, Stop> {
    if !["littlefe", "limulus", "both"].contains(&target) {
        return Err(format!("unknown target {target:?}").into());
    }
    if target == "limulus" && faults.is_some() {
        return Err("--faults applies only to the littlefe from-scratch path".into());
    }
    if target != "limulus" {
        match faults.map(parse_plan).transpose()? {
            Some(plan) => {
                if deploy_littlefe_with_faults(&plan)? == ExitCode::FAILURE {
                    return Ok(ExitCode::FAILURE);
                }
            }
            None => match deploy_from_scratch(&littlefe_modified()) {
                Ok(r) => outln!("{}", r.render_row())?,
                Err(e) => {
                    eprintln!("littlefe deploy failed: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            },
        }
    }
    if target != "littlefe" {
        let existing: BTreeMap<_, _> = limulus_hpc200()
            .nodes
            .iter()
            .map(|n| (n.hostname.clone(), limulus_factory_image()))
            .collect();
        match deploy_xnit_overlay(&existing, XnitSetupMethod::RepoRpm) {
            Ok(r) => outln!("{}", r.render_row())?,
            Err(e) => {
                eprintln!("limulus overlay failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// From-scratch LittleFe build under an injected fault plan. A power
/// loss aborts with a checkpoint; we resume from it the way an
/// administrator re-running the installer would, until the deployment
/// lands (possibly degraded, with a post-mortem).
fn deploy_littlefe_with_faults(plan: &FaultPlan) -> Result<ExitCode, Stop> {
    let cluster = littlefe_modified();
    let mut checkpoint = InstallCheckpoint::new();
    // each power loss strictly grows the committed set, so this
    // terminates; the cap only guards against future plan mistakes
    for _ in 0..=cluster.nodes.len() {
        match deploy_from_scratch_resilient(
            &cluster,
            plan,
            &ResilienceConfig::default(),
            checkpoint,
        ) {
            Ok(r) => {
                out!("{}", r.render())?;
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) if matches!(e.kind, InstallErrorKind::PowerLoss) => {
                eprintln!(
                    "power lost mid-install [{} node(s) committed]; resuming from checkpoint",
                    e.progress.completed.len()
                );
                checkpoint = e.progress.checkpoint.clone();
            }
            Err(e) => {
                eprintln!("littlefe deploy failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    eprintln!("littlefe deploy: gave up after repeated power losses");
    Ok(ExitCode::FAILURE)
}

fn lab(student: &str) -> Result<ExitCode, Stop> {
    let mut session = LabSession::new(student, littlefe_modified());
    session.run(&littlefe_curriculum());
    out!("{}", session.render())?;
    Ok(status(session.grade() == 1.0))
}

fn linpack(n: usize) -> Result<ExitCode, Stop> {
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
        .min(8);
    let r = xcbc::hpl::run_hpl(&xcbc::hpl::HplConfig {
        n,
        nb: 64,
        threads,
        seed: 42,
    });
    outln!("{}", r.render())?;
    Ok(status(r.passed))
}

/// One virtual day-one on a LittleFe, end to end, on a single timebase
/// (see `xcbc_core::scenario`): mirror fetch, from-scratch install under
/// the fault plan, production PXE boot, shared-cache depsolves, opening
/// workload. For a fixed plan seed the log replays byte-identically
/// (`--jsonl` emits the raw log).
fn trace(scenario: &str, plan: &FaultPlan, jsonl: bool) -> Result<ExitCode, Stop> {
    let run = littlefe_day_one(plan)?;
    if jsonl {
        out!("{}", events_to_jsonl(&run.events))?;
        return Ok(ExitCode::SUCCESS);
    }
    // per-source event count and span time, in source order
    let mut by_source: BTreeMap<&str, (u64, SimDuration)> = BTreeMap::new();
    for e in &run.events {
        let (n, span) = by_source.entry(&e.source).or_default();
        *n += 1;
        *span += e.duration();
    }
    outln!(
        "== xcbc trace: {scenario} (fault plan seed {}) ==",
        run.seed
    )?;
    for e in &run.events {
        let detail = match &e.kind {
            TraceKind::Span { dur } => format!("  [ran {dur}]"),
            TraceKind::Mark => String::new(),
            TraceKind::Counter { value } => format!("  = {value}"),
        };
        outln!(
            "[{:>10}] {:<14} {}{}",
            e.t.to_string(),
            e.source,
            e.label,
            detail
        )?;
    }
    outln!()?;
    outln!("{:<14} {:>7} {:>14}", "source", "events", "span time")?;
    for (src, (n, dur)) in by_source {
        outln!("{src:<14} {n:>7} {:>14}", dur.to_string())?;
    }
    outln!(
        "{:<14} {:>7} {:>14}",
        "total",
        run.events.len(),
        run.end().since(SimTime::ZERO).to_string()
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Causal analysis of the same deterministic day-one trace `xcbc trace`
/// prints: the critical path that bounds the simulated makespan (with
/// blocked-time attribution), per-(source, node) flame lanes, and —
/// via `--folded` — folded stacks consumable by standard flamegraph
/// tooling. `--top N` lists the N frames with the largest self time.
fn trace_analyze(
    scenario: &str,
    plan: &FaultPlan,
    folded: bool,
    top: Option<usize>,
) -> Result<ExitCode, Stop> {
    let run = littlefe_day_one(plan)?;
    let analysis = xcbc::sim::analyze(&run.events);
    if folded {
        out!("{}", analysis.folded())?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(n) = top {
        out!("{}", analysis.top(n))?;
        return Ok(ExitCode::SUCCESS);
    }
    outln!(
        "== xcbc trace analyze: {scenario} (fault plan seed {}) ==",
        run.seed
    )?;
    out!("{}", analysis.render())?;
    outln!()?;
    out!("{}", analysis.flame())?;
    Ok(ExitCode::SUCCESS)
}

/// Output formats for `xcbc mon`.
#[derive(Clone, Copy)]
enum MonFormat {
    Dashboard,
    Prometheus,
    GangliaXml,
    Jsonl,
    /// The engine's own wall-clock hot-path profile (`--self`).
    SelfProfile,
}

/// Render the process-global engine self-profile: the wall-clock timer
/// table plus its Prometheus exposition. Called after the scenario ran,
/// so the depsolve/scheduler/render/analysis sections have observations.
fn render_self_profile() -> String {
    use xcbc::sim::MetricRegistry;
    let profiler = xcbc::sim::self_profiler();
    let mut registry = MetricRegistry::new();
    profiler.register_into(&mut registry);
    format!(
        "{}\n{}",
        profiler.render_table(),
        registry.render_prometheus()
    )
}

/// Replay the deployment day (or the elastic demo fleet) through the
/// telemetry pipeline — gmond samples derived from the trace, gmetad
/// aggregation, RRD rings, threshold/heartbeat alerts — and render the
/// result.
fn mon(scenario: &str, plan: &FaultPlan, format: MonFormat) -> Result<ExitCode, Stop> {
    let run = if scenario == "elastic" {
        elastic_day(plan)?
    } else {
        littlefe_day_one(plan)?
    };
    let report = monitor_run(&run, default_alert_rules());
    match format {
        MonFormat::Dashboard => out!("{}", report.dashboard())?,
        MonFormat::Prometheus => out!("{}", report.prometheus())?,
        MonFormat::GangliaXml => out!("{}", report.ganglia_xml())?,
        MonFormat::Jsonl => out!("{}", report.jsonl())?,
        MonFormat::SelfProfile => out!("{}", render_self_profile())?,
    }
    Ok(ExitCode::SUCCESS)
}

/// `xcbc soak`: run seeded random scenarios through the whole stack and
/// check every cross-crate invariant. Exit code is the CI gate; on
/// violation the report ends with the exact command that replays the
/// (shrunk) failure deterministically.
fn soak_cmd(mut args: Args) -> Result<ExitCode, Stop> {
    use xcbc::check::{invariants_for, soak, SoakConfig};
    use xcbc::fault::Mutation;

    let mut config = SoakConfig {
        faults: args.flag("--faults"),
        shrink: !args.flag("--no-shrink"),
        ..SoakConfig::default()
    };
    let limits = &mut config.limits;
    for (flag, limit) in [
        ("--sites", &mut limits.sites),
        ("--fault-specs", &mut limits.fault_specs),
        ("--jobs", &mut limits.jobs),
        ("--updates", &mut limits.updates),
    ] {
        if let Some(n) = args.value(flag)? {
            *limit = n;
        }
    }
    if let Some(name) = args.value::<String>("--mutation")? {
        limits.mutation = Some(Mutation::parse(&name).ok_or_else(|| {
            format!(
                "unknown --mutation {name:?} (expected one of {})",
                Mutation::ALL.map(Mutation::as_str).join(", ")
            )
        })?);
    }
    if let Some(n) = args.value("--seeds")? {
        config.seeds = n;
    }
    if let Some(seed) = args.value("--seed")? {
        config.start_seed = seed;
        config.seeds = 1;
    }
    args.finish()?;

    let report = soak(&config, &invariants_for(config.limits.mutation));
    out!("{}", report.render())?;
    Ok(status(report.passed()))
}

/// `xcbc svc`: serve a seeded synthetic multi-tenant stream through the
/// xcbcd engine and verify its own journal by single-threaded replay —
/// the one-command demonstration of the service's determinism contract.
fn svc_cmd(mut args: Args) -> Result<ExitCode, Stop> {
    use xcbc::sim::MetricRegistry;
    use xcbc::svc::{replay, serve, Disposition};

    let (workload, config, journal) = svc_args(&mut args)?;
    let prom = args.flag("--prom");
    args.finish()?;

    let requests = workload.generate();
    let report = serve(&requests, &config);

    outln!(
        "xcbcd: serving seed {} ({} tenants, {} requests, {} workers, {} shards)",
        workload.seed,
        workload.tenants,
        requests.len(),
        config.workers,
        config.shards
    )?;
    for (i, (req, resp)) in requests.iter().zip(&report.responses).enumerate() {
        let disposition = match resp.disposition {
            Disposition::Accepted { seq } => format!("seq {seq}"),
            Disposition::Rejected(reason) => format!("REJECTED {}", reason.as_str()),
        };
        outln!(
            "  [{i:3}] t{:<3} {:<9} {:<24} {}",
            req.tick,
            req.tenant,
            req.op.render(),
            disposition
        )?;
    }
    outln!()?;
    out!("{}", report.summary())?;

    if prom {
        let mut registry = MetricRegistry::new();
        report.register_metrics(&mut registry);
        outln!()?;
        out!("{}", registry.render_prometheus())?;
    }

    if let Some(path) = journal {
        std::fs::write(&path, &report.journal_text)
            .map_err(|e| format!("cannot write journal {path}: {e}"))?;
        outln!("journal: {} entries written to {path}", report.accepted)?;
    }

    let verdict =
        replay(&report.journal_text).map_err(|e| format!("journal does not parse: {e}"))?;
    out!("{}", verdict.render())?;
    Ok(status(verdict.is_clean()))
}

/// `xcbc campaign`: roll a package update across a live fleet in
/// drained, canaried waves. Without `--resume`, a `campaign.drain`
/// (power/drain) fault aborts with the checkpoint printed; with it, the
/// campaign resumes from the last completed wave — exactly the way an
/// administrator re-running the tool after a machine-room power blip
/// would — and the stitched trace matches an uninterrupted run.
fn campaign_cmd(mut args: Args) -> Result<ExitCode, Stop> {
    use xcbc::core::campaign::{
        run_campaign, CampaignConfig, CampaignError, CampaignTarget, CanaryAction,
    };
    use xcbc::core::xnit_repository;
    use xcbc::fault::CampaignCheckpoint;
    use xcbc::sched::{JobRequest, ResourceManager, Slurm};
    use xcbc::yum::{SolveCache, SolveRequest, YumConfig};

    let plan = fault_plan(&mut args)?;
    let nodes = args.count("--nodes")?.unwrap_or(8);
    let config = CampaignConfig {
        canary: args.value("--canary")?.unwrap_or(1),
        waves: args.value("--waves")?.unwrap_or(3),
        threads: args.value("--threads")?.unwrap_or(1),
        on_canary_failure: if args.flag("--rollback") {
            CanaryAction::Rollback
        } else {
            CanaryAction::Halt
        },
        ..CampaignConfig::default()
    };
    let auto_resume = args.flag("--resume");
    let jsonl = args.flag("--jsonl");
    args.finish()?;

    // A Limulus-style fleet: factory images under SLURM, with a small
    // opening workload so the drains have something to wait on.
    let target = CampaignTarget {
        repos: vec![xnit_repository()],
        config: YumConfig::default(),
        request: SolveRequest::install(["gromacs"]),
    };
    let mut dbs: BTreeMap<String, _> = (0..nodes)
        .map(|i| (format!("node-{i:02}"), limulus_factory_image()))
        .collect();
    let mut rm = Slurm::new("batch", nodes, 4);
    for i in 0..nodes.min(4) {
        rm.sim_mut().submit(JobRequest::new(
            &format!("wrf-{i}"),
            1,
            4,
            4000.0,
            200.0 + 90.0 * i as f64,
        ));
    }
    rm.advance_to(10.0);

    let cache = std::sync::Arc::new(SolveCache::new());
    let mut checkpoint_text: Option<String> = None;
    let mut stitched = String::new();
    // each resume completes at least one wave, so `waves` bounds the loop
    for _ in 0..=config.waves {
        let resume_cp = checkpoint_text
            .as_deref()
            .map(CampaignCheckpoint::parse)
            .transpose()
            .map_err(|e| format!("bad checkpoint: {e}"))?;
        match run_campaign(
            &target,
            &mut dbs,
            &mut rm,
            &plan,
            &cache,
            &config,
            resume_cp.as_ref(),
        ) {
            Ok(report) => {
                stitched.push_str(&report.trace_jsonl());
                if jsonl {
                    out!("{stitched}")?;
                } else {
                    if report.resumed_from_wave > 0 {
                        outln!("resumed from wave {}", report.resumed_from_wave)?;
                    }
                    out!("{}", report.render())?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            Err(CampaignError::Aborted {
                wave,
                checkpoint,
                trace,
            }) => {
                for ev in &trace {
                    stitched.push_str(&ev.to_jsonl());
                    stitched.push('\n');
                }
                if !auto_resume {
                    eprintln!("campaign aborted before wave {wave}; checkpoint:");
                    eprint!("{}", checkpoint.to_text());
                    let flight = xcbc::sim::FlightRecorder::from_events(
                        xcbc::sim::FLIGHT_RECORDER_CAPACITY,
                        &trace,
                    );
                    if !flight.is_empty() {
                        eprint!("{}", flight.render_tail());
                    }
                    eprintln!("(re-run with --resume to continue from it)");
                    return Ok(ExitCode::FAILURE);
                }
                if !jsonl {
                    outln!(
                        "power lost before wave {wave} [{} wave(s) committed]; resuming from checkpoint",
                        checkpoint.waves_completed()
                    )?;
                }
                checkpoint_text = Some(checkpoint.to_text());
            }
            Err(e) => return Err(e.to_string().into()),
        }
    }
    Err("gave up after repeated aborts".into())
}

/// The demo fleet `xcbc elastic` (and `xcbc mon elastic`) runs: an
/// opening burst of single-node jobs drives the autoscaler from the
/// floor to the ceiling, a mid-run surge keeps the fleet busy while two
/// cloud sites join through the shared solve cache (one leaves again),
/// and the lull afterwards lets the fleet shrink back to the floor.
fn elastic_demo_world(
    config: &xcbc::core::elastic::ElasticConfig,
) -> xcbc::core::elastic::ElasticWorld {
    use xcbc::core::elastic::{BurstSite, ElasticWorld};
    use xcbc::sched::JobRequest;

    let mut world = ElasticWorld::default();
    for i in 0..12 {
        world.workload.push((
            0,
            JobRequest::new(&format!("burst-a-{i}"), 1, 2, 40_000.0, 2600.0),
        ));
    }
    let surge = config.ticks / 2;
    for i in 0..5 {
        world.workload.push((
            surge,
            JobRequest::new(&format!("burst-b-{i}"), 1, 2, 40_000.0, 1400.0),
        ));
    }
    for (name, join, leave) in [("cloud-a", 2usize, Some(surge + 4)), ("cloud-b", 4, None)] {
        let existing: BTreeMap<_, _> = (0..2)
            .map(|n| (format!("{name}-n{n}"), limulus_factory_image()))
            .collect();
        let mut site = BurstSite::new(name, join, existing, XnitSetupMethod::RepoRpm);
        if let Some(leave) = leave {
            site = site.leaving_at(leave);
        }
        world.burst_sites.push(site);
    }
    world
}

/// Drive the shared elastic demo fleet to completion, resuming from the
/// checkpoint after each fault-injected abort when `auto_resume` is
/// set. Returns the final report, the stitched cross-segment trace, the
/// drained scheduler frontend, and the shared solve cache (the latter
/// two feed `xcbc mon elastic`).
#[allow(clippy::type_complexity)]
fn run_elastic_demo(
    config: &xcbc::core::elastic::ElasticConfig,
    plan: &FaultPlan,
    auto_resume: bool,
    announce: bool,
) -> Result<
    (
        xcbc::core::elastic::ElasticReport,
        Vec<xcbc::sim::TraceEvent>,
        xcbc::sched::TorqueServer,
        std::sync::Arc<xcbc::yum::SolveCache>,
    ),
    Stop,
> {
    use xcbc::core::elastic::{run_elastic, ElasticError, ElasticState};
    use xcbc::fault::ElasticCheckpoint;
    use xcbc::sched::TorqueServer;
    use xcbc::yum::SolveCache;

    let world = elastic_demo_world(config);
    let mut state = ElasticState::new(config);
    let mut rm = TorqueServer::with_maui("elastic-head", config.min_nodes, 2);
    let cache = std::sync::Arc::new(SolveCache::new());
    let mut checkpoint_text: Option<String> = None;
    let mut stitched: Vec<xcbc::sim::TraceEvent> = Vec::new();
    // each resume completes at least one tick, so `ticks` bounds the loop
    for _ in 0..=config.ticks {
        let resume_cp = match &checkpoint_text {
            Some(text) => match ElasticCheckpoint::parse(text) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    eprintln!("xcbc elastic: bad checkpoint: {e}");
                    return Err(Stop::Failed);
                }
            },
            None => None,
        };
        match run_elastic(
            &world,
            &mut state,
            &mut rm,
            plan,
            &cache,
            config,
            resume_cp.as_ref(),
        ) {
            Ok(report) => {
                stitched.extend(report.trace.iter().cloned());
                return Ok((report, stitched, rm, cache));
            }
            Err(ElasticError::Aborted {
                tick,
                checkpoint,
                trace,
                ..
            }) => {
                stitched.extend(trace);
                if !auto_resume {
                    eprintln!("elastic run aborted before tick {tick}; checkpoint:");
                    eprint!("{}", checkpoint.to_text());
                    let flight = xcbc::sim::FlightRecorder::from_events(
                        xcbc::sim::FLIGHT_RECORDER_CAPACITY,
                        &stitched,
                    );
                    if !flight.is_empty() {
                        eprint!("{}", flight.render_tail());
                    }
                    eprintln!("(re-run with --resume to continue from it)");
                    return Err(Stop::Failed);
                }
                if announce {
                    outln!(
                        "power lost before tick {tick} [{} tick(s) completed]; resuming from checkpoint",
                        checkpoint.ticks_completed()
                    )?;
                }
                checkpoint_text = Some(checkpoint.to_text());
            }
            Err(e) => {
                eprintln!("xcbc elastic: {e}");
                return Err(Stop::Failed);
            }
        }
    }
    eprintln!("xcbc elastic: gave up after repeated aborts");
    Err(Stop::Failed)
}

/// `xcbc elastic`: the dynamic-membership demo — a power-aware
/// autoscaler grows a bursty fleet from its floor to its ceiling and
/// back, with cloud-burst sites joining mid-run through the shared
/// solve cache. A scheduled `elastic.scale-up` fault aborts with the
/// checkpoint printed; with `--resume` the run continues from it and
/// the stitched trace matches an uninterrupted run byte for byte.
fn elastic_cmd(mut args: Args) -> Result<ExitCode, Stop> {
    use xcbc::core::elastic::ElasticConfig;

    let plan = fault_plan(&mut args)?;
    let defaults = ElasticConfig::default();
    let config = ElasticConfig {
        min_nodes: args.count("--min")?.unwrap_or(defaults.min_nodes),
        max_nodes: args.value("--max")?.unwrap_or(defaults.max_nodes),
        ticks: args.value("--ticks")?.unwrap_or(defaults.ticks),
        ..defaults
    };
    let auto_resume = args.flag("--resume");
    let jsonl = args.flag("--jsonl");
    args.finish()?;

    let (report, stitched, _, _) = run_elastic_demo(&config, &plan, auto_resume, !jsonl)?;
    if jsonl {
        out!("{}", events_to_jsonl(&stitched))?;
    } else {
        if report.resumed_from_tick > 0 {
            outln!("resumed from tick {}", report.resumed_from_tick)?;
        }
        out!("{}", report.render())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The elastic demo fleet as a run `xcbc mon elastic` can replay through
/// the same gmond/gmetad pipeline as the deployment day — the power
/// sequencer's boot spans and power-off marks ride the trace, so scale
/// events show up on the dashboard next to the autoscaler's queue-depth
/// counters.
fn elastic_day(plan: &FaultPlan) -> Result<DayOneRun, Stop> {
    use xcbc::core::elastic::{node_name, ElasticConfig};
    use xcbc::sched::{ResourceManager, SimMetrics};

    let config = ElasticConfig::default();
    let (_, events, rm, cache) = run_elastic_demo(&config, plan, true, false)?;
    Ok(DayOneRun {
        scenario: "elastic".into(),
        seed: plan.seed,
        frontend: "elastic-head".into(),
        hosts: (0..config.max_nodes).map(node_name).collect(),
        events,
        quarantined: Vec::new(),
        solve_cache: cache,
        sched_metrics: SimMetrics::from_sim(rm.sim()),
    })
}

fn compat() -> Result<ExitCode, Stop> {
    use xcbc::core::compat::check_compatibility;
    let bare = xcbc::rpm::RpmDb::new();
    let report = check_compatibility(&bare);
    outln!(
        "A bare cluster matches {}/{} reference packages; XNIT would install:",
        report.matching,
        report.checked
    )?;
    for name in report.missing().iter().take(10) {
        outln!("  {name}")?;
    }
    outln!(
        "  ... and {} more",
        report.missing().len().saturating_sub(10)
    )?;
    Ok(ExitCode::SUCCESS)
}

/// `xcbc exp`: sweep the open-loop workload engine over a frontend ×
/// policy × load × seed grid on a worker pool. Per-variant JSONL runs,
/// the aggregated CSV and the utilization/wait curves land under
/// `<out>/exp-NNN/`; the same grid produces byte-identical artifacts at
/// any `--workers` count.
fn exp_cmd(mut args: Args) -> Result<ExitCode, Stop> {
    use std::fs;
    use std::path::Path;
    use xcbc::sched::{run_grid, ExpGrid, RmKind, SchedPolicy, WorkloadSpec};

    let spec_name = args
        .value::<String>("--spec")?
        .unwrap_or_else(|| "teaching-lab".to_string());
    let spec = match spec_name.as_str() {
        "teaching-lab" => WorkloadSpec::teaching_lab(),
        "campus-research" => WorkloadSpec::campus_research(),
        "heavy-tail" => WorkloadSpec::heavy_tail(),
        other => {
            return Err(format!(
                "unknown --spec {other:?} \
                 (expected teaching-lab, campus-research or heavy-tail)"
            )
            .into())
        }
    };
    let name = args.value::<String>("--name")?.unwrap_or(spec_name);
    let mut grid = ExpGrid::new(&name).spec(spec);

    if let Some(list) = args.value::<String>("--policies")? {
        grid = grid.policies(
            list.split(',')
                .map(SchedPolicy::parse)
                .collect::<Result<_, _>>()?,
        );
    }
    if let Some(list) = args.value::<String>("--rms")? {
        grid = grid.rms(
            list.split(',')
                .map(RmKind::parse)
                .collect::<Result<_, _>>()?,
        );
    }
    if let Some(list) = args.value::<String>("--loads")? {
        let load = |part: &str| match part.trim().parse::<f64>() {
            Ok(l) if l > 0.0 => Ok(l),
            _ => Err(format!("bad load {part:?} (want a positive number)")),
        };
        grid = grid.loads(list.split(',').map(load).collect::<Result<_, _>>()?);
    }
    let seed_count: u64 = args.count("--seeds")?.unwrap_or(2);
    grid = grid.seeds((0..seed_count).collect());
    if let Some(jobs) = args.value("--jobs")? {
        grid = grid.jobs_per_run(jobs);
    }
    grid = grid.cluster(
        args.count("--nodes")?.unwrap_or(8),
        args.count("--cores")?.unwrap_or(4),
    );
    let workers = args.count("--workers")?.unwrap_or(4);
    let out_root = args
        .value::<String>("--out")?
        .unwrap_or_else(|| "results".to_string());
    args.finish()?;

    let report = run_grid(&grid, workers);

    // next free exp-NNN slot under the results root
    let root = Path::new(&out_root);
    let mut n = 1usize;
    let dir = loop {
        let d = root.join(format!("exp-{n:03}"));
        if !d.exists() {
            break d;
        }
        n += 1;
    };
    let write = |rel: String, contents: &str| -> std::io::Result<()> {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, contents)
    };
    let io = || -> std::io::Result<()> {
        write("grid.txt".to_string(), &report.grid.render())?;
        write("summary.csv".to_string(), &report.aggregate_csv())?;
        write("curves.txt".to_string(), &report.curves())?;
        for label in report.variant_labels() {
            write(format!("{label}/runs.jsonl"), &report.variant_jsonl(&label))?;
        }
        Ok(())
    };
    io().map_err(|e| format!("cannot write {}: {e}", dir.display()))?;

    out!("{}", report.grid.render())?;
    outln!(
        "{} runs on {workers} workers, {} simulator events -> {}",
        report.runs.len(),
        report.total_events(),
        dir.display()
    )?;
    outln!()?;
    out!("{}", report.aggregate_csv())?;
    outln!()?;
    out!("{}", report.curves())?;
    Ok(ExitCode::SUCCESS)
}
