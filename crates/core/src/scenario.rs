//! Canned end-to-end scenarios on one simulated timebase.
//!
//! The CLI's `trace` and `mon` commands both replay the same virtual
//! "day one" of a LittleFe cluster: pull the XSEDE roll over the mirror
//! network, build the cluster from scratch (resuming across any power
//! losses the fault plan injects), PXE-boot the first compute node into
//! production, depsolve the XNIT extras for every surviving node
//! through a shared [`SolveCache`], and push an opening workload
//! through the scheduler. Every subsystem records spans through
//! `xcbc-sim`, so the merged log reads as one coherent timeline — and,
//! for a fixed plan seed, replays byte-identically.

use crate::deploy::deploy_from_scratch_resuming;
use crate::xnit::xnit_repository;
use std::sync::Arc;
use xcbc_cluster::specs::littlefe_modified;
use xcbc_fault::{FaultPlan, RetryPolicy};
use xcbc_rocks::{boot_node, InstallErrorKind, ResilienceConfig};
use xcbc_sched::{ClusterSim, JobRequest, SchedPolicy, SimMetrics};
use xcbc_sim::{trace_end, SimTime, TraceEvent};
use xcbc_yum::{
    FetchOptions, Mirror, MirrorList, SolveCache, SolveRequest, YumConfig, SOLVECACHE_TRACE_SOURCE,
};

/// Nominal wall time of a depsolve that misses the shared cache (a
/// full closure walk).
const SOLVE_MISS_S: f64 = 2.4;
/// Nominal wall time of a depsolve answered from the cache (one hash
/// lookup).
const SOLVE_HIT_S: f64 = 0.08;

/// One finished day-one run: the merged trace plus everything the
/// telemetry pipeline wants to know about how it went.
#[derive(Debug)]
pub struct DayOneRun {
    /// Scenario name (doubles as the Ganglia cluster name).
    pub scenario: String,
    /// The fault-plan seed the run replayed under.
    pub seed: u64,
    /// The frontend's hostname.
    pub frontend: String,
    /// Every node the cluster spec names (including nodes that were
    /// later quarantined — they should show as absent, not vanish).
    pub hosts: Vec<String>,
    /// The merged event timeline, sorted by timestamp (stable, so
    /// events emitted together stay together).
    pub events: Vec<TraceEvent>,
    /// Nodes the resilient installer pulled from the build, with
    /// reasons.
    pub quarantined: Vec<(String, String)>,
    /// The shared depsolve cache the XNIT-extras step ran through.
    pub solve_cache: Arc<SolveCache>,
    /// Workload summary from the scheduler phase.
    pub sched_metrics: SimMetrics,
}

impl DayOneRun {
    /// The instant the last event ends — "now" for heartbeat checks.
    pub fn end(&self) -> SimTime {
        trace_end(&self.events)
    }
}

fn elapsed(events: &[TraceEvent]) -> xcbc_sim::SimDuration {
    trace_end(events).since(SimTime::ZERO)
}

/// Replay a LittleFe day one under `plan`. Errors are rendered
/// human-readable (they are CLI-fatal, not recoverable).
pub fn littlefe_day_one(plan: &FaultPlan) -> Result<DayOneRun, String> {
    let cluster = littlefe_modified();
    let frontend = cluster
        .frontend()
        .map(|n| n.hostname.clone())
        .expect("littlefe spec has a frontend");
    let hosts: Vec<String> = cluster.nodes.iter().map(|n| n.hostname.clone()).collect();
    let mut events: Vec<TraceEvent> = Vec::new();

    // 1. pull the XSEDE roll ISO from the mirror network (yum.mirror)
    let mirrors = MirrorList::new(vec![
        Mirror::new("http://mirror.xsede.org/rocks/6.1.1", 80.0, 40.0),
        Mirror::new("http://mirror.campus.edu/rocks/6.1.1", 200.0, 15.0),
    ]);
    let mut injector = plan.injector();
    let fetched = mirrors.fetch_with(
        FetchOptions::new(650 << 20)
            .retry(RetryPolicy::default())
            .inject(&mut injector)
            .starting_at(SimTime::ZERO),
    );
    events.extend(fetched.events);

    // 2. from-scratch resilient install (rocks.install), resuming
    //    across any power losses the plan injects
    let report = deploy_from_scratch_resuming(&cluster, plan, &ResilienceConfig::default(), |_| {})
        .map_err(|e| match e.kind {
            InstallErrorKind::PowerLoss => "gave up after repeated power losses".to_string(),
            _ => format!("littlefe deploy failed: {e}"),
        })?;
    let t_install = elapsed(&events);
    events.extend(report.trace.iter().map(|e| e.shifted(t_install)));
    let quarantined = report
        .post_mortem
        .as_ref()
        .map(|pm| pm.quarantined.clone())
        .unwrap_or_default();

    // 3. the first compute node's production PXE boot (cluster.boot)
    let payload = report
        .node_dbs
        .get("compute-0-0")
        .map(|db| db.installed_size_bytes())
        .unwrap_or(500 << 20);
    let t_boot = elapsed(&events);
    events.extend(
        boot_node("compute-0-0", payload, None)
            .trace
            .iter()
            .map(|e| e.shifted(t_boot).with_field("node", "compute-0-0")),
    );

    // 4. XNIT extras depsolved for every surviving node through one
    //    shared cache (yum.solvecache): identical post-install databases
    //    mean the first node misses and the rest hit.
    let solve_cache = Arc::new(SolveCache::new());
    let repos = vec![xnit_repository()];
    let yum_config = YumConfig::default();
    let request = SolveRequest::install(["paraview", "wrf"]);
    let mut cursor = SimTime::ZERO + elapsed(&events);
    for (host, db) in &report.node_dbs {
        let before = solve_cache.stats();
        solve_cache
            .get_or_solve(&repos, &yum_config, db, &request)
            .map_err(|e| format!("xnit depsolve failed on {host}: {e}"))?;
        let hit = solve_cache.stats().hits > before.hits;
        let (verdict, dur) = if hit {
            ("hit", SOLVE_HIT_S)
        } else {
            ("miss", SOLVE_MISS_S)
        };
        let span = TraceEvent::span(
            cursor,
            SOLVECACHE_TRACE_SOURCE,
            format!("{host}: depsolve xnit extras ({verdict})"),
            dur,
        )
        .with_field("node", host.clone());
        cursor = span.end();
        events.push(span);
    }

    // 5. the opening workload through the scheduler (sched)
    let mut sim = ClusterSim::new(5, 2, SchedPolicy::maui_default());
    sim.add_reservation("maintenance window", vec![4], 3600.0, 7200.0);
    sim.submit_at(0.0, JobRequest::new("hello-mpi", 2, 2, 600.0, 300.0));
    sim.submit_at(
        120.0,
        JobRequest::new("gromacs-bench", 4, 2, 1800.0, 1500.0),
    );
    sim.submit_at(300.0, JobRequest::new("hpl-smoke", 5, 2, 900.0, 700.0));
    sim.run_to_completion();
    let sched_metrics = SimMetrics::from_sim(&sim);
    let t_sched = elapsed(&events);
    events.extend(sim.take_trace().iter().map(|e| e.shifted(t_sched)));

    // one shared timebase: merge-sort by timestamp (stable, so events
    // emitted together stay together)
    events.sort_by_key(|e| e.t);

    Ok(DayOneRun {
        scenario: "littlefe".to_string(),
        seed: plan.seed,
        frontend,
        hosts,
        events,
        quarantined,
        solve_cache,
        sched_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_sim::events_to_jsonl;

    #[test]
    fn clean_run_covers_every_source() {
        let run = littlefe_day_one(&FaultPlan::new(42)).unwrap();
        for source in [
            "yum.mirror",
            "rocks.install",
            "cluster.boot",
            "yum.solvecache",
            "sched",
        ] {
            assert!(
                run.events.iter().any(|e| e.source == source),
                "missing {source}"
            );
        }
        assert!(run.quarantined.is_empty());
        assert_eq!(run.hosts.len(), 6);
        // the frontend db and the (identical) compute dbs each miss
        // once; the other four computes hit
        let stats = run.solve_cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 2));
        assert!(run.sched_metrics.jobs_finished >= 3);
    }

    #[test]
    fn runs_are_byte_deterministic() {
        let a = littlefe_day_one(&FaultPlan::new(7)).unwrap();
        let b = littlefe_day_one(&FaultPlan::new(7)).unwrap();
        assert_eq!(events_to_jsonl(&a.events), events_to_jsonl(&b.events));
    }

    #[test]
    fn faulty_run_quarantines_and_still_lands() {
        let plan = FaultPlan::parse("seed=11; node.boot key=compute-0-2").unwrap();
        let run = littlefe_day_one(&plan).unwrap();
        assert!(
            run.quarantined.iter().any(|(n, _)| n == "compute-0-2"),
            "{:?}",
            run.quarantined
        );
        // the quarantined node stays in the host list (it should show
        // as absent, not vanish)
        assert!(run.hosts.iter().any(|h| h == "compute-0-2"));
    }
}
