//! Golden-file check of the scheduler's decisions.
//!
//! A fixed set of seeded scenarios drives `ClusterSim` with tracing on
//! through every policy (FIFO, EASY, Maui) and every live operation the
//! simulator offers: future-dated submissions, `hold`/`release`,
//! reservations (whose close is a `Wake` event), `set_offline`/
//! `set_online`, `requeue_jobs_on`, `kill`, `add_node` and
//! `retire_node`. Each scenario renders its trace as JSONL, then one
//! line per job (state and placement), then its `SimMetrics`. The
//! concatenation must match `tests/golden/sched-mix.jsonl` byte for
//! byte, so a rewrite of the scheduling pass that changes any start
//! time, placement or tie-break fails here.
//!
//! When an intentional change shifts the schedules, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test sched_golden
//! ```

mod common;

use common::assert_golden;
use std::fmt::Write as _;
use xcbc::sched::{ClusterSim, JobRequest, JobState, SchedPolicy, SimMetrics};
use xcbc::sim::events_to_jsonl;

const NODES: usize = 6;
const CORES: u32 = 4;
const JOBS: usize = 40;
const USERS: [&str; 3] = ["alice", "bob", "carol"];

/// splitmix64: a self-contained generator, so the scenarios do not
/// depend on any sampler the library might change.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn policies() -> [SchedPolicy; 4] {
    [
        SchedPolicy::Fifo,
        SchedPolicy::EasyBackfill,
        SchedPolicy::maui_default(),
        // fairshare strong enough to reorder the queue within minutes
        SchedPolicy::MauiPriority {
            queue_weight: 1.0,
            fairshare_weight: 0.05,
        },
    ]
}

/// `JOBS` jobs: a few at t=0, the rest future-dated with gaps short
/// enough to keep a deep queue, widths 1..=4 nodes, some overrunning
/// their walltime.
fn workload(rng: &mut Rng) -> Vec<(f64, JobRequest)> {
    let mut t = 0.0;
    (0..JOBS)
        .map(|i| {
            if i >= 4 {
                t += rng.range(5, 60) as f64;
            }
            let nodes = [1, 1, 1, 2, 2, 3, 4][rng.range(0, 6) as usize];
            let ppn = rng.range(1, CORES as u64) as u32;
            let wall = rng.range(6, 120) as f64 * 10.0;
            let run = wall * rng.range(20, 130) as f64 / 100.0;
            let user = USERS[rng.range(0, 2) as usize];
            let req = JobRequest::new(&format!("j{i}"), nodes, ppn, wall, run).by(user);
            (t, req)
        })
        .collect()
}

fn state_text(state: JobState) -> String {
    match state {
        JobState::Queued => "queued".into(),
        JobState::Running { start_s } => format!("running {start_s}"),
        JobState::Completed { start_s, end_s } => format!("completed {start_s} {end_s}"),
        JobState::TimedOut { start_s, end_s } => format!("timed-out {start_s} {end_s}"),
        JobState::Cancelled => "cancelled".into(),
    }
}

/// One scenario's rendering: trace, job table, metrics.
fn scenario(policy: SchedPolicy, seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut sim = ClusterSim::new(NODES, CORES, policy);
    let ids: Vec<_> = workload(&mut rng)
        .into_iter()
        .map(|(t, req)| sim.submit_at(t, req))
        .collect();
    sim.add_reservation("maintenance", vec![0, 1], 300.0, 600.0);
    sim.add_reservation("fan swap", vec![5], 1500.0, 1800.0);

    sim.run_until(120.0);
    // hold one submitted job and one that has not arrived yet
    let held: Vec<_> = sim
        .queued()
        .first()
        .map(|j| j.id)
        .into_iter()
        .chain([ids[JOBS - 5]])
        .collect();
    for &id in &held {
        sim.hold(id);
    }

    sim.run_until(400.0);
    sim.set_offline(2);
    sim.run_until(500.0);
    sim.requeue_jobs_on(2);

    sim.run_until(700.0);
    let running = sim.running().first().map(|j| j.id);
    let queued = sim.queued().last().map(|j| j.id);
    for id in running.into_iter().chain(queued) {
        sim.kill(id);
    }
    for &id in &held {
        sim.release(id);
    }
    sim.set_online(2);

    sim.run_until(900.0);
    sim.add_node();
    sim.run_until(1000.0);
    sim.set_offline(3);
    sim.requeue_jobs_on(3);
    sim.retire_node(3);
    sim.run_to_completion();

    let mut out = format!("# policy={} seed={seed}\n", policy.label());
    out.push_str(&events_to_jsonl(&sim.take_trace()));
    for job in sim.jobs() {
        let placement: Vec<String> = job.placement.iter().map(|n| n.to_string()).collect();
        writeln!(
            out,
            "# job {} {} [{}]",
            job.id,
            state_text(job.state),
            placement.join(",")
        )
        .unwrap();
    }
    writeln!(out, "# metrics {:?}", SimMetrics::from_sim(&sim)).unwrap();
    out
}

fn render_all() -> String {
    let mut out = String::new();
    for policy in policies() {
        for seed in 1..=3 {
            out.push_str(&scenario(policy, seed));
        }
    }
    out
}

#[test]
fn scheduler_traces_match_golden() {
    assert_golden(
        "tests/golden/sched-mix.jsonl",
        render_all(),
        "scheduler trace",
    );
}

/// The scenarios exercise what they claim to: requeues, kills, node
/// changes, reservations and timeouts all show in the golden text.
#[test]
fn scenarios_cover_every_operation() {
    let text = render_all();
    for needle in [
        "\"requeue ",
        "\"kill ",
        "\"offline node 2\"",
        "\"online node 2\"",
        "\"add node 6\"",
        "\"retire node 3\"",
        "reservation: maintenance",
        "timed-out",
        "cancelled",
    ] {
        assert!(text.contains(needle), "no scenario emits {needle}");
    }
}
