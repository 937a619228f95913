//! `sched-saturated` and `sched-light`: the `teaching-lab` job stream on
//! an 8×4 SLURM cluster under EASY backfill with tracing off, one grid
//! point of `xcbc exp` replicated over several stream seeds derived from
//! the benchmark seed. Saturated scales the spec's arrival rate so far
//! past the cluster's capacity that most jobs queue, so the queue grows
//! into the thousands; light runs at half the spec's rate, so the queue
//! stays near empty.
//!
//! The streams are generated during set-up; each iteration submits them
//! to fresh resource managers. After timing, `run_point` on every seed
//! of the same grid must give the same result lines.

use crate::trace::Tracer;
use crate::{digest_texts, splitmix, Outcome, Size, Workload};
use xcbc::sched::{
    run_point, ExpGrid, ExpPoint, JobRequest, ResourceManager, RmKind, RunResult, SchedPolicy,
    WorkloadSpec,
};

/// Queue depth is sampled after every this many submissions: reading it
/// walks the whole queue.
const QUEUE_SAMPLE_EVERY: usize = 64;

pub struct Sched {
    grid: ExpGrid,
    /// One grid point per stream seed, with its generated stream.
    runs: Vec<(ExpPoint, Vec<(f64, JobRequest)>)>,
}

/// How a scheduler workload loads the cluster.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    Saturated,
    Light,
}

pub fn setup(load: Load, seed: u64, size: Size) -> Sched {
    // (arrival-rate factor, streams, jobs per stream). One saturated
    // stream's cost depends on its seed by tens of percent (queue depth
    // is a random walk), so the point is replicated over several seeds
    // and an iteration runs them all.
    let (factor, streams, jobs) = match load {
        Load::Saturated => (10.0, size.pick(2, 8), size.pick(200, 1_200)),
        Load::Light => (0.5, size.pick(2, 4), size.pick(500, 25_000)),
    };
    let mut state = seed;
    let seeds = (0..streams).map(|_| splitmix(&mut state)).collect();
    let grid = ExpGrid::new("perfbench")
        .spec(WorkloadSpec::teaching_lab())
        .policies(vec![SchedPolicy::EasyBackfill])
        .rms(vec![RmKind::Slurm])
        .loads(vec![factor])
        .seeds(seeds)
        .jobs_per_run(jobs)
        .cluster(8, 4)
        .normalized();
    let runs = grid
        .points()
        .into_iter()
        .map(|point| {
            let stream = grid.spec.clone().scaled_load(point.load).generate(
                point.seed,
                grid.nodes as u32,
                grid.cores_per_node,
                grid.jobs_per_run,
            );
            (point, stream)
        })
        .collect();
    Sched { grid, runs }
}

impl Sched {
    fn build(&self, point: &ExpPoint) -> Box<dyn ResourceManager> {
        let mut rm = point
            .rm
            .build(self.grid.nodes, self.grid.cores_per_node, point.policy);
        rm.sim_mut().set_tracing(false);
        rm
    }

    /// The run's result line and its completion check.
    fn finish(&self, point: &ExpPoint, rm: &dyn ResourceManager, out: &mut Finished) {
        let metrics = rm.metrics();
        let submitted = self.grid.jobs_per_run;
        if metrics.jobs_finished + metrics.jobs_timed_out != submitted {
            out.problems.push(format!(
                "seed {}: {} of {submitted} jobs finished",
                point.seed, metrics.jobs_finished
            ));
        }
        out.events += rm.sim().events_processed();
        out.finished += metrics.jobs_finished as u64;
        out.lines.push(
            RunResult {
                point: *point,
                jobs: submitted,
                events: rm.sim().events_processed(),
                metrics,
            }
            .jsonl(self.grid.digest()),
        );
    }

    fn outcome(&self, out: Finished) -> Outcome {
        Outcome {
            digest: digest_texts(out.lines.iter().map(String::as_str)),
            work: out.events,
            attempted: (self.grid.jobs_per_run * self.runs.len()) as u64,
            ok: out.finished,
            check: match out.problems.first() {
                None => Ok(()),
                Some(p) => Err(p.clone()),
            },
        }
    }
}

/// Results of an iteration's runs so far.
#[derive(Default)]
struct Finished {
    lines: Vec<String>,
    events: u64,
    finished: u64,
    problems: Vec<String>,
}

impl Workload for Sched {
    fn run(&self) -> Outcome {
        let mut out = Finished::default();
        for (point, stream) in &self.runs {
            let mut rm = self.build(point);
            for (t, req) in stream {
                rm.advance_to(*t);
                rm.submit(req.clone());
            }
            rm.drain();
            self.finish(point, rm.as_ref(), &mut out);
        }
        self.outcome(out)
    }

    fn run_traced(&self, t: &mut Tracer) -> Outcome {
        let mut out = Finished::default();
        let (mut depth_sum, mut depth_max, mut samples) = (0usize, 0usize, 0usize);
        for (point, stream) in &self.runs {
            let mut rm = t.span("sched.build", |_| self.build(point));
            t.span("sched.submit", |_| {
                for (i, (at, req)) in stream.iter().enumerate() {
                    rm.advance_to(*at);
                    rm.submit(req.clone());
                    if i % QUEUE_SAMPLE_EVERY == 0 {
                        let depth = rm.queue_depth();
                        depth_sum += depth;
                        depth_max = depth_max.max(depth);
                        samples += 1;
                    }
                }
            });
            t.span("sched.drain", |_| rm.drain());
            // the result line and tearing the cluster down walk every job
            t.span("sched.report", |_| {
                self.finish(point, rm.as_ref(), &mut out);
                drop(rm);
            });
        }
        t.add("sched.events", out.events as f64);
        t.add(
            "sched.jobs",
            (self.grid.jobs_per_run * self.runs.len()) as f64,
        );
        t.add("sched.queue_max", depth_max as f64);
        t.add("sched.queue_mean", depth_sum as f64 / samples.max(1) as f64);
        self.outcome(out)
    }

    fn reference_digest(&self) -> Option<u64> {
        let lines: Vec<String> = self
            .runs
            .iter()
            .map(|(point, _)| run_point(&self.grid, point).jsonl(self.grid.digest()))
            .collect();
        Some(digest_texts(lines.iter().map(String::as_str)))
    }
}
