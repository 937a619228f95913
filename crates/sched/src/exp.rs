//! The `xcbc exp` sweep harness: multi-seed × multi-parameter grids.
//!
//! An [`ExpGrid`] is the typed description of one experiment — a base
//! [`WorkloadSpec`] crossed with scheduling policies, RM frontends,
//! and load scales, replicated over seeds. [`run_grid`] executes every
//! point on a worker pool; results are slotted by run index, so the
//! output is byte-identical at any worker count. Rendering helpers
//! produce the per-run JSONL lines and the aggregated CSV the
//! `results/exp-NNN/var-*` layout stores; all floats are printed with
//! fixed precision so re-runs diff clean.

use crate::metrics::SimMetrics;
use crate::policy::SchedPolicy;
use crate::rm::RmKind;
use crate::workload::WorkloadSpec;
use xcbc_sim::{pool, Fnv64};

/// One experiment: a workload crossed with policy/frontend/load axes,
/// replicated over seeds. Normalized and digestable like the workload
/// spec it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpGrid {
    /// Experiment name (slugged into the layout).
    pub name: String,
    /// The base workload; each grid point scales its arrival rate.
    pub spec: WorkloadSpec,
    pub policies: Vec<SchedPolicy>,
    pub rms: Vec<RmKind>,
    /// Arrival-rate multipliers (1.0 = the spec as written).
    pub loads: Vec<f64>,
    pub seeds: Vec<u64>,
    /// Jobs submitted per run (events ≈ 3× this).
    pub jobs_per_run: usize,
    pub nodes: usize,
    pub cores_per_node: u32,
}

impl Default for ExpGrid {
    fn default() -> Self {
        ExpGrid::new("exp")
    }
}

impl ExpGrid {
    /// A small head-to-head default: the teaching-lab workload under
    /// every policy on Torque, two load points, two seeds.
    pub fn new(name: &str) -> Self {
        ExpGrid {
            name: name.to_string(),
            spec: WorkloadSpec::teaching_lab(),
            policies: vec![
                SchedPolicy::Fifo,
                SchedPolicy::EasyBackfill,
                SchedPolicy::maui_default(),
            ],
            rms: vec![RmKind::Torque],
            loads: vec![1.0, 2.0],
            seeds: vec![0, 1],
            jobs_per_run: 2000,
            nodes: 8,
            cores_per_node: 4,
        }
    }

    // ----- fluent setters -----

    pub fn spec(mut self, spec: WorkloadSpec) -> Self {
        self.spec = spec;
        self
    }

    pub fn policies(mut self, policies: Vec<SchedPolicy>) -> Self {
        self.policies = policies;
        self
    }

    pub fn rms(mut self, rms: Vec<RmKind>) -> Self {
        self.rms = rms;
        self
    }

    pub fn loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    pub fn jobs_per_run(mut self, jobs: usize) -> Self {
        self.jobs_per_run = jobs;
        self
    }

    pub fn cluster(mut self, nodes: usize, cores_per_node: u32) -> Self {
        self.nodes = nodes;
        self.cores_per_node = cores_per_node;
        self
    }

    /// Canonical form: axes deduplicated (first occurrence wins, order
    /// preserved), empty axes restored to their defaults, the name
    /// slugged to `[a-z0-9-]`, the workload spec normalized, at least
    /// one job per run and one node.
    pub fn normalized(&self) -> ExpGrid {
        let mut grid = self.clone();
        grid.name = slug(&grid.name);
        if grid.name.is_empty() {
            grid.name = "exp".to_string();
        }
        grid.spec = grid.spec.normalized();
        dedup_by_key(&mut grid.policies, |p| format!("{p:?}"));
        dedup_by_key(&mut grid.rms, |r| r.label().to_string());
        grid.loads.retain(|&l| l.is_finite() && l > 0.0);
        dedup_by_key(&mut grid.loads, |l| l.to_bits().to_string());
        dedup_by_key(&mut grid.seeds, |s| s.to_string());
        if grid.policies.is_empty() {
            grid.policies = vec![SchedPolicy::maui_default()];
        }
        if grid.rms.is_empty() {
            grid.rms = vec![RmKind::Torque];
        }
        if grid.loads.is_empty() {
            grid.loads = vec![1.0];
        }
        if grid.seeds.is_empty() {
            grid.seeds = vec![0];
        }
        grid.jobs_per_run = grid.jobs_per_run.max(1);
        grid.nodes = grid.nodes.max(1);
        grid.cores_per_node = grid.cores_per_node.max(1);
        grid
    }

    /// Stable 64-bit digest of the normalized grid — the experiment's
    /// identity, recorded in every output artifact.
    pub fn digest(&self) -> u64 {
        let g = self.normalized();
        let mut h = Fnv64::new();
        h.write_str(&g.name).write_u64(g.spec.digest());
        for p in &g.policies {
            match *p {
                SchedPolicy::Fifo => h.write_u64(1),
                SchedPolicy::EasyBackfill => h.write_u64(2),
                SchedPolicy::MauiPriority {
                    queue_weight,
                    fairshare_weight,
                } => h
                    .write_u64(3)
                    .write_f64(queue_weight)
                    .write_f64(fairshare_weight),
            };
        }
        for r in &g.rms {
            h.write_str(r.label());
        }
        for l in &g.loads {
            h.write_f64(*l);
        }
        for s in &g.seeds {
            h.write_u64(*s);
        }
        h.write_u64(g.jobs_per_run as u64)
            .write_u64(g.nodes as u64)
            .write_u64(g.cores_per_node as u64);
        h.finish()
    }

    /// Every grid point, in canonical order: variants (rm × policy ×
    /// load, in axis order) each replicated over all seeds.
    pub fn points(&self) -> Vec<ExpPoint> {
        let g = self.normalized();
        let mut points = Vec::new();
        let mut variant = 0;
        for rm in &g.rms {
            for policy in &g.policies {
                for load in &g.loads {
                    for seed in &g.seeds {
                        points.push(ExpPoint {
                            variant,
                            rm: *rm,
                            policy: *policy,
                            load: *load,
                            seed: *seed,
                        });
                    }
                    variant += 1;
                }
            }
        }
        points
    }

    /// Human-readable grid description (stored as `grid.txt` in the
    /// experiment directory).
    pub fn render(&self) -> String {
        let g = self.normalized();
        let mut out = String::new();
        out.push_str(&format!("experiment: {}\n", g.name));
        out.push_str(&format!("digest: {:016x}\n", g.digest()));
        out.push_str(&format!(
            "cluster: {} nodes x {} cores\n",
            g.nodes, g.cores_per_node
        ));
        out.push_str(&format!("jobs/run: {}\n", g.jobs_per_run));
        out.push_str(&format!(
            "workload: interarrival={} runtime={} digest={:016x}\n",
            g.spec.arrivals.interarrival,
            g.spec.runtime,
            g.spec.digest()
        ));
        out.push_str(&format!(
            "rms: {}\n",
            g.rms
                .iter()
                .map(|r| r.label())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            "policies: {}\n",
            g.policies
                .iter()
                .map(|p| p.slug())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            "loads: {}\n",
            g.loads
                .iter()
                .map(|l| format!("{l}"))
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            "seeds: {}\n",
            g.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out
    }
}

fn dedup_by_key<T, K: std::cmp::Eq + std::hash::Hash>(xs: &mut Vec<T>, key: impl Fn(&T) -> K) {
    let mut seen = std::collections::HashSet::new();
    xs.retain(|x| seen.insert(key(x)));
}

/// Lowercase, alphanumerics and dashes only.
fn slug(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// One grid point: a variant (rm × policy × load) at one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpPoint {
    /// Index of this point's variant in canonical order.
    pub variant: usize,
    pub rm: RmKind,
    pub policy: SchedPolicy,
    pub load: f64,
    pub seed: u64,
}

impl ExpPoint {
    /// The variant directory name: `var-<rm>-<policy>-load<load>`.
    pub fn variant_label(&self) -> String {
        format!(
            "var-{}-{}-load{}",
            self.rm.label(),
            self.policy.slug(),
            fmt_load(self.load)
        )
    }
}

fn fmt_load(load: f64) -> String {
    // 1.0 → "1", 1.5 → "1.5", path-safe
    let s = format!("{load}");
    s.replace('.', "p").trim_end_matches("p0").to_string()
}

/// One finished run: the point plus its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub point: ExpPoint,
    pub jobs: usize,
    /// Simulator events processed during the run.
    pub events: u64,
    pub metrics: SimMetrics,
}

impl RunResult {
    /// The per-run JSONL line (fixed key order, fixed float precision
    /// — byte-identical across re-runs and worker counts).
    pub fn jsonl(&self, grid_digest: u64) -> String {
        format!(
            concat!(
                "{{\"exp\":\"{:016x}\",\"variant\":\"{}\",\"rm\":\"{}\",\"policy\":\"{}\",",
                "\"load\":{},\"seed\":{},\"jobs\":{},\"events\":{},\"makespan_s\":{:.3},",
                "\"utilization\":{:.6},\"mean_wait_s\":{:.3},\"p95_wait_s\":{:.3},",
                "\"max_wait_s\":{:.3},\"mean_bounded_slowdown\":{:.4},\"starved_jobs\":{},",
                "\"jobs_timed_out\":{}}}"
            ),
            grid_digest,
            self.point.variant_label(),
            self.point.rm.label(),
            self.point.policy.slug(),
            self.point.load,
            self.point.seed,
            self.jobs,
            self.events,
            self.metrics.makespan_s,
            self.metrics.utilization,
            self.metrics.mean_wait_s,
            self.metrics.p95_wait_s,
            self.metrics.max_wait_s,
            self.metrics.mean_bounded_slowdown,
            self.metrics.starved_jobs,
            self.metrics.jobs_timed_out,
        )
    }
}

/// Execute one grid point. Tracing is off: a million-event run must
/// not pay for per-event strings.
pub fn run_point(grid: &ExpGrid, point: &ExpPoint) -> RunResult {
    let g = grid.normalized();
    let spec = g.spec.clone().scaled_load(point.load);
    let mut rm = point.rm.build(g.nodes, g.cores_per_node, point.policy);
    rm.sim_mut().set_tracing(false);
    let stream = spec.stream(point.seed, g.nodes as u32, g.cores_per_node);
    for (t, req) in stream.take(g.jobs_per_run) {
        rm.advance_to(t);
        rm.submit(req);
    }
    rm.drain();
    RunResult {
        point: *point,
        jobs: g.jobs_per_run,
        events: rm.sim().events_processed(),
        metrics: rm.metrics(),
    }
}

/// A finished sweep: every grid point's result, in canonical order.
#[derive(Debug, Clone)]
pub struct ExpReport {
    pub grid: ExpGrid,
    pub digest: u64,
    pub runs: Vec<RunResult>,
}

impl ExpReport {
    /// Total simulator events across the sweep.
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Variant labels in canonical order (deduplicated).
    pub fn variant_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for r in &self.runs {
            let l = r.point.variant_label();
            if labels.last() != Some(&l) {
                labels.push(l);
            }
        }
        labels
    }

    /// The JSONL block for one variant (one line per seed).
    pub fn variant_jsonl(&self, variant_label: &str) -> String {
        let mut out = String::new();
        for r in &self.runs {
            if r.point.variant_label() == variant_label {
                out.push_str(&r.jsonl(self.digest));
                out.push('\n');
            }
        }
        out
    }

    /// The aggregated CSV: one row per variant, metrics averaged over
    /// seeds (events summed). Column contract documented in
    /// `results/SCHEMA.md`.
    pub fn aggregate_csv(&self) -> String {
        let mut out = String::from(
            "variant,rm,policy,load,seeds,jobs_per_run,events,utilization,\
             mean_wait_s,p95_wait_s,max_wait_s,mean_bounded_slowdown,\
             starved_jobs,jobs_timed_out,makespan_s\n",
        );
        for label in self.variant_labels() {
            let runs: Vec<&RunResult> = self
                .runs
                .iter()
                .filter(|r| r.point.variant_label() == label)
                .collect();
            let n = runs.len() as f64;
            let mean = |f: &dyn Fn(&RunResult) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / n;
            let p = runs[0].point;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.6},{:.3},{:.3},{:.3},{:.4},{:.2},{:.2},{:.3}\n",
                label,
                p.rm.label(),
                p.policy.slug(),
                p.load,
                runs.len(),
                runs[0].jobs,
                runs.iter().map(|r| r.events).sum::<u64>(),
                mean(&|r| r.metrics.utilization),
                mean(&|r| r.metrics.mean_wait_s),
                mean(&|r| r.metrics.p95_wait_s),
                mean(&|r| r.metrics.max_wait_s),
                mean(&|r| r.metrics.mean_bounded_slowdown),
                mean(&|r| r.metrics.starved_jobs as f64),
                mean(&|r| r.metrics.jobs_timed_out as f64),
                mean(&|r| r.metrics.makespan_s),
            ));
        }
        out
    }

    /// ASCII utilization / wait curves over the load axis, one block
    /// per RM × policy — the human-readable artifact next to the CSV.
    pub fn curves(&self) -> String {
        let g = self.grid.normalized();
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — utilization and mean wait vs load\n",
            g.name
        ));
        for rm in &g.rms {
            for policy in &g.policies {
                out.push_str(&format!("\n{} / {}\n", rm.label(), policy.label()));
                out.push_str("load      util                              mean_wait_s\n");
                for load in &g.loads {
                    let runs: Vec<&RunResult> = self
                        .runs
                        .iter()
                        .filter(|r| {
                            r.point.rm == *rm && r.point.policy == *policy && r.point.load == *load
                        })
                        .collect();
                    if runs.is_empty() {
                        continue;
                    }
                    let n = runs.len() as f64;
                    let util = runs.iter().map(|r| r.metrics.utilization).sum::<f64>() / n;
                    let wait = runs.iter().map(|r| r.metrics.mean_wait_s).sum::<f64>() / n;
                    let bar = "#".repeat((util * 30.0).round().clamp(0.0, 30.0) as usize);
                    out.push_str(&format!(
                        "{:<8}  {:>6.1}% {:<30}  {:>10.1}\n",
                        format!("{load}"),
                        util * 100.0,
                        bar,
                        wait
                    ));
                }
            }
        }
        out
    }
}

/// Run every grid point on `workers` threads. Results come back in
/// point order, so the report is identical at any worker count (each
/// run is an isolated simulator seeded only by its point).
pub fn run_grid(grid: &ExpGrid, workers: usize) -> ExpReport {
    let g = grid.normalized();
    let digest = g.digest();
    let runs = pool::map(workers, &g.points(), |p| run_point(&g, p));
    ExpReport {
        grid: g,
        digest,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ExpGrid {
        ExpGrid::new("smoke")
            .seeds(vec![0, 1])
            .loads(vec![1.0, 2.0])
            .policies(vec![SchedPolicy::Fifo, SchedPolicy::maui_default()])
            .rms(vec![RmKind::Torque, RmKind::Sge])
            .jobs_per_run(120)
            .cluster(4, 2)
    }

    #[test]
    fn normalization_dedups_and_defaults() {
        let g = ExpGrid::new("My Exp!")
            .seeds(vec![3, 3, 4])
            .loads(vec![1.0, 1.0, 0.0, -2.0])
            .rms(vec![])
            .normalized();
        assert_eq!(g.name, "my-exp");
        assert_eq!(g.seeds, vec![3, 4]);
        assert_eq!(g.loads, vec![1.0]);
        assert_eq!(g.rms, vec![RmKind::Torque]);
        assert_eq!(g.normalized(), g, "idempotent");
    }

    #[test]
    fn digest_is_normalization_invariant() {
        let a = ExpGrid::new("x").seeds(vec![1, 1, 2]);
        let b = ExpGrid::new("x").seeds(vec![1, 2]);
        assert_eq!(a.digest(), b.digest());
        let c = ExpGrid::new("x").seeds(vec![1, 3]);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn points_cover_the_product() {
        let g = tiny_grid();
        let points = g.points();
        assert_eq!(points.len(), 2 * 2 * 2 * 2);
        // variants change slowest over seeds
        assert_eq!(points[0].variant, 0);
        assert_eq!(points[1].variant, 0);
        assert_eq!(points[2].variant, 1);
    }

    #[test]
    fn report_identical_at_any_worker_count() {
        let g = tiny_grid();
        let one = run_grid(&g, 1);
        let four = run_grid(&g, 4);
        let many = run_grid(&g, 64);
        assert_eq!(one.runs, four.runs);
        assert_eq!(four.runs, many.runs);
        assert_eq!(one.aggregate_csv(), many.aggregate_csv());
        for label in one.variant_labels() {
            assert_eq!(one.variant_jsonl(&label), many.variant_jsonl(&label));
        }
    }

    #[test]
    fn csv_and_jsonl_are_populated() {
        let report = run_grid(&tiny_grid(), 4);
        let csv = report.aggregate_csv();
        assert_eq!(csv.lines().count(), 1 + 8, "header + one row per variant");
        assert!(csv.starts_with("variant,rm,policy,load,seeds"));
        let labels = report.variant_labels();
        assert_eq!(labels.len(), 8);
        for label in &labels {
            let jsonl = report.variant_jsonl(label);
            assert_eq!(jsonl.lines().count(), 2, "one line per seed");
            assert!(jsonl.contains("\"utilization\":"));
        }
        assert!(report.total_events() > 0);
        assert!(report.curves().contains("utilization"));
    }

    #[test]
    fn backfill_beats_fifo_under_load() {
        let g = ExpGrid::new("policy-check")
            .policies(vec![SchedPolicy::Fifo, SchedPolicy::maui_default()])
            .rms(vec![RmKind::Torque])
            .loads(vec![3.0])
            .seeds(vec![7])
            .jobs_per_run(400)
            .cluster(4, 2);
        let report = run_grid(&g, 2);
        let wait = |slug: &str| {
            report
                .runs
                .iter()
                .find(|r| r.point.policy.slug() == slug)
                .map(|r| r.metrics.mean_wait_s)
                .unwrap()
        };
        assert!(
            wait("maui") <= wait("fifo"),
            "backfill should not worsen mean wait: maui={} fifo={}",
            wait("maui"),
            wait("fifo")
        );
    }
}
