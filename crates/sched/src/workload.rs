//! Stochastic open-loop workload synthesis.
//!
//! Produces unbounded, seeded job streams shaped like the campus
//! cluster mixes the paper's target sites run: mostly small
//! serial/bioinformatics jobs with occasional full-machine MPI runs,
//! heavier research tails, and day/night submission rhythm. The typed
//! [`WorkloadSpec`] builder is the single description of a workload —
//! normalized and digestable like `SolveRequest` — and
//! [`WorkloadSpec::stream`] turns it into a lazy [`JobStream`] of
//! `(submit_time, JobRequest)` pairs, so a million-job horizon costs
//! no up-front memory.
//!
//! A `(spec.digest(), seed, cluster shape)` triple fully determines
//! the stream: the experiment harness in [`crate::exp`] leans on that
//! for worker-count-invariant sweeps.

use crate::dist::Dist;
use crate::job::JobRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xcbc_sim::Fnv64;

/// How wide generated jobs are.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthMix {
    /// Probability a job asks for the whole machine (MPI run).
    pub full_machine: f64,
    /// Node count for non-full jobs (rounded, clamped to the cluster).
    pub nodes: Dist,
    /// Cores per node for non-full jobs (rounded, clamped).
    pub ppn: Dist,
}

/// Who submits: `count` users with Zipf(`skew`) submission weights
/// (skew 0 = uniform; larger = a few heavy users dominate).
#[derive(Debug, Clone, PartialEq)]
pub struct UserMix {
    pub count: usize,
    pub skew: f64,
}

/// A submission queue class: its share of arrivals and how it scales
/// the drawn runtime (e.g. a `short` queue trims jobs, a `long` queue
/// stretches them). The queue name becomes the job-name prefix, so
/// accounting by queue falls out of the job table.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueClass {
    pub name: String,
    pub weight: f64,
    pub runtime_scale: f64,
}

impl QueueClass {
    pub fn new(name: &str, weight: f64, runtime_scale: f64) -> Self {
        QueueClass {
            name: name.to_string(),
            weight,
            runtime_scale,
        }
    }
}

/// Day/night modulation of the arrival rate:
/// `rate(t) = 1 + amplitude·sin(2π(t + phase_s)/period_s)`.
/// Interarrival gaps are divided by `rate(t)`, so amplitude 0.6 means
/// peak-hour submissions come 1.6× as fast as the long-run average.
#[derive(Debug, Clone, PartialEq)]
pub struct Diurnal {
    /// Modulation depth in `[0, 1)`.
    pub amplitude: f64,
    /// Cycle length in seconds (86400 = daily).
    pub period_s: f64,
    /// Phase offset in seconds.
    pub phase_s: f64,
}

impl Diurnal {
    /// A daily cycle with the given depth.
    pub fn daily(amplitude: f64) -> Self {
        Diurnal {
            amplitude,
            period_s: 86_400.0,
            phase_s: 0.0,
        }
    }

    /// Instantaneous rate multiplier at simulated second `t`.
    pub fn rate(&self, t: f64) -> f64 {
        1.0 + self.amplitude * (std::f64::consts::TAU * (t + self.phase_s) / self.period_s).sin()
    }
}

/// The arrival side of a workload: interarrival distribution plus
/// optional diurnal modulation. Open-loop: arrivals never react to
/// queue state, which is what makes saturation measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Gap between consecutive submissions, seconds (pre-modulation).
    pub interarrival: Dist,
    pub diurnal: Option<Diurnal>,
}

impl ArrivalProcess {
    /// Poisson arrivals at the given mean gap.
    pub fn poisson(mean_interarrival_s: f64) -> Self {
        ArrivalProcess {
            interarrival: Dist::Exponential {
                mean: mean_interarrival_s,
            },
            diurnal: None,
        }
    }

    /// Add day/night modulation.
    pub fn with_diurnal(mut self, diurnal: Diurnal) -> Self {
        self.diurnal = Some(diurnal);
        self
    }

    /// Draw the next gap given the current simulated time. Exactly one
    /// `interarrival` sample per call regardless of modulation.
    pub fn next_gap(&self, t: f64, rng: &mut StdRng) -> f64 {
        let gap = self.interarrival.sample(rng);
        match &self.diurnal {
            Some(d) => gap / d.rate(t).max(1e-6),
            None => gap,
        }
    }
}

/// A complete, typed description of a synthetic workload.
///
/// Build one with the fluent setters, then call
/// [`WorkloadSpec::stream`] (lazy) or [`WorkloadSpec::generate`]
/// (materialized) against a cluster shape and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub arrivals: ArrivalProcess,
    /// Job runtime, seconds (before queue scaling).
    pub runtime: Dist,
    pub width: WidthMix,
    /// Users request walltime = runtime × this factor (clamped ≥ 1:
    /// users pad, they don't undershoot on purpose).
    pub walltime_factor: Dist,
    pub users: UserMix,
    pub queues: Vec<QueueClass>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::new()
    }
}

impl WorkloadSpec {
    /// A neutral baseline: Poisson arrivals, log-uniform runtimes,
    /// mostly single-node jobs, one `batch` queue.
    pub fn new() -> Self {
        WorkloadSpec {
            arrivals: ArrivalProcess::poisson(300.0),
            runtime: Dist::LogUniform {
                lo: 60.0,
                hi: 3600.0,
            },
            width: WidthMix {
                full_machine: 0.1,
                nodes: Dist::Constant { value: 1.0 },
                ppn: Dist::Uniform { lo: 1.0, hi: 8.0 },
            },
            walltime_factor: Dist::Constant { value: 2.0 },
            users: UserMix {
                count: 8,
                skew: 0.0,
            },
            queues: vec![QueueClass::new("batch", 1.0, 1.0)],
        }
    }

    /// A teaching-lab mix on a deskside cluster: frequent small jobs,
    /// occasional whole-machine Linpack runs.
    pub fn teaching_lab() -> Self {
        WorkloadSpec::new()
            .arrivals(ArrivalProcess::poisson(120.0))
            .runtime(Dist::LogUniform {
                lo: 30.0,
                hi: 1800.0,
            })
            .width(WidthMix {
                full_machine: 0.1,
                nodes: Dist::Constant { value: 1.0 },
                ppn: Dist::Uniform { lo: 1.0, hi: 2.0 },
            })
            .walltime_factor(Dist::Constant { value: 2.0 })
            .users(UserMix {
                count: 8,
                skew: 0.0,
            })
    }

    /// A research mix: longer jobs, more MPI, a short/long queue split.
    pub fn campus_research() -> Self {
        WorkloadSpec::new()
            .arrivals(ArrivalProcess::poisson(600.0))
            .runtime(Dist::LogUniform {
                lo: 600.0,
                hi: 24.0 * 3600.0,
            })
            .width(WidthMix {
                full_machine: 0.25,
                nodes: Dist::Uniform { lo: 1.0, hi: 4.0 },
                ppn: Dist::Uniform { lo: 1.0, hi: 2.0 },
            })
            .walltime_factor(Dist::Constant { value: 1.5 })
            .users(UserMix {
                count: 20,
                skew: 1.0,
            })
            .queues(vec![
                QueueClass::new("short", 0.6, 0.25),
                QueueClass::new("long", 0.4, 1.0),
            ])
    }

    /// A heavy-tailed production mix: lognormal runtimes with a Pareto
    /// interarrival burst structure and a strong daily rhythm — the
    /// workload that separates backfill policies.
    pub fn heavy_tail() -> Self {
        WorkloadSpec::new()
            .arrivals(
                ArrivalProcess {
                    interarrival: Dist::Pareto {
                        alpha: 2.2,
                        xmin: 50.0,
                    },
                    diurnal: None,
                }
                .with_diurnal(Diurnal::daily(0.6)),
            )
            .runtime(Dist::lognormal_mean_cv(1800.0, 3.0))
            .width(WidthMix {
                full_machine: 0.05,
                nodes: Dist::LogUniform { lo: 1.0, hi: 8.0 },
                ppn: Dist::Uniform { lo: 1.0, hi: 4.0 },
            })
            .walltime_factor(Dist::Uniform { lo: 1.2, hi: 3.0 })
            .users(UserMix {
                count: 40,
                skew: 1.2,
            })
            .queues(vec![
                QueueClass::new("short", 0.5, 0.1),
                QueueClass::new("batch", 0.4, 1.0),
                QueueClass::new("long", 0.1, 4.0),
            ])
    }

    // ----- fluent setters -----

    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    pub fn runtime(mut self, runtime: Dist) -> Self {
        self.runtime = runtime;
        self
    }

    pub fn width(mut self, width: WidthMix) -> Self {
        self.width = width;
        self
    }

    pub fn walltime_factor(mut self, factor: Dist) -> Self {
        self.walltime_factor = factor;
        self
    }

    pub fn users(mut self, users: UserMix) -> Self {
        self.users = users;
        self
    }

    pub fn queues(mut self, queues: Vec<QueueClass>) -> Self {
        self.queues = queues;
        self
    }

    /// Scale the arrival rate by `load` (2.0 = twice the traffic) —
    /// the load-sweep knob. Only meaningful for distributions whose
    /// scale is a parameter; implemented by dividing the interarrival
    /// scale parameters.
    pub fn scaled_load(mut self, load: f64) -> Self {
        assert!(load > 0.0, "load factor must be positive");
        self.arrivals.interarrival = match self.arrivals.interarrival {
            Dist::Constant { value } => Dist::Constant {
                value: value / load,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo / load,
                hi: hi / load,
            },
            Dist::Exponential { mean } => Dist::Exponential { mean: mean / load },
            Dist::Pareto { alpha, xmin } => Dist::Pareto {
                alpha,
                xmin: xmin / load,
            },
            Dist::LogNormal { mu, sigma } => Dist::LogNormal {
                mu: mu - load.ln(),
                sigma,
            },
            Dist::LogUniform { lo, hi } => Dist::LogUniform {
                lo: lo / load,
                hi: hi / load,
            },
        };
        self
    }

    /// The canonical form streams and digests use: queue weights
    /// normalized to sum 1 (zero/negative-weight queues dropped, an
    /// empty list becomes a single `batch` queue), full-machine
    /// probability clamped to `[0,1]`, diurnal amplitude clamped to
    /// `[0, 0.95]`, at least one user.
    pub fn normalized(&self) -> WorkloadSpec {
        let mut spec = self.clone();
        spec.queues.retain(|q| q.weight > 0.0);
        if spec.queues.is_empty() {
            spec.queues = vec![QueueClass::new("batch", 1.0, 1.0)];
        }
        let total: f64 = spec.queues.iter().map(|q| q.weight).sum();
        for q in &mut spec.queues {
            q.weight /= total;
        }
        spec.width.full_machine = spec.width.full_machine.clamp(0.0, 1.0);
        if let Some(d) = &mut spec.arrivals.diurnal {
            d.amplitude = d.amplitude.clamp(0.0, 0.95);
            if d.period_s <= 0.0 {
                spec.arrivals.diurnal = None;
            }
        }
        spec.users.count = spec.users.count.max(1);
        spec.users.skew = spec.users.skew.max(0.0);
        spec
    }

    /// Stable 64-bit digest of the normalized spec — combined with the
    /// seed and cluster shape it names a job stream exactly (the run
    /// identity the experiment harness records).
    pub fn digest(&self) -> u64 {
        let norm = self.normalized();
        let mut h = Fnv64::new();
        norm.arrivals.interarrival.write_digest(&mut h);
        match &norm.arrivals.diurnal {
            Some(d) => {
                h.write_u64(1)
                    .write_f64(d.amplitude)
                    .write_f64(d.period_s)
                    .write_f64(d.phase_s);
            }
            None => {
                h.write_u64(0);
            }
        }
        norm.runtime.write_digest(&mut h);
        h.write_f64(norm.width.full_machine);
        norm.width.nodes.write_digest(&mut h);
        norm.width.ppn.write_digest(&mut h);
        norm.walltime_factor.write_digest(&mut h);
        h.write_u64(norm.users.count as u64)
            .write_f64(norm.users.skew);
        for q in &norm.queues {
            h.write_str(&q.name)
                .write_f64(q.weight)
                .write_f64(q.runtime_scale);
        }
        h.finish()
    }

    /// Lazy, unbounded job stream against a cluster of
    /// `nodes × cores_per_node`, fully determined by `seed`.
    pub fn stream(&self, seed: u64, nodes: u32, cores_per_node: u32) -> JobStream {
        assert!(nodes > 0 && cores_per_node > 0);
        let spec = self.normalized();
        JobStream {
            rng: StdRng::seed_from_u64(seed ^ spec.digest()),
            user_cdf: cumulative(
                &(0..spec.users.count)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(spec.users.skew))
                    .collect::<Vec<_>>(),
            ),
            queue_cdf: cumulative(&spec.queues.iter().map(|q| q.weight).collect::<Vec<_>>()),
            spec,
            t: 0.0,
            i: 0,
            nodes,
            cores_per_node,
        }
    }

    /// Materialize the first `n` jobs of the stream.
    pub fn generate(
        &self,
        seed: u64,
        nodes: u32,
        cores_per_node: u32,
        n: usize,
    ) -> Vec<(f64, JobRequest)> {
        self.stream(seed, nodes, cores_per_node).take(n).collect()
    }
}

fn cumulative(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// The lazy arrival stream a [`WorkloadSpec`] unrolls into. Infinite:
/// take as many jobs as the experiment horizon needs. Every job
/// consumes a fixed number of RNG draws, so streams under different
/// cluster shapes stay aligned.
#[derive(Debug)]
pub struct JobStream {
    spec: WorkloadSpec,
    rng: StdRng,
    user_cdf: Vec<f64>,
    queue_cdf: Vec<f64>,
    t: f64,
    i: u64,
    nodes: u32,
    cores_per_node: u32,
}

impl JobStream {
    /// Jobs yielded so far.
    pub fn emitted(&self) -> u64 {
        self.i
    }
}

impl Iterator for JobStream {
    type Item = (f64, JobRequest);

    fn next(&mut self) -> Option<(f64, JobRequest)> {
        self.t += self.spec.arrivals.next_gap(self.t, &mut self.rng);

        // Fixed draw order: queue, user, width (always all three
        // samples), runtime, walltime factor.
        let qu: f64 = self.rng.gen_range(0.0..1.0);
        let queue = &self.spec.queues[pick(&self.queue_cdf, qu)];
        let uu: f64 = self.rng.gen_range(0.0..1.0);
        let user = pick(&self.user_cdf, uu);

        let full = self.rng.gen_bool(self.spec.width.full_machine);
        let nodes_draw = self.spec.width.nodes.sample(&mut self.rng);
        let ppn_draw = self.spec.width.ppn.sample(&mut self.rng);
        let (nodes, ppn) = if full {
            (self.nodes, self.cores_per_node)
        } else {
            (
                (nodes_draw.round() as u32).clamp(1, self.nodes),
                (ppn_draw.round() as u32).clamp(1, self.cores_per_node),
            )
        };

        let runtime = (self.spec.runtime.sample(&mut self.rng) * queue.runtime_scale).max(1.0);
        let factor = self.spec.walltime_factor.sample(&mut self.rng).max(1.0);
        let walltime = runtime * factor;

        let name = format!("{}-{}", queue.name, self.i);
        let req =
            JobRequest::new(&name, nodes, ppn, walltime, runtime).by(&format!("user{:02}", user));
        self.i += 1;
        Some((self.t, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_seed() {
        let spec = WorkloadSpec::teaching_lab();
        assert_eq!(spec.generate(42, 6, 2, 50), spec.generate(42, 6, 2, 50));
        assert_ne!(spec.generate(1, 6, 2, 50), spec.generate(2, 6, 2, 50));
    }

    #[test]
    fn digest_feeds_the_stream() {
        // Same seed, different spec → different stream.
        let a = WorkloadSpec::teaching_lab();
        let b = WorkloadSpec::teaching_lab().walltime_factor(Dist::Constant { value: 3.0 });
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.generate(7, 6, 2, 20), b.generate(7, 6, 2, 20));
    }

    #[test]
    fn normalization_is_idempotent_and_digest_stable() {
        let raw = WorkloadSpec::new().queues(vec![
            QueueClass::new("a", 3.0, 1.0),
            QueueClass::new("b", 1.0, 2.0),
            QueueClass::new("dead", 0.0, 1.0),
        ]);
        let norm = raw.normalized();
        assert_eq!(norm.normalized(), norm);
        assert_eq!(raw.digest(), norm.digest());
        assert_eq!(norm.queues.len(), 2);
        let total: f64 = norm.queues.iter().map(|q| q.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Proportional weights normalize to the same canonical form.
        let scaled = WorkloadSpec::new().queues(vec![
            QueueClass::new("a", 6.0, 1.0),
            QueueClass::new("b", 2.0, 2.0),
        ]);
        assert_eq!(scaled.digest(), raw.digest());
    }

    #[test]
    fn jobs_fit_cluster_shape() {
        let spec = WorkloadSpec::campus_research();
        for (_, req) in spec.generate(7, 6, 2, 300) {
            assert!((1..=6).contains(&req.nodes));
            assert!((1..=2).contains(&req.ppn));
            assert!(
                req.walltime_s >= req.runtime_s,
                "padding keeps jobs inside walltime"
            );
            assert!(req.runtime_s >= 1.0);
        }
    }

    #[test]
    fn times_monotonic_and_positive() {
        let spec = WorkloadSpec::heavy_tail();
        let jobs = spec.generate(3, 8, 4, 500);
        assert!(jobs[0].0 > 0.0);
        for w in jobs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn full_machine_fraction_roughly_respected() {
        let spec = WorkloadSpec::teaching_lab();
        let jobs = spec.generate(11, 6, 2, 1000);
        let full = jobs
            .iter()
            .filter(|(_, r)| r.nodes == 6 && r.ppn == 2)
            .count();
        assert!(
            (50..200).contains(&full),
            "expected ~10% full-machine, got {full}/1000"
        );
    }

    #[test]
    fn queue_mix_respected_and_named() {
        let spec = WorkloadSpec::new().queues(vec![
            QueueClass::new("short", 0.8, 0.1),
            QueueClass::new("long", 0.2, 2.0),
        ]);
        let jobs = spec.generate(5, 4, 2, 1000);
        let short = jobs
            .iter()
            .filter(|(_, r)| r.name.starts_with("short-"))
            .count();
        assert!(
            (700..900).contains(&short),
            "expected ~80% short-queue, got {short}/1000"
        );
        assert!(jobs.iter().all(|(_, r)| r.name.contains('-')));
    }

    #[test]
    fn user_skew_concentrates_submissions() {
        let skewed = WorkloadSpec::new().users(UserMix {
            count: 10,
            skew: 2.0,
        });
        let jobs = skewed.generate(9, 4, 2, 1000);
        let top = jobs.iter().filter(|(_, r)| r.user == "user00").count();
        assert!(
            top > 400,
            "zipf(2) should give user00 the majority, got {top}/1000"
        );
    }

    #[test]
    fn diurnal_modulation_shifts_arrivals_toward_peak() {
        let flat = WorkloadSpec::new().arrivals(ArrivalProcess::poisson(600.0));
        let wavy = WorkloadSpec::new()
            .arrivals(ArrivalProcess::poisson(600.0).with_diurnal(Diurnal::daily(0.9)));
        let n = 2000;
        // count jobs landing in the first (rising, fast) half of each day
        let in_peak = |jobs: &[(f64, JobRequest)]| {
            jobs.iter()
                .filter(|(t, _)| (t % 86_400.0) < 43_200.0)
                .count()
        };
        let f = in_peak(&flat.generate(13, 4, 2, n));
        let w = in_peak(&wavy.generate(13, 4, 2, n));
        assert!(
            w > f + n / 20,
            "diurnal peak should attract arrivals: flat={f} wavy={w}"
        );
    }

    #[test]
    fn generated_workload_runs_clean() {
        let jobs = WorkloadSpec::teaching_lab().generate(5, 6, 2, 50);
        let mut sim = crate::ClusterSim::new(6, 2, crate::SchedPolicy::maui_default());
        for (t, req) in jobs {
            sim.run_until(t);
            sim.submit_at(t, req);
        }
        sim.run_to_completion();
        assert_eq!(sim.completed().len(), 50);
    }

    #[test]
    fn scaled_load_speeds_up_arrivals() {
        let base = WorkloadSpec::teaching_lab();
        let hot = base.clone().scaled_load(2.0);
        let t_base = base.generate(21, 6, 2, 500).last().unwrap().0;
        let t_hot = hot.generate(21, 6, 2, 500).last().unwrap().0;
        assert!(
            t_hot < t_base * 0.7,
            "2x load should compress the horizon: {t_hot} vs {t_base}"
        );
    }

    #[test]
    fn stream_is_lazy_and_alignment_fixed() {
        let spec = WorkloadSpec::heavy_tail();
        let mut s = spec.stream(1, 8, 4);
        let first: Vec<_> = s.by_ref().take(10).collect();
        assert_eq!(s.emitted(), 10);
        // Same prefix when taking more.
        let again: Vec<_> = spec.stream(1, 8, 4).take(20).collect();
        assert_eq!(&again[..10], &first[..]);
    }
}
