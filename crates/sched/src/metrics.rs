//! Workload-level metrics over a finished simulation.

use crate::sim::ClusterSim;

/// A job is "starved" when it waited in the queue longer than this
/// (4 hours) — the threshold the starvation counter and the experiment
/// harness's CSV column use.
pub const STARVATION_WAIT_S: f64 = 4.0 * 3600.0;

/// Summary statistics of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub policy: String,
    pub jobs_finished: usize,
    pub jobs_timed_out: usize,
    pub makespan_s: f64,
    /// Core-seconds used / (total cores × makespan).
    pub utilization: f64,
    pub mean_wait_s: f64,
    /// 95th-percentile job queue wait.
    pub p95_wait_s: f64,
    pub max_wait_s: f64,
    pub mean_bounded_slowdown: f64,
    /// Jobs that waited longer than [`STARVATION_WAIT_S`].
    pub starved_jobs: usize,
}

impl SimMetrics {
    /// Compute metrics from a (fully or partially) run simulator.
    pub fn from_sim(sim: &ClusterSim) -> Self {
        let finished: Vec<_> = sim.completed();
        let mut waits: Vec<f64> = finished.iter().filter_map(|j| j.wait_s()).collect();
        waits.sort_by(f64::total_cmp);
        let slowdowns: Vec<f64> = finished
            .iter()
            .filter_map(|j| j.bounded_slowdown())
            .collect();
        let makespan = sim.now();
        let timed_out = finished
            .iter()
            .filter(|j| matches!(j.state, crate::job::JobState::TimedOut { .. }))
            .count();
        SimMetrics {
            policy: sim.policy().label().to_string(),
            jobs_finished: finished.len(),
            jobs_timed_out: timed_out,
            makespan_s: makespan,
            utilization: if makespan > 0.0 {
                sim.used_core_seconds() / (sim.total_cores() as f64 * makespan)
            } else {
                0.0
            },
            mean_wait_s: mean(&waits),
            p95_wait_s: percentile(&waits, 0.95),
            max_wait_s: waits.last().copied().unwrap_or(0.0),
            mean_bounded_slowdown: mean(&slowdowns),
            starved_jobs: waits.iter().filter(|&&w| w > STARVATION_WAIT_S).count(),
        }
    }

    /// Export the workload summary into a [`xcbc_sim::MetricRegistry`]
    /// alongside the gmond/gmetad node metrics, labelled by scheduling
    /// policy.
    pub fn register_into(&self, registry: &mut xcbc_sim::MetricRegistry) {
        let labels: &[(&str, &str)] = &[("policy", &self.policy)];
        registry.set_counter(
            "xcbc_sched_jobs_finished_total",
            "Jobs that ran to completion or timeout",
            labels,
            self.jobs_finished as u64,
        );
        registry.set_counter(
            "xcbc_sched_jobs_timed_out_total",
            "Jobs killed at their walltime limit",
            labels,
            self.jobs_timed_out as u64,
        );
        registry.set_gauge(
            "xcbc_sched_makespan_seconds",
            "Simulated time at which the workload drained",
            labels,
            self.makespan_s,
        );
        registry.set_gauge(
            "xcbc_sched_utilization_ratio",
            "Core-seconds used over cores times makespan",
            labels,
            self.utilization,
        );
        registry.set_gauge(
            "xcbc_sched_wait_seconds_mean",
            "Mean job queue wait",
            labels,
            self.mean_wait_s,
        );
        registry.set_gauge(
            "xcbc_sched_wait_seconds_max",
            "Worst job queue wait",
            labels,
            self.max_wait_s,
        );
        registry.set_gauge(
            "xcbc_sched_wait_seconds_p95",
            "95th-percentile job queue wait",
            labels,
            self.p95_wait_s,
        );
        registry.set_counter(
            "xcbc_sched_jobs_starved_total",
            "Jobs that waited longer than the starvation threshold",
            labels,
            self.starved_jobs as u64,
        );
        registry.set_gauge(
            "xcbc_sched_bounded_slowdown_mean",
            "Mean bounded slowdown over finished jobs",
            labels,
            self.mean_bounded_slowdown,
        );
    }

    /// One-line rendering for bench tables.
    pub fn render_row(&self) -> String {
        format!(
            "{:<26} jobs={:<4} util={:>5.1}% wait(mean)={:>8.1}s wait(max)={:>8.1}s slowdown={:>6.2}",
            self.policy,
            self.jobs_finished,
            self.utilization * 100.0,
            self.mean_wait_s,
            self.max_wait_s,
            self.mean_bounded_slowdown
        )
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use crate::policy::SchedPolicy;

    #[test]
    fn metrics_of_simple_run() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        sim.submit_at(0.0, JobRequest::new("a", 2, 2, 100.0, 100.0));
        sim.submit_at(0.0, JobRequest::new("b", 2, 2, 100.0, 100.0));
        sim.run_to_completion();
        let m = SimMetrics::from_sim(&sim);
        assert_eq!(m.jobs_finished, 2);
        assert_eq!(m.jobs_timed_out, 0);
        assert_eq!(m.makespan_s, 200.0);
        assert!(
            (m.utilization - 1.0).abs() < 1e-9,
            "back-to-back full-machine jobs: {m:?}"
        );
        assert_eq!(m.mean_wait_s, 50.0);
        assert_eq!(m.max_wait_s, 100.0);
        assert!(m.render_row().contains("FIFO"));
    }

    #[test]
    fn empty_sim_metrics() {
        let sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        let m = SimMetrics::from_sim(&sim);
        assert_eq!(m.jobs_finished, 0);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.mean_wait_s, 0.0);
    }

    #[test]
    fn timeout_counted() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, JobRequest::new("over", 1, 1, 10.0, 100.0));
        sim.run_to_completion();
        let m = SimMetrics::from_sim(&sim);
        assert_eq!(m.jobs_timed_out, 1);
    }
}
