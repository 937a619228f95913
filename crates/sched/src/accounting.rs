//! Usage accounting (`qacct`/`sreport` style).
//!
//! Campus clusters justify their budgets with usage reports; the
//! fairshare scheduler needs per-user history. This module summarizes a
//! finished simulation into per-user and per-job-class reports.

use crate::job::JobState;
use crate::sim::ClusterSim;
use std::collections::BTreeMap;

/// One user's row in the usage report.
#[derive(Debug, Clone, PartialEq)]
pub struct UserUsage {
    pub user: String,
    pub jobs: usize,
    pub core_seconds: f64,
    pub mean_wait_s: f64,
    /// Share of the cluster's total delivered core-seconds.
    pub share: f64,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageReport {
    pub rows: Vec<UserUsage>,
    pub total_core_seconds: f64,
    /// Jobs that hit their walltime limit (lost work).
    pub timed_out_jobs: usize,
}

/// Build the report from a simulator.
pub fn usage_report(sim: &ClusterSim) -> UsageReport {
    struct Acc {
        jobs: usize,
        core_seconds: f64,
        waits: Vec<f64>,
    }
    let mut per_user: BTreeMap<String, Acc> = BTreeMap::new();
    let mut timed_out = 0;
    for job in sim.jobs() {
        let (start, end) = match job.state {
            JobState::Completed { start_s, end_s } => (start_s, end_s),
            JobState::TimedOut { start_s, end_s } => {
                timed_out += 1;
                (start_s, end_s)
            }
            _ => continue,
        };
        let acc = per_user.entry(job.request.user.clone()).or_insert(Acc {
            jobs: 0,
            core_seconds: 0.0,
            waits: Vec::new(),
        });
        acc.jobs += 1;
        acc.core_seconds += job.request.cores() as f64 * (end - start);
        if let Some(w) = job.wait_s() {
            acc.waits.push(w);
        }
    }
    let total: f64 = per_user.values().map(|a| a.core_seconds).sum();
    let rows = per_user
        .into_iter()
        .map(|(user, acc)| UserUsage {
            user,
            jobs: acc.jobs,
            mean_wait_s: if acc.waits.is_empty() {
                0.0
            } else {
                acc.waits.iter().sum::<f64>() / acc.waits.len() as f64
            },
            share: if total > 0.0 {
                acc.core_seconds / total
            } else {
                0.0
            },
            core_seconds: acc.core_seconds,
        })
        .collect();
    UsageReport {
        rows,
        total_core_seconds: total,
        timed_out_jobs: timed_out,
    }
}

impl UsageReport {
    /// Render like `sreport cluster UserUtilizationByAccount`.
    pub fn render(&self) -> String {
        let mut out = String::from("User        Jobs  Core-seconds      Share  MeanWait\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<11} {:>4} {:>13.0} {:>9.1}% {:>8.1}s\n",
                r.user,
                r.jobs,
                r.core_seconds,
                r.share * 100.0,
                r.mean_wait_s
            ));
        }
        out.push_str(&format!(
            "TOTAL            {:>14.0} core-seconds, {} timed-out job(s)\n",
            self.total_core_seconds, self.timed_out_jobs
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use crate::policy::SchedPolicy;

    #[test]
    fn report_aggregates_per_user() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        sim.submit_at(0.0, JobRequest::new("a1", 1, 2, 100.0, 100.0).by("alice"));
        sim.submit_at(0.0, JobRequest::new("a2", 1, 2, 50.0, 50.0).by("alice"));
        sim.submit_at(0.0, JobRequest::new("b1", 1, 1, 200.0, 300.0).by("bob")); // times out
        sim.run_to_completion();
        let report = usage_report(&sim);
        assert_eq!(report.rows.len(), 2);
        let alice = report.rows.iter().find(|r| r.user == "alice").unwrap();
        assert_eq!(alice.jobs, 2);
        assert_eq!(alice.core_seconds, 2.0 * 100.0 + 2.0 * 50.0);
        let bob = report.rows.iter().find(|r| r.user == "bob").unwrap();
        assert_eq!(bob.core_seconds, 200.0, "charged to the walltime kill");
        assert_eq!(report.timed_out_jobs, 1);
        let share_sum: f64 = report.rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accounting_matches_sim_counter() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::Fifo);
        for i in 0..10 {
            sim.submit_at(
                i as f64,
                JobRequest::new(&format!("j{i}"), 1, 1, 60.0, 30.0),
            );
        }
        sim.run_to_completion();
        let report = usage_report(&sim);
        assert!((report.total_core_seconds - sim.used_core_seconds()).abs() < 1e-9);
    }

    #[test]
    fn empty_sim_report() {
        let sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let report = usage_report(&sim);
        assert!(report.rows.is_empty());
        assert_eq!(report.total_core_seconds, 0.0);
        assert!(report.render().contains("TOTAL"));
    }

    #[test]
    fn render_has_rows() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        sim.submit_at(0.0, JobRequest::new("x", 1, 1, 10.0, 5.0).by("carol"));
        sim.run_to_completion();
        let text = usage_report(&sim).render();
        assert!(text.contains("carol"));
        assert!(text.contains("100.0%"));
    }
}
