//! SLURM façade (the second of XCBC's "choose one" job managers).

use crate::job::{JobRequest, JobState};
use crate::policy::SchedPolicy;
use crate::rm::{parse_numeric_id, ResourceManager};
use crate::sim::ClusterSim;

/// A slurmctld with the backfill scheduler (SLURM's default plugin is
/// `sched/backfill`).
#[derive(Debug)]
pub struct Slurm {
    sim: ClusterSim,
    partition: String,
}

impl Slurm {
    pub fn new(partition: &str, nodes: usize, cores_per_node: u32) -> Self {
        Slurm {
            sim: ClusterSim::new(nodes, cores_per_node, SchedPolicy::EasyBackfill),
            partition: partition.to_string(),
        }
    }

    /// `sbatch -N nodes --ntasks-per-node=ppn`.
    pub fn sbatch(&mut self, req: JobRequest) -> String {
        format!("{}", self.sim.submit(req))
    }

    /// `squeue` output.
    pub fn squeue(&self) -> String {
        let mut out = String::from("JOBID PARTITION     NAME     ST  NODES\n");
        for j in self.sim.jobs() {
            let st = match j.state {
                JobState::Queued => "PD",
                JobState::Running { .. } => "R",
                JobState::Completed { .. } => "CD",
                JobState::TimedOut { .. } => "TO",
                JobState::Cancelled => "CA",
            };
            out.push_str(&format!(
                "{:<5} {:<13} {:<8} {:<3} {:>5}\n",
                j.id, self.partition, j.request.name, st, j.request.nodes
            ));
        }
        out
    }

    /// `sinfo` output.
    pub fn sinfo(&self) -> String {
        format!(
            "PARTITION AVAIL NODES STATE\n{:<9} up    {:>5} mixed\n",
            self.partition,
            self.sim.node_count()
        )
    }

    /// `scancel <id>`.
    pub fn scancel(&mut self, id: &str) -> bool {
        parse_numeric_id(id)
            .map(|n| self.sim.cancel(n))
            .unwrap_or(false)
    }
}

impl ResourceManager for Slurm {
    fn package_name(&self) -> &'static str {
        "slurm"
    }

    fn submit_command(&self) -> &'static str {
        "sbatch"
    }

    fn submit(&mut self, req: JobRequest) -> String {
        self.sbatch(req)
    }

    fn cancel(&mut self, id: &str) -> bool {
        self.scancel(id)
    }

    fn status(&self) -> String {
        self.squeue()
    }

    fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    fn sim_mut(&mut self) -> &mut ClusterSim {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbatch_numeric_ids() {
        let mut s = Slurm::new("compute", 4, 4);
        assert_eq!(s.sbatch(JobRequest::new("a", 1, 1, 10.0, 5.0)), "1");
        assert_eq!(s.sbatch(JobRequest::new("b", 1, 1, 10.0, 5.0)), "2");
    }

    #[test]
    fn squeue_states() {
        let mut s = Slurm::new("compute", 1, 1);
        s.sbatch(JobRequest::new("run", 1, 1, 100.0, 50.0));
        s.sbatch(JobRequest::new("pend", 1, 1, 100.0, 50.0));
        s.advance_to(1.0);
        let q = s.squeue();
        assert!(q.contains("run") && q.contains(" R "));
        assert!(q.contains("pend") && q.contains("PD"));
    }

    #[test]
    fn backfill_by_default() {
        let s = Slurm::new("compute", 2, 2);
        assert!(s.sim().policy().backfills());
    }

    #[test]
    fn sinfo_and_scancel() {
        let mut s = Slurm::new("debug", 3, 2);
        assert!(s.sinfo().contains("debug"));
        s.sbatch(JobRequest::new("running", 3, 2, 100.0, 50.0));
        let id = s.sbatch(JobRequest::new("victim", 1, 1, 100.0, 50.0));
        s.advance_to(1.0);
        assert!(s.scancel(&id));
    }

    #[test]
    fn drained_node_takes_no_jobs() {
        let mut s = Slurm::new("compute", 2, 2);
        assert!(s.offline_node(0));
        s.sbatch(JobRequest::new("steered", 1, 2, 10.0, 5.0));
        s.drain();
        assert_eq!(s.sim().running_on(0), vec![]);
        assert!(s.online_node(0));
        assert!(!s.sim().is_offline(0));
    }

    #[test]
    fn dynamic_nodes() {
        let mut s = Slurm::new("compute", 1, 2);
        s.sbatch(JobRequest::new("running", 1, 2, 100.0, 100.0));
        s.sbatch(JobRequest::new("waiting", 1, 2, 50.0, 50.0));
        s.advance_to(1.0);
        assert_eq!(s.queue_depth(), 1);
        assert_eq!(s.add_node(), 1);
        assert_eq!(s.queue_depth(), 0);
        s.drain();
        assert!(s.offline_node(1));
        assert!(s.retire_node(1));
        assert!(!s.online_node(1), "deleted node stays out");
    }

    #[test]
    fn facade_metrics() {
        let mut s = Slurm::new("compute", 2, 2);
        s.sbatch(JobRequest::new("x", 2, 2, 10.0, 8.0));
        s.drain();
        let m = s.metrics();
        assert_eq!(m.jobs_finished, 1);
        assert_eq!(s.package_name(), "slurm");
        assert_eq!(s.submit_command(), "sbatch");
    }
}
