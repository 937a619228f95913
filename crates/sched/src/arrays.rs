//! Job arrays (`qsub -t 0-9` / `sbatch --array=0-9`).
//!
//! Parameter sweeps are the bread-and-butter workload of the paper's
//! target users ("workloads requiring fewer than 16 cores"). An array
//! request expands to one job per index, tracked as a group.

use crate::job::{JobId, JobRequest};
use crate::sim::ClusterSim;

/// A submitted array: the member ids in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobArray {
    pub base_name: String,
    pub member_ids: Vec<JobId>,
}

impl JobArray {
    pub fn len(&self) -> usize {
        self.member_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.member_ids.is_empty()
    }

    /// Are all members finished in `sim`?
    pub fn all_finished(&self, sim: &ClusterSim) -> bool {
        self.member_ids
            .iter()
            .all(|id| sim.job(*id).map(|j| j.is_finished()).unwrap_or(false))
    }

    /// (finished, total) progress.
    pub fn progress(&self, sim: &ClusterSim) -> (usize, usize) {
        let done = self
            .member_ids
            .iter()
            .filter(|id| sim.job(**id).map(|j| j.is_finished()).unwrap_or(false))
            .count();
        (done, self.member_ids.len())
    }
}

/// Submit `template` once per index in `indices`, naming each member
/// `name[i]` the way Torque/SLURM display array tasks.
pub fn submit_array(
    sim: &mut ClusterSim,
    template: &JobRequest,
    indices: std::ops::RangeInclusive<u32>,
) -> JobArray {
    let mut member_ids = Vec::new();
    for i in indices {
        let mut req = template.clone();
        req.name = format!("{}[{i}]", template.name);
        member_ids.push(sim.submit(req));
    }
    JobArray {
        base_name: template.name.clone(),
        member_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedPolicy;

    #[test]
    fn array_expands_and_completes() {
        let mut sim = ClusterSim::new(2, 2, SchedPolicy::EasyBackfill);
        let template = JobRequest::new("sweep", 1, 1, 100.0, 50.0);
        let array = submit_array(&mut sim, &template, 0..=9);
        assert_eq!(array.len(), 10);
        assert!(!array.all_finished(&sim));
        sim.run_to_completion();
        assert!(array.all_finished(&sim));
        assert_eq!(array.progress(&sim), (10, 10));
    }

    #[test]
    fn members_named_with_indices() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let array = submit_array(&mut sim, &JobRequest::new("t", 1, 1, 10.0, 5.0), 3..=5);
        let names: Vec<String> = array
            .member_ids
            .iter()
            .map(|id| sim.job(*id).unwrap().request.name.clone())
            .collect();
        assert_eq!(names, vec!["t[3]", "t[4]", "t[5]"]);
    }

    #[test]
    fn array_members_fill_machine_in_waves() {
        // 10 serial tasks on 2 cores: 5 waves of 50s = 250s makespan
        let mut sim = ClusterSim::new(1, 2, SchedPolicy::Fifo);
        let array = submit_array(&mut sim, &JobRequest::new("w", 1, 1, 60.0, 50.0), 0..=9);
        sim.run_to_completion();
        assert!(array.all_finished(&sim));
        assert!((sim.now() - 250.0).abs() < 1e-9, "makespan {}", sim.now());
    }

    #[test]
    fn partial_progress_visible() {
        let mut sim = ClusterSim::new(1, 1, SchedPolicy::Fifo);
        let array = submit_array(&mut sim, &JobRequest::new("p", 1, 1, 20.0, 10.0), 0..=2);
        sim.run_until(15.0); // first member done, second running
        assert_eq!(array.progress(&sim), (1, 3));
    }
}
