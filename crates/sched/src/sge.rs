//! Sun Grid Engine façade (the third "choose one" option).
//!
//! SGE thinks in *slots* rather than nodes×ppn: a parallel-environment
//! request `-pe mpi N` asks for N slots anywhere. We map slot requests
//! onto the node-granular simulator by packing slots one per core.

use crate::job::{JobRequest, JobState};
use crate::policy::SchedPolicy;
use crate::rm::{parse_numeric_id, ResourceManager};
use crate::sim::ClusterSim;

/// An SGE cell.
#[derive(Debug)]
pub struct SgeCell {
    sim: ClusterSim,
    cores_per_node: u32,
    nodes: usize,
}

impl SgeCell {
    pub fn new(nodes: usize, cores_per_node: u32) -> Self {
        SgeCell {
            sim: ClusterSim::new(nodes, cores_per_node, SchedPolicy::EasyBackfill),
            cores_per_node,
            nodes,
        }
    }

    /// Translate a slot count into a nodes×ppn shape: fill whole nodes,
    /// then round up (SGE's `$fill_up` allocation rule). Returns `None`
    /// when the cell cannot ever satisfy the request.
    pub fn shape_for_slots(&self, slots: u32) -> Option<(u32, u32)> {
        if slots == 0 || slots > self.cores_per_node * self.nodes as u32 {
            return None;
        }
        if slots <= self.cores_per_node {
            Some((1, slots))
        } else {
            // whole nodes; remainder rounds the node count up with full ppn
            let nodes = slots.div_ceil(self.cores_per_node);
            Some((nodes, self.cores_per_node))
        }
    }

    /// `qsub -pe mpi <slots>`. Returns `Err` for impossible requests.
    pub fn qsub_pe(
        &mut self,
        name: &str,
        slots: u32,
        walltime_s: f64,
        runtime_s: f64,
    ) -> Result<String, String> {
        let (nodes, ppn) = self
            .shape_for_slots(slots)
            .ok_or_else(|| format!("cannot satisfy -pe mpi {slots} on this cell"))?;
        let id = self
            .sim
            .submit(JobRequest::new(name, nodes, ppn, walltime_s, runtime_s));
        Ok(id.to_string())
    }

    /// `qconf -ae <node>`: add an execution host to the cell. Returns
    /// the new node's index; slot-shape math sees the new capacity.
    pub fn qconf_add_exec(&mut self) -> usize {
        let node = self.sim.add_node();
        self.nodes += 1;
        node
    }

    /// `qstat` (SGE flavor).
    pub fn qstat(&self) -> String {
        let mut out = String::from("job-ID  name      state\n");
        for j in self.sim.jobs() {
            let st = match j.state {
                JobState::Queued => "qw",
                JobState::Running { .. } => "r",
                JobState::Completed { .. } => "z",
                JobState::TimedOut { .. } => "Eqw",
                JobState::Cancelled => "dz",
            };
            out.push_str(&format!("{:<7} {:<9} {}\n", j.id, j.request.name, st));
        }
        out
    }
}

impl ResourceManager for SgeCell {
    fn package_name(&self) -> &'static str {
        "gridengine"
    }

    fn submit_command(&self) -> &'static str {
        "qsub"
    }

    fn submit(&mut self, req: JobRequest) -> String {
        self.sim.submit(req).to_string()
    }

    fn cancel(&mut self, id: &str) -> bool {
        parse_numeric_id(id)
            .map(|n| self.sim.cancel(n))
            .unwrap_or(false)
    }

    fn status(&self) -> String {
        self.qstat()
    }

    fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    fn sim_mut(&mut self) -> &mut ClusterSim {
        &mut self.sim
    }

    fn add_node(&mut self) -> usize {
        // keep the slot-shape node count in step with the simulator
        self.qconf_add_exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_shapes() {
        let cell = SgeCell::new(6, 2); // a LittleFe
        assert_eq!(cell.shape_for_slots(1), Some((1, 1)));
        assert_eq!(cell.shape_for_slots(2), Some((1, 2)));
        assert_eq!(cell.shape_for_slots(3), Some((2, 2)));
        assert_eq!(cell.shape_for_slots(12), Some((6, 2)));
        assert_eq!(cell.shape_for_slots(13), None);
        assert_eq!(cell.shape_for_slots(0), None);
    }

    #[test]
    fn pe_submission_runs() {
        let mut cell = SgeCell::new(6, 2);
        let id = cell.qsub_pe("mpi-job", 12, 100.0, 80.0).unwrap();
        cell.drain();
        assert_eq!(cell.metrics().jobs_finished, 1);
        assert!(!id.is_empty());
    }

    #[test]
    fn impossible_pe_rejected() {
        let mut cell = SgeCell::new(2, 2);
        assert!(cell.qsub_pe("too-big", 5, 10.0, 5.0).is_err());
    }

    #[test]
    fn qstat_sge_states() {
        let mut cell = SgeCell::new(1, 1);
        cell.qsub_pe("running", 1, 100.0, 50.0).unwrap();
        cell.qsub_pe("waiting", 1, 100.0, 50.0).unwrap();
        cell.advance_to(1.0);
        let q = cell.qstat();
        assert!(q.contains("running") && q.contains(" r"));
        assert!(q.contains("waiting") && q.contains("qw"));
    }

    #[test]
    fn disabled_host_takes_no_jobs() {
        let mut cell = SgeCell::new(2, 2);
        assert!(cell.offline_node(0));
        cell.qsub_pe("steered", 2, 10.0, 5.0).unwrap();
        ResourceManager::drain(&mut cell);
        assert_eq!(cell.sim().running_on(0), vec![]);
        assert!(cell.online_node(0));
        assert!(cell.node_idle(1));
    }

    #[test]
    fn qconf_grows_and_shrinks_the_cell() {
        let mut cell = SgeCell::new(1, 2);
        assert_eq!(cell.shape_for_slots(4), None);
        assert_eq!(cell.qconf_add_exec(), 1);
        assert_eq!(cell.shape_for_slots(4), Some((2, 2)));
        // the trait entry point keeps slot math in step too
        assert_eq!(ResourceManager::add_node(&mut cell), 2);
        assert_eq!(cell.shape_for_slots(6), Some((3, 2)));
        assert!(cell.offline_node(2));
        assert!(cell.retire_node(2));
        assert!(!cell.online_node(2), "deleted host stays out");
    }

    #[test]
    fn facade_identity() {
        let cell = SgeCell::new(1, 1);
        assert_eq!(cell.package_name(), "gridengine");
        assert_eq!(cell.submit_command(), "qsub");
    }
}
