//! Torque/PBS façade (with Maui as the scheduler, the XCBC default:
//! Table 2 lists "maui, torque" under Scheduler and Resource Manager).

use crate::job::{JobRequest, JobState};
use crate::policy::SchedPolicy;
use crate::rm::{parse_numeric_id, ResourceManager};
use crate::sim::ClusterSim;

/// A pbs_server + maui pair on one cluster.
#[derive(Debug)]
pub struct TorqueServer {
    sim: ClusterSim,
    server_name: String,
}

impl TorqueServer {
    /// Torque with the Maui scheduler (default XCBC configuration).
    pub fn with_maui(server_name: &str, nodes: usize, cores_per_node: u32) -> Self {
        TorqueServer {
            sim: ClusterSim::new(nodes, cores_per_node, SchedPolicy::maui_default()),
            server_name: server_name.to_string(),
        }
    }

    /// `qsub -l nodes=N:ppn=P,walltime=W`.
    pub fn qsub(&mut self, req: JobRequest) -> String {
        let id = self.sim.submit(req);
        format!("{id}.{}", self.server_name)
    }

    /// `qstat` output.
    pub fn qstat(&self) -> String {
        let mut out = format!(
            "Job ID                    Name             State  Nodes\n{}\n",
            "-".repeat(56)
        );
        for j in self.sim.jobs() {
            let state = match j.state {
                JobState::Queued => "Q",
                JobState::Running { .. } => "R",
                JobState::Completed { .. } => "C",
                JobState::TimedOut { .. } => "E",
                JobState::Cancelled => "C",
            };
            out.push_str(&format!(
                "{:<25} {:<16} {:<6} {}\n",
                format!("{}.{}", j.id, self.server_name),
                j.request.name,
                state,
                j.request.nodes
            ));
        }
        out
    }

    /// `pbsnodes -a`-style node listing.
    pub fn pbsnodes(&self) -> String {
        let mut out = String::new();
        for i in 0..self.sim.node_count() {
            let state = if self.sim.is_offline(i) {
                "offline"
            } else {
                "free"
            };
            out.push_str(&format!(
                "compute-0-{i}\n     state = {state}\n     np = ?\n"
            ));
        }
        out
    }

    /// `qdel <id>`.
    pub fn qdel(&mut self, id: &str) -> bool {
        parse_numeric_id(id)
            .map(|n| self.sim.cancel(n))
            .unwrap_or(false)
    }
}

impl ResourceManager for TorqueServer {
    fn package_name(&self) -> &'static str {
        "torque"
    }

    fn submit_command(&self) -> &'static str {
        "qsub"
    }

    fn submit(&mut self, req: JobRequest) -> String {
        self.qsub(req)
    }

    fn cancel(&mut self, id: &str) -> bool {
        self.qdel(id)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::run_workload;

    #[test]
    fn qsub_returns_pbs_style_id() {
        let mut t = TorqueServer::with_maui("littlefe", 6, 2);
        let id = t.qsub(JobRequest::new("hpl", 6, 2, 100.0, 90.0));
        assert_eq!(id, "1.littlefe");
        let id2 = t.qsub(JobRequest::new("hpl2", 1, 1, 100.0, 90.0));
        assert_eq!(id2, "2.littlefe");
    }

    #[test]
    fn qstat_shows_states() {
        let mut t = TorqueServer::with_maui("littlefe", 1, 2);
        t.qsub(JobRequest::new("running", 1, 2, 100.0, 90.0));
        t.qsub(JobRequest::new("waiting", 1, 2, 100.0, 90.0));
        t.advance_to(1.0);
        let q = t.qstat();
        assert!(q.contains("running") && q.contains(" R "));
        assert!(q.contains("waiting") && q.contains(" Q "));
    }

    #[test]
    fn qdel_cancels_queued() {
        let mut t = TorqueServer::with_maui("littlefe", 1, 1);
        t.qsub(JobRequest::new("running", 1, 1, 100.0, 90.0));
        let id = t.qsub(JobRequest::new("victim", 1, 1, 100.0, 90.0));
        t.advance_to(1.0);
        assert!(t.qdel(&id));
        assert!(!t.qdel("999.littlefe"));
        assert!(!t.qdel("garbage"));
    }

    #[test]
    fn maui_beats_fifo_on_mixed_workload() {
        let workload: Vec<(f64, JobRequest)> = (0..30)
            .map(|i| {
                let (nodes, ppn, run) = if i % 5 == 0 {
                    (6, 2, 600.0)
                } else {
                    (1, 1, 60.0)
                };
                (
                    i as f64 * 10.0,
                    JobRequest::new(&format!("j{i}"), nodes, ppn, run * 1.5, run),
                )
            })
            .collect();
        // Torque alone (pbs_sched FIFO), before Maui is set up
        let mut fifo = TorqueServer {
            sim: ClusterSim::new(6, 2, SchedPolicy::Fifo),
            server_name: "c".to_string(),
        };
        let m_fifo = run_workload(&mut fifo, workload.clone());
        let mut maui = TorqueServer::with_maui("c", 6, 2);
        let m_maui = run_workload(&mut maui, workload);
        assert!(
            m_maui.mean_wait_s <= m_fifo.mean_wait_s,
            "backfill should not increase mean wait: {m_maui:?} vs {m_fifo:?}"
        );
        assert!(m_maui.utilization >= m_fifo.utilization - 1e-9);
    }

    #[test]
    fn pbsnodes_lists_all() {
        let t = TorqueServer::with_maui("littlefe", 6, 2);
        assert_eq!(t.pbsnodes().matches("state = free").count(), 6);
    }

    #[test]
    fn pbsnodes_shows_offline_node() {
        let mut t = TorqueServer::with_maui("littlefe", 2, 2);
        assert!(t.offline_node(1));
        assert_eq!(t.pbsnodes().matches("state = offline").count(), 1);
        t.qsub(JobRequest::new("steered", 1, 2, 10.0, 5.0));
        t.drain();
        assert_eq!(t.sim().running_on(1), vec![]);
        assert!(t.online_node(1));
        assert_eq!(t.pbsnodes().matches("state = free").count(), 2);
    }

    #[test]
    fn pbsnodes_tracks_added_and_retired_nodes() {
        let mut t = TorqueServer::with_maui("littlefe", 1, 2);
        assert_eq!(t.add_node(), 1);
        assert_eq!(t.pbsnodes().matches("state = free").count(), 2);
        assert!(t.offline_node(1));
        assert!(t.retire_node(1));
        assert!(!t.online_node(1), "retired node stays offline");
        assert_eq!(t.pbsnodes().matches("state = offline").count(), 1);
        assert_eq!(t.queue_depth(), 0);
    }

    #[test]
    fn trait_facade() {
        let mut t = TorqueServer::with_maui("littlefe", 2, 2);
        assert_eq!(t.package_name(), "torque");
        assert_eq!(t.submit_command(), "qsub");
        let id = ResourceManager::submit(&mut t, JobRequest::new("x", 1, 1, 10.0, 5.0));
        t.drain();
        assert!(id.contains("littlefe"));
        assert_eq!(t.metrics().jobs_finished, 1);
    }
}
