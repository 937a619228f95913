//! The resource-manager abstraction.
//!
//! XCBC's Table 1 says "Torque, SLURM, sge (choose one)". All three
//! façades implement [`ResourceManager`], so the deployment code in
//! `xcbc-core` can install any of them and the curriculum can teach the
//! command differences while the underlying simulation stays the same.

use crate::job::{JobId, JobRequest};
use crate::metrics::SimMetrics;
use crate::policy::SchedPolicy;
use crate::sge::SgeCell;
use crate::sim::ClusterSim;
use crate::slurm::Slurm;
use crate::torque::TorqueServer;
use std::fmt;

/// A batch system facade over the simulator.
pub trait ResourceManager {
    /// The package name XCBC installs for this RM (e.g. "torque").
    fn package_name(&self) -> &'static str;

    /// The submit command users type (`qsub` / `sbatch`).
    fn submit_command(&self) -> &'static str;

    /// Submit a job; returns the RM's textual job id.
    fn submit(&mut self, req: JobRequest) -> String;

    /// Cancel by textual id; true if a queued job was removed.
    fn cancel(&mut self, id: &str) -> bool;

    /// Kill a *running* job by textual id (operator `qdel`/`scancel`
    /// on a job that already started); freed cores are re-evaluated
    /// immediately. True if a running job was terminated.
    fn kill(&mut self, id: &str) -> bool {
        parse_numeric_id(id)
            .map(|n| self.sim_mut().kill(n))
            .unwrap_or(false)
    }

    /// Render the queue status listing (`qstat` / `squeue`).
    fn status(&self) -> String;

    /// Advance simulated time.
    fn advance_to(&mut self, t: f64) {
        self.sim_mut().run_until(t);
    }

    /// Drain all events.
    fn drain(&mut self) {
        self.sim_mut().run_to_completion();
    }

    /// Access the underlying simulator.
    fn sim(&self) -> &ClusterSim;

    /// Mutable access to the underlying simulator — used by parity
    /// tests and the soak harness to normalize scheduling policy across
    /// frontends and to drain the recorded trace
    /// ([`ClusterSim::take_trace`]).
    fn sim_mut(&mut self) -> &mut ClusterSim;

    /// Metrics snapshot.
    fn metrics(&self) -> SimMetrics {
        SimMetrics::from_sim(self.sim())
    }

    /// Take a node out of service (rolling-update drain): running jobs
    /// keep running, new placements skip it. The façades expose the
    /// native spelling (`pbsnodes -o` / `scontrol update state=drain` /
    /// `qmod -d`); this is the uniform entry point campaigns use.
    fn offline_node(&mut self, node: usize) -> bool {
        self.sim_mut().set_offline(node)
    }

    /// Return a node to service after its update.
    fn online_node(&mut self, node: usize) -> bool {
        self.sim_mut().set_online(node)
    }

    /// Losslessly requeue whatever still runs on a draining node;
    /// returns the requeued job ids.
    fn requeue_node(&mut self, node: usize) -> Vec<JobId> {
        self.sim_mut().requeue_jobs_on(node)
    }

    /// True when `node` has no running jobs (safe to reinstall).
    fn node_idle(&self, node: usize) -> bool {
        self.sim().node_idle(node)
    }

    /// Grow the cluster by one node (elastic scale-up / burst join);
    /// returns the new node's index. The façades expose the native
    /// spelling (`qmgr -c "create node"` / `scontrol create nodename` /
    /// `qconf -ae`); this is the uniform entry point the elastic engine
    /// uses.
    fn add_node(&mut self) -> usize {
        self.sim_mut().add_node()
    }

    /// Permanently remove an idle, drained node (elastic scale-down /
    /// burst departure). Returns false if already retired.
    fn retire_node(&mut self, node: usize) -> bool {
        self.sim_mut().retire_node(node)
    }

    /// Eligible queued jobs — the autoscaler's demand signal.
    fn queue_depth(&self) -> usize {
        self.sim().queue_depth()
    }
}

/// Parse the numeric part out of an RM job id like `"42.littlefe"` or
/// `"42"`.
pub(crate) fn parse_numeric_id(id: &str) -> Option<JobId> {
    id.split('.').next()?.parse().ok()
}

/// Which resource-manager frontend a run uses — the typed spelling of
/// XCBC's "Torque, SLURM, sge (choose one)". Generators and the
/// experiment sweep driver are written against [`ResourceManager`],
/// so an `RmKind` is all they need to be backend-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RmKind {
    Torque,
    Slurm,
    Sge,
}

impl RmKind {
    /// Every frontend, in canonical order (sweep default).
    pub const ALL: [RmKind; 3] = [RmKind::Torque, RmKind::Slurm, RmKind::Sge];

    /// The package name XCBC installs for this RM.
    pub fn label(&self) -> &'static str {
        match self {
            RmKind::Torque => "torque",
            RmKind::Slurm => "slurm",
            RmKind::Sge => "sge",
        }
    }

    /// Parse the package-name spelling.
    pub fn parse(s: &str) -> Result<RmKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "torque" | "pbs" => Ok(RmKind::Torque),
            "slurm" => Ok(RmKind::Slurm),
            "sge" | "gridengine" => Ok(RmKind::Sge),
            other => Err(format!(
                "unknown resource manager {other:?} (want torque/slurm/sge)"
            )),
        }
    }

    /// Build this frontend over a fresh cluster with its native default
    /// scheduler (Torque ships Maui; SLURM and SGE default to EASY
    /// backfill). `name` labels the server where the frontend has one.
    pub fn build_default(
        &self,
        name: &str,
        nodes: usize,
        cores_per_node: u32,
    ) -> Box<dyn ResourceManager> {
        match self {
            RmKind::Torque => Box::new(TorqueServer::with_maui(name, nodes, cores_per_node)),
            RmKind::Slurm => Box::new(Slurm::new(name, nodes, cores_per_node)),
            RmKind::Sge => Box::new(SgeCell::new(nodes, cores_per_node)),
        }
    }

    /// Build this frontend over a fresh cluster, with the given
    /// scheduling policy installed — the uniform constructor the
    /// workload engine and sweep driver use.
    pub fn build(
        &self,
        nodes: usize,
        cores_per_node: u32,
        policy: SchedPolicy,
    ) -> Box<dyn ResourceManager> {
        let mut rm = self.build_default("cluster", nodes, cores_per_node);
        rm.sim_mut().set_policy(policy);
        rm
    }
}

impl fmt::Display for RmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Run a whole `(submit_time, request)` workload through an RM and
/// return metrics. Jobs are submitted in time order; the façade
/// advances between submissions the way a live cluster would.
pub fn run_workload<R: ResourceManager + ?Sized>(
    rm: &mut R,
    jobs: impl IntoIterator<Item = (f64, JobRequest)>,
) -> SimMetrics {
    let mut jobs: Vec<(f64, JobRequest)> = jobs.into_iter().collect();
    jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (t, req) in jobs {
        rm.advance_to(t);
        rm.submit(req);
    }
    rm.drain();
    rm.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_parsing() {
        assert_eq!(parse_numeric_id("42.littlefe"), Some(42));
        assert_eq!(parse_numeric_id("17"), Some(17));
        assert_eq!(parse_numeric_id("x.y"), None);
        assert_eq!(parse_numeric_id(""), None);
    }
}
