//! Jobs and their lifecycle.

/// Opaque job identifier.
pub type JobId = u64;

/// What a user asks for at submit time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    pub name: String,
    /// Number of nodes requested.
    pub nodes: u32,
    /// Processors per node.
    pub ppn: u32,
    /// Requested walltime (seconds) — the scheduler's planning horizon.
    pub walltime_s: f64,
    /// Actual runtime (seconds) — what the job really does. Must be
    /// <= walltime or the job is killed at the limit.
    pub runtime_s: f64,
    pub user: String,
}

impl JobRequest {
    pub fn new(name: &str, nodes: u32, ppn: u32, walltime_s: f64, runtime_s: f64) -> Self {
        JobRequest {
            name: name.to_string(),
            nodes,
            ppn,
            walltime_s,
            runtime_s,
            user: "student".to_string(),
        }
    }

    pub fn by(mut self, user: &str) -> Self {
        self.user = user.to_string();
        self
    }

    /// Total cores this job occupies.
    pub fn cores(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// Runtime the cluster will actually charge: capped at walltime
    /// (overrunning jobs are killed at the limit).
    pub fn effective_runtime(&self) -> f64 {
        self.runtime_s.min(self.walltime_s)
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    Queued,
    Running {
        start_s: f64,
    },
    Completed {
        start_s: f64,
        end_s: f64,
    },
    /// Killed at the walltime limit.
    TimedOut {
        start_s: f64,
        end_s: f64,
    },
    Cancelled,
}

/// A job in the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub id: JobId,
    pub request: JobRequest,
    pub submit_s: f64,
    pub state: JobState,
    /// Node indices the job is (or was) placed on.
    pub placement: Vec<usize>,
}

impl Job {
    /// Wait time (queue → start); `None` while queued.
    pub fn wait_s(&self) -> Option<f64> {
        match self.state {
            JobState::Running { start_s }
            | JobState::Completed { start_s, .. }
            | JobState::TimedOut { start_s, .. } => Some(start_s - self.submit_s),
            _ => None,
        }
    }

    /// Turnaround (submit → end) for finished jobs.
    pub fn turnaround_s(&self) -> Option<f64> {
        match self.state {
            JobState::Completed { end_s, .. } | JobState::TimedOut { end_s, .. } => {
                Some(end_s - self.submit_s)
            }
            _ => None,
        }
    }

    /// Bounded slowdown with a 10 s floor (standard metric).
    pub fn bounded_slowdown(&self) -> Option<f64> {
        let turnaround = self.turnaround_s()?;
        let run = self.request.effective_runtime().max(10.0);
        Some((turnaround / run).max(1.0))
    }

    pub fn is_finished(&self) -> bool {
        matches!(
            self.state,
            JobState::Completed { .. } | JobState::TimedOut { .. } | JobState::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_and_effective_runtime() {
        let r = JobRequest::new("j", 4, 2, 100.0, 150.0);
        assert_eq!(r.cores(), 8);
        assert_eq!(r.effective_runtime(), 100.0, "killed at walltime");
        let r2 = JobRequest::new("j", 1, 1, 100.0, 50.0);
        assert_eq!(r2.effective_runtime(), 50.0);
    }

    #[test]
    fn wait_and_turnaround() {
        let mut j = Job {
            id: 1,
            request: JobRequest::new("j", 1, 1, 100.0, 50.0),
            submit_s: 10.0,
            state: JobState::Queued,
            placement: vec![],
        };
        assert!(j.wait_s().is_none());
        assert!(j.turnaround_s().is_none());
        j.state = JobState::Running { start_s: 25.0 };
        assert_eq!(j.wait_s(), Some(15.0));
        j.state = JobState::Completed {
            start_s: 25.0,
            end_s: 75.0,
        };
        assert_eq!(j.turnaround_s(), Some(65.0));
        assert!(j.is_finished());
    }

    #[test]
    fn bounded_slowdown_floors() {
        let j = Job {
            id: 1,
            request: JobRequest::new("quick", 1, 1, 5.0, 1.0),
            submit_s: 0.0,
            state: JobState::Completed {
                start_s: 0.0,
                end_s: 1.0,
            },
            placement: vec![0],
        };
        // tiny jobs use the 10s floor and clamp at 1.0
        assert_eq!(j.bounded_slowdown(), Some(1.0));
    }

    #[test]
    fn user_tagging() {
        let r = JobRequest::new("j", 1, 1, 1.0, 1.0).by("alfredm");
        assert_eq!(r.user, "alfredm");
    }
}
