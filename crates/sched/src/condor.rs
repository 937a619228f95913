//! HTCondor-style cycle scavenging (the `htcondor` roll of Table 1).
//!
//! Condor's niche on a campus cluster is opportunistic work: jobs run on
//! cores the batch system leaves idle and are *vacated* (preempted and
//! requeued) the moment the owner wants the cores back. We model a
//! condor pool layered over a core budget with vacate-and-requeue
//! semantics and goodput/badput accounting.

/// One opportunistic job.
#[derive(Debug, Clone, PartialEq)]
pub struct CondorJob {
    pub id: u64,
    pub name: String,
    /// Total compute seconds of work.
    pub work_s: f64,
    /// Work completed so far (survives vacation only with checkpointing).
    pub done_s: f64,
    pub checkpointable: bool,
    pub state: CondorState,
    /// Times vacated.
    pub vacations: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondorState {
    Idle,
    Running,
    Completed,
}

/// The pool: a core budget shared with (and yielded to) the batch system.
#[derive(Debug)]
pub struct CondorPool {
    total_cores: u32,
    /// Cores currently claimed by the batch system (priority owner).
    owner_claimed: u32,
    jobs: Vec<CondorJob>,
    next_id: u64,
    time_s: f64,
    /// Seconds of useful (kept) work delivered.
    pub goodput_s: f64,
    /// Seconds of work lost to non-checkpointed vacations.
    pub badput_s: f64,
}

impl CondorPool {
    pub fn new(total_cores: u32) -> Self {
        CondorPool {
            total_cores,
            owner_claimed: 0,
            jobs: Vec::new(),
            next_id: 0,
            time_s: 0.0,
            goodput_s: 0.0,
            badput_s: 0.0,
        }
    }

    /// `condor_submit`.
    pub fn submit(&mut self, name: &str, work_s: f64, checkpointable: bool) -> u64 {
        self.next_id += 1;
        self.jobs.push(CondorJob {
            id: self.next_id,
            name: name.to_string(),
            work_s,
            done_s: 0.0,
            checkpointable,
            state: CondorState::Idle,
            vacations: 0,
        });
        self.next_id
    }

    pub fn job(&self, id: u64) -> Option<&CondorJob> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Cores available to condor right now.
    pub fn scavengeable_cores(&self) -> u32 {
        self.total_cores - self.owner_claimed
    }

    fn running(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == CondorState::Running)
            .count()
    }

    /// The owner (batch system) claims `cores`; condor vacates enough
    /// running jobs to free them. Non-checkpointable jobs lose their
    /// progress (badput).
    pub fn owner_claims(&mut self, cores: u32) {
        self.owner_claimed = (self.owner_claimed + cores).min(self.total_cores);
        let allowed = self.scavengeable_cores() as usize;
        let mut running: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.state == CondorState::Running)
            .map(|(i, _)| i)
            .collect();
        while running.len() > allowed {
            let idx = running.pop().expect("nonempty");
            let job = &mut self.jobs[idx];
            job.state = CondorState::Idle;
            job.vacations += 1;
            if !job.checkpointable {
                // the completed fraction is lost: move it from goodput to
                // badput so the two always partition delivered core-time
                self.badput_s += job.done_s;
                self.goodput_s -= job.done_s;
                job.done_s = 0.0;
            }
        }
    }

    /// The owner releases `cores`.
    pub fn owner_releases(&mut self, cores: u32) {
        self.owner_claimed = self.owner_claimed.saturating_sub(cores);
    }

    /// Start idle jobs onto free cores (one core each).
    fn activate(&mut self) {
        let budget = self.scavengeable_cores() as usize;
        let mut slots = budget.saturating_sub(self.running());
        for job in &mut self.jobs {
            if slots == 0 {
                break;
            }
            if job.state == CondorState::Idle {
                job.state = CondorState::Running;
                slots -= 1;
            }
        }
    }

    /// Advance time by `dt` seconds: idle jobs start onto free cores (one
    /// core each), running jobs progress, and as jobs complete the next
    /// wave starts within the same interval.
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0);
        let mut remaining = dt;
        while remaining > 0.0 {
            self.activate();
            // time to the next completion among running jobs
            let next_done = self
                .jobs
                .iter()
                .filter(|j| j.state == CondorState::Running)
                .map(|j| j.work_s - j.done_s)
                .fold(f64::INFINITY, f64::min);
            if !next_done.is_finite() {
                // nothing runnable: idle out the remainder
                break;
            }
            let step = remaining.min(next_done.max(0.0));
            for job in &mut self.jobs {
                if job.state == CondorState::Running {
                    job.done_s += step;
                    self.goodput_s += step;
                    if job.done_s >= job.work_s - 1e-12 {
                        job.done_s = job.work_s;
                        job.state = CondorState::Completed;
                    }
                }
            }
            remaining -= step;
        }
        self.time_s += dt;
    }

    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == CondorState::Completed)
            .count()
    }

    pub fn now(&self) -> f64 {
        self.time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scavenges_idle_cores() {
        let mut pool = CondorPool::new(4);
        for i in 0..4 {
            pool.submit(&format!("sweep{i}"), 100.0, true);
        }
        pool.advance(100.0);
        assert_eq!(pool.completed(), 4);
        assert_eq!(pool.goodput_s, 400.0);
        assert_eq!(pool.badput_s, 0.0);
    }

    #[test]
    fn owner_claim_vacates_jobs() {
        let mut pool = CondorPool::new(4);
        for i in 0..4 {
            pool.submit(&format!("j{i}"), 100.0, true);
        }
        pool.advance(50.0); // all half done
        pool.owner_claims(3); // batch job takes 3 cores
        assert_eq!(pool.scavengeable_cores(), 1);
        pool.advance(50.0);
        // only one job could keep running
        assert_eq!(pool.completed(), 1);
        let vacated = pool.jobs.iter().filter(|j| j.vacations > 0).count();
        assert_eq!(vacated, 3);
    }

    #[test]
    fn checkpointing_preserves_progress() {
        let mut pool = CondorPool::new(1);
        let ck = pool.submit("resumable", 100.0, true);
        pool.advance(60.0);
        pool.owner_claims(1);
        pool.advance(10.0); // nothing runs
        assert_eq!(pool.job(ck).unwrap().done_s, 60.0, "progress kept");
        pool.owner_releases(1);
        pool.advance(40.0);
        assert_eq!(pool.job(ck).unwrap().state, CondorState::Completed);
        assert_eq!(pool.badput_s, 0.0);
        // total goodput equals the work, despite the vacation
        assert_eq!(pool.goodput_s, 100.0);
    }

    #[test]
    fn non_checkpointable_loses_work() {
        let mut pool = CondorPool::new(1);
        let id = pool.submit("fragile", 100.0, false);
        pool.advance(60.0);
        pool.owner_claims(1);
        assert_eq!(pool.badput_s, 60.0);
        assert_eq!(pool.job(id).unwrap().done_s, 0.0, "restarts from scratch");
        pool.owner_releases(1);
        pool.advance(100.0);
        assert_eq!(pool.job(id).unwrap().state, CondorState::Completed);
    }

    #[test]
    fn more_jobs_than_cores_run_in_waves() {
        let mut pool = CondorPool::new(2);
        for i in 0..6 {
            pool.submit(&format!("w{i}"), 10.0, true);
        }
        pool.advance(10.0);
        assert_eq!(pool.completed(), 2);
        pool.advance(10.0);
        assert_eq!(pool.completed(), 4);
        pool.advance(10.0);
        assert_eq!(pool.completed(), 6);
    }

    #[test]
    fn owner_claim_clamped() {
        let mut pool = CondorPool::new(2);
        pool.owner_claims(99);
        assert_eq!(pool.scavengeable_cores(), 0);
        pool.owner_releases(99);
        assert_eq!(pool.scavengeable_cores(), 2);
    }
}
