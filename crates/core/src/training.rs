//! The §6 training curriculum: "Building and administering a
//! Beowulf-style cluster with LittleFe and the XSEDE-compatible Basic
//! Cluster build".
//!
//! A [`Curriculum`] is an ordered list of lessons; a [`LabSession`]
//! executes them against the simulated substrates, grading each step by
//! actually performing it (bare-metal install, insert-ethers, job
//! submission, compatibility verification) — "bare-metal installations
//! can be done as part of the curriculum, meaning students experience
//! installing clusters and software and monitoring."

use crate::compat::check_compatibility;
use crate::deploy::deploy_from_scratch;
use xcbc_cluster::{ClusterMonitor, ClusterSpec, MetricKind};
use xcbc_sched::{JobRequest, ResourceManager, TorqueServer};

/// One lesson step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LessonStep {
    /// Assemble the hardware and verify power/thermal budgets.
    AssembleHardware,
    /// Bare-metal frontend + compute install with the XSEDE roll.
    InstallXcbc,
    /// Discover nodes with insert-ethers (validated during install).
    DiscoverNodes,
    /// Start Ganglia-style monitoring and publish node metrics.
    StartMonitoring,
    /// Submit and run an MPI job through the scheduler.
    SubmitJob,
    /// Verify XSEDE run-alike compatibility.
    VerifyCompatibility,
}

impl LessonStep {
    pub fn title(self) -> &'static str {
        match self {
            LessonStep::AssembleHardware => "Assemble and validate the LittleFe hardware",
            LessonStep::InstallXcbc => "Install Rocks + the XSEDE roll from bare metal",
            LessonStep::DiscoverNodes => "Discover compute nodes with insert-ethers",
            LessonStep::StartMonitoring => "Bring up cluster monitoring",
            LessonStep::SubmitJob => "Submit an MPI job with qsub",
            LessonStep::VerifyCompatibility => "Verify XSEDE compatibility",
        }
    }
}

/// The published module's step sequence.
pub fn littlefe_curriculum() -> Curriculum {
    Curriculum {
        title: "Building and administering a Beowulf-style cluster with LittleFe and the XCBC"
            .to_string(),
        steps: vec![
            LessonStep::AssembleHardware,
            LessonStep::InstallXcbc,
            LessonStep::DiscoverNodes,
            LessonStep::StartMonitoring,
            LessonStep::SubmitJob,
            LessonStep::VerifyCompatibility,
        ],
    }
}

/// An ordered set of lesson steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Curriculum {
    pub title: String,
    pub steps: Vec<LessonStep>,
}

/// Result of one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    pub step: LessonStep,
    pub passed: bool,
    pub detail: String,
}

/// A lab session: one student working through the curriculum on one
/// (simulated) cluster.
#[derive(Debug)]
pub struct LabSession {
    pub student: String,
    cluster: ClusterSpec,
    outcomes: Vec<StepOutcome>,
    // state threaded between steps
    node_dbs: Option<std::collections::BTreeMap<String, xcbc_rpm::RpmDb>>,
    discovered_nodes: usize,
}

impl LabSession {
    pub fn new(student: &str, cluster: ClusterSpec) -> Self {
        LabSession {
            student: student.to_string(),
            cluster,
            outcomes: Vec::new(),
            node_dbs: None,
            discovered_nodes: 0,
        }
    }

    pub fn outcomes(&self) -> &[StepOutcome] {
        &self.outcomes
    }

    /// Fraction of executed steps passed.
    pub fn grade(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.passed).count() as f64 / self.outcomes.len() as f64
    }

    /// Execute every step of a curriculum in order. Later steps still run
    /// after a failure (students see the consequences).
    pub fn run(&mut self, curriculum: &Curriculum) {
        for &step in &curriculum.steps {
            let outcome = self.run_step(step);
            self.outcomes.push(outcome);
        }
    }

    fn run_step(&mut self, step: LessonStep) -> StepOutcome {
        match step {
            LessonStep::AssembleHardware => {
                let power_ok = self.cluster.power_budget_ok();
                let thermal_ok = self.cluster.nodes.iter().all(|n| {
                    xcbc_cluster::check_node_thermals(
                        n,
                        xcbc_cluster::thermal::LITTLEFE_BAY_CLEARANCE_MM,
                    )
                    .is_empty()
                });
                StepOutcome {
                    step,
                    passed: power_ok && thermal_ok,
                    detail: format!("power budget ok: {power_ok}; thermals ok: {thermal_ok}"),
                }
            }
            LessonStep::InstallXcbc => match deploy_from_scratch(&self.cluster) {
                Ok(report) => {
                    let detail = format!(
                        "installed in {:.0} simulated seconds",
                        xcbc_sim::span_end(&report.trace).as_secs_f64()
                    );
                    self.discovered_nodes = report.node_dbs.len().saturating_sub(1);
                    self.node_dbs = Some(report.node_dbs);
                    StepOutcome {
                        step,
                        passed: true,
                        detail,
                    }
                }
                Err(e) => StepOutcome {
                    step,
                    passed: false,
                    detail: e.to_string(),
                },
            },
            LessonStep::DiscoverNodes => {
                let expected = self.cluster.node_count() - 1;
                let passed = self.discovered_nodes == expected;
                StepOutcome {
                    step,
                    passed,
                    detail: format!(
                        "{}/{} compute nodes discovered",
                        self.discovered_nodes, expected
                    ),
                }
            }
            LessonStep::StartMonitoring => {
                let mut monitor = ClusterMonitor::new(16);
                for n in &self.cluster.nodes {
                    monitor.publish(&n.hostname, MetricKind::LoadOne, 0.0, 0.1);
                }
                let passed = monitor.node_count() == self.cluster.node_count();
                StepOutcome {
                    step,
                    passed,
                    detail: format!("{} gmond daemons reporting", monitor.node_count()),
                }
            }
            LessonStep::SubmitJob => {
                let computes = self.cluster.compute_nodes().count();
                let ppn = self
                    .cluster
                    .compute_nodes()
                    .map(|n| n.cores())
                    .min()
                    .unwrap_or(1);
                let mut torque = TorqueServer::with_maui(&self.cluster.name, computes, ppn);
                let id = torque.qsub(JobRequest::new(
                    "mpi-hello",
                    computes as u32,
                    ppn,
                    120.0,
                    60.0,
                ));
                torque.drain();
                let metrics = torque.metrics();
                StepOutcome {
                    step,
                    passed: metrics.jobs_finished == 1,
                    detail: format!(
                        "job {id} finished; utilization {:.0}%",
                        metrics.utilization * 100.0
                    ),
                }
            }
            LessonStep::VerifyCompatibility => match &self.node_dbs {
                Some(dbs) => {
                    let db = dbs.values().next().expect("nodes exist");
                    let report = check_compatibility(db);
                    StepOutcome {
                        step,
                        passed: report.is_compatible(),
                        detail: format!("compatibility {:.1}%", report.score * 100.0),
                    }
                }
                None => StepOutcome {
                    step,
                    passed: false,
                    detail: "no installed cluster to verify (install step failed?)".to_string(),
                },
            },
        }
    }

    /// Render the grade sheet.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Lab session: {} — grade {:.0}%\n",
            self.student,
            self.grade() * 100.0
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "  [{}] {} — {}\n",
                if o.passed { "PASS" } else { "FAIL" },
                o.step.title(),
                o.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};

    #[test]
    fn full_lab_on_modified_littlefe_passes() {
        let mut lab = LabSession::new("student-a", littlefe_modified());
        lab.run(&littlefe_curriculum());
        assert_eq!(lab.grade(), 1.0, "{}", lab.render());
        assert_eq!(lab.outcomes().len(), 6);
    }

    #[test]
    fn lab_on_v4_littlefe_fails_install_and_verify() {
        // the unmodified (diskless, Atom) LittleFe cannot host XCBC —
        // the motivation for the §5.1 hardware modification
        let mut lab = LabSession::new("student-b", littlefe_v4());
        lab.run(&littlefe_curriculum());
        assert!(lab.grade() < 1.0);
        let by_step = |s: LessonStep| lab.outcomes().iter().find(|o| o.step == s).unwrap();
        assert!(!by_step(LessonStep::InstallXcbc).passed);
        assert!(!by_step(LessonStep::VerifyCompatibility).passed);
        // but hardware assembly and monitoring still teach something
        assert!(by_step(LessonStep::AssembleHardware).passed);
        assert!(by_step(LessonStep::StartMonitoring).passed);
    }

    #[test]
    fn lab_on_limulus_fails_rocks_path() {
        let mut lab = LabSession::new("student-c", limulus_hpc200());
        lab.run(&littlefe_curriculum());
        let install = lab
            .outcomes()
            .iter()
            .find(|o| o.step == LessonStep::InstallXcbc)
            .unwrap();
        assert!(!install.passed);
        assert!(install.detail.contains("diskless"));
    }

    #[test]
    fn grade_sheet_renders() {
        let mut lab = LabSession::new("student-d", littlefe_modified());
        lab.run(&littlefe_curriculum());
        let sheet = lab.render();
        assert!(sheet.contains("student-d"));
        assert!(sheet.contains("PASS"));
        assert!(sheet.contains("insert-ethers"));
    }

    #[test]
    fn curriculum_covers_admin_lifecycle() {
        let c = littlefe_curriculum();
        assert_eq!(c.steps.len(), 6);
        assert_eq!(c.steps[0], LessonStep::AssembleHardware);
        assert_eq!(*c.steps.last().unwrap(), LessonStep::VerifyCompatibility);
        for s in &c.steps {
            assert!(!s.title().is_empty());
        }
    }

    #[test]
    fn empty_session_grades_zero() {
        let lab = LabSession::new("s", littlefe_modified());
        assert_eq!(lab.grade(), 0.0);
    }
}
