//! Update notification tooling.
//!
//! The paper (§3): "Yum still requires an administrator to periodically
//! run update checks. Tools are available (or admins can write their own
//! scripts and cron jobs) to either automate Yum updates or notify
//! administrators of package updates. Updating packages automatically may
//! cause unexpected behavior in a production environment ... Creating a
//! notification script so that packages may be reviewed and tested on
//! non-production nodes or systems might be the more prudent action."
//!
//! [`UpdateNotifier`] models the cron-driven checker (the "Duke yum
//! updates" analog) under the three policies that paragraph contrasts.

use crate::updates::CheckUpdate;
use crate::{SolveError, Yum};
use xcbc_rpm::RpmDb;

/// How a site handles available updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Apply every update as soon as the cron job sees it.
    Automatic,
    /// Only notify; an administrator applies updates by hand later.
    NotifyOnly,
    /// Notify, and stage updates onto designated test nodes first
    /// ("reviewed and tested on non-production nodes").
    StagedTest,
}

/// One cron-run's outcome.
#[derive(Debug, Clone, Default)]
pub struct NotificationReport {
    /// Updates visible at check time.
    pub pending: Vec<String>,
    /// Updates applied during this run (Automatic policy, or staged nodes).
    pub applied: Vec<String>,
    /// Scriptlets that restarted services during the run — the paper's
    /// "unexpected behavior" risk surface.
    pub service_restarts: Vec<String>,
    /// Human-readable mail body.
    pub mail_body: String,
}

/// Periodic update checker bound to a policy.
#[derive(Debug, Clone)]
pub struct UpdateNotifier {
    pub policy: UpdatePolicy,
    /// Cron spec, informational only (e.g. `"0 4 * * *"`).
    pub schedule: String,
    /// Admin mail target.
    pub mailto: String,
}

impl UpdateNotifier {
    pub fn new(policy: UpdatePolicy) -> Self {
        UpdateNotifier {
            policy,
            schedule: "0 4 * * *".to_string(),
            mailto: "root@localhost".to_string(),
        }
    }

    /// Run one check cycle against a production database. For
    /// [`UpdatePolicy::StagedTest`], `test_db` is the non-production node
    /// the updates get applied to for review.
    pub fn run_check(
        &self,
        yum: &Yum,
        production_db: &mut RpmDb,
        test_db: Option<&mut RpmDb>,
    ) -> Result<NotificationReport, SolveError> {
        let mut report = NotificationReport::default();
        let pending: Vec<CheckUpdate> = yum.check_update(production_db);
        report.pending = pending
            .iter()
            .map(|u| format!("{} {} -> {}", u.name, u.installed, u.available))
            .collect();

        match self.policy {
            UpdatePolicy::Automatic => {
                let tx_report = yum.update(production_db, None)?;
                report.applied = tx_report.upgraded.clone();
                report.service_restarts = tx_report
                    .scriptlets
                    .iter()
                    .filter(|s| s.action.contains("restart"))
                    .map(|s| format!("{}: {}", s.package, s.action))
                    .collect();
            }
            UpdatePolicy::NotifyOnly => {
                // nothing applied anywhere
            }
            UpdatePolicy::StagedTest => {
                if let Some(tdb) = test_db {
                    let tx_report = yum.update(tdb, None)?;
                    report.applied = tx_report.upgraded.clone();
                    report.service_restarts = tx_report
                        .scriptlets
                        .iter()
                        .filter(|s| s.action.contains("restart"))
                        .map(|s| format!("{}: {}", s.package, s.action))
                        .collect();
                }
            }
        }

        report.mail_body = self.render_mail(&report);
        Ok(report)
    }

    fn render_mail(&self, report: &NotificationReport) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "To: {}\nSubject: yum update check ({:?})\n\n",
            self.mailto, self.policy
        ));
        if report.pending.is_empty() {
            body.push_str("No updates available.\n");
        } else {
            body.push_str(&format!("{} update(s) available:\n", report.pending.len()));
            for p in &report.pending {
                body.push_str(&format!("  {p}\n"));
            }
        }
        if !report.applied.is_empty() {
            let target = match self.policy {
                UpdatePolicy::Automatic => "production",
                _ => "test nodes",
            };
            body.push_str(&format!(
                "Applied to {target}: {}\n",
                report.applied.join(", ")
            ));
        }
        if !report.service_restarts.is_empty() {
            body.push_str("WARNING: service restarts occurred:\n");
            for s in &report.service_restarts {
                body.push_str(&format!("  {s}\n"));
            }
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Repository, YumConfig};
    use xcbc_rpm::{PackageBuilder, Scriptlet, ScriptletPhase};

    fn setup() -> (Yum, RpmDb, RpmDb) {
        let mut repo = Repository::new("xsede", "XSEDE");
        repo.add_package(
            PackageBuilder::new("torque", "4.2.10", "1.el6")
                .scriptlet(
                    Scriptlet::new(ScriptletPhase::Post, "service pbs_server restart").restarting(),
                )
                .build(),
        );
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);
        let mut prod = RpmDb::new();
        prod.install(PackageBuilder::new("torque", "4.2.8", "2.el6").build());
        let mut test = RpmDb::new();
        test.install(PackageBuilder::new("torque", "4.2.8", "2.el6").build());
        (yum, prod, test)
    }

    #[test]
    fn automatic_applies_to_production() {
        let (yum, mut prod, _) = setup();
        let notifier = UpdateNotifier::new(UpdatePolicy::Automatic);
        let report = notifier.run_check(&yum, &mut prod, None).unwrap();
        assert_eq!(report.pending.len(), 1);
        assert_eq!(report.applied.len(), 1);
        assert_eq!(
            prod.newest("torque").unwrap().package.evr().version,
            "4.2.10"
        );
        assert_eq!(
            report.service_restarts.len(),
            1,
            "restart risk must be visible"
        );
        assert!(report.mail_body.contains("WARNING"));
    }

    #[test]
    fn notify_only_touches_nothing() {
        let (yum, mut prod, _) = setup();
        let notifier = UpdateNotifier::new(UpdatePolicy::NotifyOnly);
        let report = notifier.run_check(&yum, &mut prod, None).unwrap();
        assert_eq!(report.pending.len(), 1);
        assert!(report.applied.is_empty());
        assert_eq!(
            prod.newest("torque").unwrap().package.evr().version,
            "4.2.8"
        );
        assert!(report.mail_body.contains("1 update(s) available"));
    }

    #[test]
    fn staged_test_applies_only_to_test_node() {
        let (yum, mut prod, mut test) = setup();
        let notifier = UpdateNotifier::new(UpdatePolicy::StagedTest);
        let report = notifier
            .run_check(&yum, &mut prod, Some(&mut test))
            .unwrap();
        assert_eq!(report.applied.len(), 1);
        assert_eq!(
            prod.newest("torque").unwrap().package.evr().version,
            "4.2.8"
        );
        assert_eq!(
            test.newest("torque").unwrap().package.evr().version,
            "4.2.10"
        );
        assert!(report.mail_body.contains("test nodes"));
    }

    #[test]
    fn no_updates_produces_clean_mail() {
        let (yum, mut prod, _) = setup();
        yum.update(&mut prod, None).unwrap();
        let notifier = UpdateNotifier::new(UpdatePolicy::NotifyOnly);
        let report = notifier.run_check(&yum, &mut prod, None).unwrap();
        assert!(report.pending.is_empty());
        assert!(report.mail_body.contains("No updates available"));
    }
}
