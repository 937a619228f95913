//! Keeping a cluster current — the paper's §3 update-strategy
//! discussion, quantified.
//!
//! The Rocks path: "to maintain the package levels, you can enable the
//! XSEDE Yum repository, then follow the Rocks instructions or use the
//! preferred method and create an update roll ... neither method will
//! seem easy to a novice administrator." The yum path: automatic
//! updates "may cause unexpected behavior in a production environment";
//! a notification script with staged testing "might be the more prudent
//! action."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xcbc_rpm::{PackageBuilder, RpmDb};
use xcbc_yum::{Repository, UpdateNotifier, UpdatePolicy, Yum, YumConfig};

/// How a site keeps XCBC software current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Rocks: build an update roll and reinstall nodes (the "preferred
    /// method" in Rocks documentation).
    UpdateRoll,
    /// Cron-driven `yum update` applied straight to production.
    AutomaticYum,
    /// Notification script; admin reviews, then applies by hand.
    NotifyOnly,
    /// Notify plus staged testing on non-production nodes first.
    StagedTest,
}

impl UpdateStrategy {
    /// Administrator effort per update cycle, in discrete steps (the
    /// "will not seem easy to a novice" axis).
    pub fn admin_steps(&self) -> u32 {
        match self {
            // build roll, add roll, rebuild distribution, reinstall nodes
            UpdateStrategy::UpdateRoll => 6,
            UpdateStrategy::AutomaticYum => 0,
            UpdateStrategy::NotifyOnly => 2,
            UpdateStrategy::StagedTest => 4,
        }
    }

    /// Days of staleness a cluster accumulates per cycle: automatic is
    /// immediate; review-based paths lag.
    pub fn staleness_days(&self) -> f64 {
        match self {
            UpdateStrategy::UpdateRoll => 30.0,
            UpdateStrategy::AutomaticYum => 0.0,
            UpdateStrategy::NotifyOnly => 7.0,
            UpdateStrategy::StagedTest => 3.0,
        }
    }
}

/// Outcome of simulating many update cycles under one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRisk {
    pub strategy_label: String,
    pub cycles: u32,
    /// Breaking updates that reached production.
    pub production_incidents: u32,
    /// Breaking updates caught on test nodes first.
    pub caught_in_staging: u32,
    /// Total admin steps spent.
    pub admin_steps_total: u32,
    /// Mean staleness in days.
    pub mean_staleness_days: f64,
}

/// Simulate `cycles` update cycles. Each cycle publishes one package
/// update; with probability `break_prob` the update misbehaves (a
/// service-restarting scriptlet gone wrong).
pub fn simulate_updates(
    strategy: UpdateStrategy,
    cycles: u32,
    break_prob: f64,
    seed: u64,
) -> UpdateRisk {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut production_incidents = 0;
    let mut caught_in_staging = 0;

    // a small production db tracking one service package
    let mut prod = RpmDb::new();
    prod.install(PackageBuilder::new("torque", "4.2.0", "1.el6").build());
    let mut test = RpmDb::new();
    test.install(PackageBuilder::new("torque", "4.2.0", "1.el6").build());

    for cycle in 0..cycles {
        let breaking = rng.gen_bool(break_prob);
        let version = format!("4.2.{}", cycle + 1);
        let mut repo = Repository::new("xsede", "XSEDE repo");
        repo.add_package(PackageBuilder::new("torque", &version, "1.el6").build());
        let mut yum = Yum::new(YumConfig::default());
        yum.add_repository(repo);

        match strategy {
            UpdateStrategy::AutomaticYum => {
                let notifier = UpdateNotifier::new(UpdatePolicy::Automatic);
                notifier
                    .run_check(&yum, &mut prod, None)
                    .expect("update applies");
                if breaking {
                    production_incidents += 1;
                }
            }
            UpdateStrategy::NotifyOnly => {
                let notifier = UpdateNotifier::new(UpdatePolicy::NotifyOnly);
                notifier
                    .run_check(&yum, &mut prod, None)
                    .expect("check runs");
                // admin reviews the mail and applies by hand; review
                // catches breakage half the time
                let caught = breaking && rng.gen_bool(0.5);
                yum.update(&mut prod, None).expect("manual apply");
                if breaking && !caught {
                    production_incidents += 1;
                } else if caught {
                    caught_in_staging += 1;
                }
            }
            UpdateStrategy::StagedTest => {
                let notifier = UpdateNotifier::new(UpdatePolicy::StagedTest);
                notifier
                    .run_check(&yum, &mut prod, Some(&mut test))
                    .expect("staged apply");
                if breaking {
                    // the test node exhibits the problem; production never
                    // sees the broken build
                    caught_in_staging += 1;
                    // test node is rolled back (reinstalled from prod image)
                    test = prod.clone();
                } else {
                    yum.update(&mut prod, None).expect("promote to production");
                }
            }
            UpdateStrategy::UpdateRoll => {
                // the admin builds an update roll and reinstalls: breakage
                // shows up during the post-reinstall burn-in, still before
                // users, but the effort is large
                if breaking {
                    caught_in_staging += 1;
                } else {
                    yum.update(&mut prod, None).expect("roll rebuild applies");
                }
            }
        }
    }

    UpdateRisk {
        strategy_label: format!("{strategy:?}"),
        cycles,
        production_incidents,
        caught_in_staging,
        admin_steps_total: strategy.admin_steps() * cycles,
        mean_staleness_days: strategy.staleness_days(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u32 = 200;
    const BREAK_PROB: f64 = 0.1;

    #[test]
    fn automatic_updates_hit_production() {
        let r = simulate_updates(UpdateStrategy::AutomaticYum, CYCLES, BREAK_PROB, 1);
        // ~10% of 200 cycles break, all in production
        assert!(r.production_incidents >= 10, "{r:?}");
        assert_eq!(r.caught_in_staging, 0);
        assert_eq!(r.admin_steps_total, 0);
        assert_eq!(r.mean_staleness_days, 0.0);
    }

    #[test]
    fn staged_testing_protects_production() {
        // "packages may be reviewed and tested on non-production nodes
        // ... the more prudent action"
        let r = simulate_updates(UpdateStrategy::StagedTest, CYCLES, BREAK_PROB, 1);
        assert_eq!(r.production_incidents, 0, "{r:?}");
        assert!(r.caught_in_staging >= 10);
    }

    #[test]
    fn notify_only_is_in_between() {
        let auto = simulate_updates(UpdateStrategy::AutomaticYum, CYCLES, BREAK_PROB, 2);
        let notify = simulate_updates(UpdateStrategy::NotifyOnly, CYCLES, BREAK_PROB, 2);
        let staged = simulate_updates(UpdateStrategy::StagedTest, CYCLES, BREAK_PROB, 2);
        assert!(notify.production_incidents < auto.production_incidents);
        assert!(staged.production_incidents <= notify.production_incidents);
    }

    #[test]
    fn update_roll_is_safe_but_laborious() {
        let roll = simulate_updates(UpdateStrategy::UpdateRoll, CYCLES, BREAK_PROB, 3);
        assert_eq!(roll.production_incidents, 0);
        assert!(
            roll.admin_steps_total
                > simulate_updates(UpdateStrategy::StagedTest, CYCLES, BREAK_PROB, 3)
                    .admin_steps_total
        );
        assert!(roll.mean_staleness_days > 7.0, "roll rebuilds lag the repo");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate_updates(UpdateStrategy::NotifyOnly, 50, 0.2, 9);
        let b = simulate_updates(UpdateStrategy::NotifyOnly, 50, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn strategy_axes() {
        assert_eq!(UpdateStrategy::AutomaticYum.admin_steps(), 0);
        assert!(
            UpdateStrategy::UpdateRoll.admin_steps() > UpdateStrategy::StagedTest.admin_steps()
        );
    }

    #[test]
    fn zero_break_prob_no_incidents_anywhere() {
        for s in [
            UpdateStrategy::AutomaticYum,
            UpdateStrategy::NotifyOnly,
            UpdateStrategy::StagedTest,
            UpdateStrategy::UpdateRoll,
        ] {
            let r = simulate_updates(s, 50, 0.0, 4);
            assert_eq!(r.production_incidents, 0, "{s:?}");
            assert_eq!(r.caught_in_staging, 0, "{s:?}");
        }
    }
}
