//! Golden-file checks of the Prometheus expositions.
//!
//! `xcbc mon littlefe --prom` must be byte-stable across refactors: the
//! scrape is the observability contract downstream dashboards are built
//! against. One test replays the default (seed 42, fault-free) day-one
//! scenario through the telemetry pipeline and diffs the exposition
//! against `tests/golden/littlefe.prom`; the other rolls the default
//! `xcbc fleet` deployment up into fleet telemetry and diffs its
//! exposition against `tests/golden/fleet-telemetry.prom`.
//!
//! When an intentional change shifts the exposition, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test mon_golden
//! ```

use xcbc::cluster::default_alert_rules;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::fleet::{Fleet, FleetSite, FleetTelemetry};
use xcbc::core::mon::monitor_run;
use xcbc::core::scenario::littlefe_day_one;
use xcbc::core::sites::{deployed_sites, AdoptionPath};
use xcbc::core::XnitSetupMethod;
use xcbc::fault::FaultPlan;

#[test]
fn littlefe_prometheus_exposition_matches_golden() {
    let run = littlefe_day_one(&FaultPlan::new(42)).expect("clean day-one run");
    let report = monitor_run(&run, default_alert_rules());
    check_golden("tests/golden/littlefe.prom", &report.prometheus());
}

/// The fleet `xcbc fleet --threads 1` deploys: every Table 3
/// from-scratch site on the LittleFe spec (seeded per site), every XNIT
/// site as an overlay on Limulus factory images.
fn default_fleet() -> Fleet {
    let mut fleet = Fleet::new().with_threads(1);
    for (i, site) in deployed_sites().into_iter().enumerate() {
        fleet = fleet.add_site(match site.path {
            AdoptionPath::XcbcFromScratch => {
                FleetSite::from_scratch(site.name, littlefe_modified(), i as u64)
            }
            AdoptionPath::XnitRepository => {
                let dbs = limulus_hpc200()
                    .nodes
                    .iter()
                    .map(|n| (n.hostname.clone(), limulus_factory_image()))
                    .collect();
                FleetSite::overlay(site.name, dbs, XnitSetupMethod::RepoRpm)
            }
        });
    }
    fleet
}

#[test]
fn fleet_telemetry_exposition_matches_golden() {
    let report = default_fleet().deploy();
    assert!(report.all_succeeded());
    let actual = FleetTelemetry::from_report(&report).prometheus();
    check_golden("tests/golden/fleet-telemetry.prom", &actual);
}

fn check_golden(golden: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("XCBC_BLESS").is_some() {
        std::fs::write(&path, actual).expect("bless golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (run with XCBC_BLESS=1 to create)", golden));
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        panic!(
            "exposition drifted from {golden} (first differing line: {:?}); \
             if intentional, regenerate with XCBC_BLESS=1 cargo test --test mon_golden",
            first_diff
        );
    }
}
