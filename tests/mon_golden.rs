//! Golden-file checks of the Prometheus expositions.
//!
//! One test checks the `tests/golden/MANIFEST` row of
//! `xcbc mon littlefe --prom`, the default (seed 42, fault-free)
//! day-one scrape; the other rolls the default `xcbc fleet` deployment
//! up into fleet telemetry and diffs its exposition against
//! `tests/golden/fleet-telemetry.prom`.
//!
//! When an intentional change shifts the exposition, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test mon_golden
//! ```

mod common;

use common::assert_golden;
use common::manifest::check_files;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified};
use xcbc::core::deploy::limulus_factory_image;
use xcbc::core::fleet::{Fleet, FleetSite, FleetTelemetry};
use xcbc::core::sites::{deployed_sites, AdoptionPath};
use xcbc::core::XnitSetupMethod;

#[test]
fn littlefe_prometheus_exposition_matches_golden() {
    check_files(&["littlefe.prom"]);
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
    assert_golden(
        "tests/golden/fleet-telemetry.prom",
        FleetTelemetry::from_report(&report).prometheus(),
        "fleet exposition",
    );
}
