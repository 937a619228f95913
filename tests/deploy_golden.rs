//! Golden-file check of the from-scratch install path.
//!
//! Pins, byte for byte, everything a plain (fault-free) Rocks install
//! produces: the LittleFe `deploy_from_scratch` trace, timeline and
//! comparison row; `ClusterInstall::run` traces and per-host package
//! counts on LittleFe and on a 17-node variant under two roll sets; the
//! messages of the installs that must fail; and the PXE boot chain's
//! spans for a clean boot and for a failure at every stage. Any change
//! to span placement, labels, fields, package sets or error text fails
//! here.
//!
//! It also checks the `tests/golden/MANIFEST` rows of the paths where
//! nodes share one result per node image and of the plain `xcbc trace`
//! listing.
//!
//! When an intentional change shifts the output, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test deploy_golden
//! ```

mod common;

use common::assert_golden;
use common::manifest::check_files;
use std::fmt::Write as _;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};
use xcbc::cluster::ClusterSpec;
use xcbc::core::deploy::deploy_from_scratch;
use xcbc::rocks::{boot_node, standard_rolls, ClusterInstall, PxeStage, Roll};
use xcbc::sim::{events_to_jsonl, render_gantt};

/// LittleFe modified grown to 17 nodes: the frontend plus sixteen
/// copies of its first compute node.
fn seventeen_nodes() -> ClusterSpec {
    let mut c = littlefe_modified();
    let compute = c.nodes[1].clone();
    for i in c.nodes.len() - 1..16 {
        let mut n = compute.clone();
        n.hostname = format!("compute-0-{i}");
        c.nodes.push(n);
    }
    c
}

fn required_rolls() -> Vec<Roll> {
    standard_rolls()
        .into_iter()
        .filter(|r| r.required)
        .collect()
}

fn base_only_rolls() -> Vec<Roll> {
    standard_rolls()
        .into_iter()
        .filter(|r| r.name == "base")
        .collect()
}

fn install_section(out: &mut String, title: &str, cluster: ClusterSpec, rolls: Vec<Roll>) {
    writeln!(out, "# install {title}").unwrap();
    match ClusterInstall::new(cluster, rolls).run() {
        Ok(report) => {
            out.push_str(&events_to_jsonl(&report.trace));
            for host in report.node_dbs.keys() {
                writeln!(out, "# packages {host} {}", report.package_count(host)).unwrap();
            }
            writeln!(out, "# rolls {}", report.rolls_installed.join(",")).unwrap();
        }
        Err(e) => writeln!(out, "# error {e}").unwrap(),
    }
}

fn render_all() -> String {
    let mut out = String::new();

    let deploy = deploy_from_scratch(&littlefe_modified()).expect("LittleFe deploys");
    out.push_str("# deploy_from_scratch littlefe trace\n");
    out.push_str(&deploy.trace_jsonl());
    out.push_str("# deploy_from_scratch littlefe timeline\n");
    out.push_str(&render_gantt(&deploy.trace));
    writeln!(out, "# row {}", deploy.render_row()).unwrap();

    install_section(
        &mut out,
        "littlefe all-rolls",
        littlefe_modified(),
        standard_rolls(),
    );
    install_section(
        &mut out,
        "17-node all-rolls",
        seventeen_nodes(),
        standard_rolls(),
    );
    install_section(
        &mut out,
        "17-node required-rolls",
        seventeen_nodes(),
        required_rolls(),
    );
    install_section(&mut out, "limulus", limulus_hpc200(), standard_rolls());
    install_section(&mut out, "littlefe-v4", littlefe_v4(), standard_rolls());
    install_section(
        &mut out,
        "littlefe base-only",
        littlefe_modified(),
        base_only_rolls(),
    );

    let stages = std::iter::once(None).chain(PxeStage::ALL.into_iter().map(Some));
    for stage in stages {
        writeln!(out, "# boot_node compute-0-0 fails_at={stage:?}").unwrap();
        let outcome = boot_node("compute-0-0", 500 << 20, stage);
        out.push_str(&events_to_jsonl(&outcome.trace));
    }
    out
}

#[test]
fn from_scratch_install_matches_golden() {
    assert_golden(
        "tests/golden/deploy-littlefe.txt",
        render_all(),
        "from-scratch install",
    );
}

/// The golden covers what it claims to: both failure modes, a
/// quarantine-free trace, and a failed boot stage.
#[test]
fn golden_covers_every_outcome() {
    let text = render_all();
    for needle in [
        "not Rocks-installable",
        "not found in any selected roll",
        "aborted on littlefe",
        "compute-0-15: pxe + kickstart install",
        "PXE-E51",
        "LocalBoot",
        "Rocks from-scratch",
    ] {
        assert!(text.contains(needle), "golden text lacks {needle}");
    }
}

/// The fleet's merged trace and its solve-cache line at one and four
/// threads, a scriptlet fault that sends every node down its own
/// transaction, and a power loss whose resume rebuilds committed nodes.
#[test]
fn shared_image_paths_match_golden() {
    check_files(&[
        "fleet.jsonl",
        "fleet-threads1.txt",
        "fleet-threads4.txt",
        "deploy-scriptlet.txt",
        "deploy-resume.txt",
    ]);
}

/// The day-one event listing and per-source table of `xcbc trace`,
/// fault-free and under a boot fault.
#[test]
fn trace_listings_match_golden() {
    check_files(&["trace-littlefe.txt", "trace-littlefe-faults.txt"]);
}
