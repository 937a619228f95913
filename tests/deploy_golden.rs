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
//! It also pins the `xcbc` output of the paths where nodes share one
//! result per node image (see [`SHARED_IMAGE_GOLDENS`]): the fleet's
//! merged trace and its solve-cache line at one and four threads, a
//! scriptlet fault that sends every node down its own transaction, and
//! a power loss whose resume rebuilds committed nodes; and the plain
//! `xcbc trace` listing with its per-source table (see
//! [`TRACE_GOLDENS`]).
//!
//! When an intentional change shifts the output, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test deploy_golden
//! ```

use std::fmt::Write as _;
use xcbc::cluster::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};
use xcbc::cluster::ClusterSpec;
use xcbc::core::deploy::deploy_from_scratch;
use xcbc::rocks::{boot_node, standard_rolls, ClusterInstall, PxeStage, Roll};
use xcbc::sim::events_to_jsonl;

const GOLDEN_PATH: &str = "tests/golden/deploy-littlefe.txt";

/// `(golden file, xcbc arguments)`: stdout of each command, byte for
/// byte. The fleet summary names the worker count and the simulated
/// makespan on that many workers, so it is pinned at one and at four
/// threads; its solve-cache totals are the same at both, because a
/// site whose solve loses the insert race counts a hit.
const SHARED_IMAGE_GOLDENS: [(&str, &[&str]); 5] = [
    ("tests/golden/fleet.jsonl", &["fleet", "--jsonl"]),
    (
        "tests/golden/fleet-threads1.txt",
        &["fleet", "--threads", "1"],
    ),
    (
        "tests/golden/fleet-threads4.txt",
        &["fleet", "--threads", "4"],
    ),
    (
        "tests/golden/deploy-scriptlet.txt",
        &[
            "deploy",
            "littlefe",
            "--faults",
            "seed=9; rpm.scriptlet key=openmpi on=nth:1",
        ],
    ),
    (
        "tests/golden/deploy-resume.txt",
        &[
            "deploy",
            "littlefe",
            "--faults",
            "seed=7; rate dhcp.discover 0.2; power.loss key=compute-0-2 on=nth:0",
        ],
    ),
];

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
    out.push_str(&deploy.timeline().render());
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
    let actual = render_all();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("XCBC_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("bless golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {GOLDEN_PATH}: {e} (run with XCBC_BLESS=1 to create)"));
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        panic!(
            "from-scratch install drifted from {GOLDEN_PATH} (first differing line: {first_diff:?}); \
             if intentional, regenerate with XCBC_BLESS=1 cargo test --test deploy_golden"
        );
    }
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

/// The day-one event listing and per-source table of `xcbc trace`,
/// fault-free and under a boot fault whose hung boots and retry
/// backoff land on the install lane. (A bare
/// `--faults` is the seed-42 plan, which fires nothing here, so it
/// would pin the fault-free bytes twice.)
const TRACE_GOLDENS: [(&str, &[&str]); 2] = [
    ("tests/golden/trace-littlefe.txt", &["trace", "littlefe"]),
    (
        "tests/golden/trace-littlefe-faults.txt",
        &[
            "trace",
            "littlefe",
            "--faults",
            "seed=11; node.boot key=compute-0-2",
        ],
    ),
];

#[test]
fn shared_image_paths_match_golden() {
    check_cli_goldens(&SHARED_IMAGE_GOLDENS);
}

#[test]
fn trace_listings_match_golden() {
    check_cli_goldens(&TRACE_GOLDENS);
}

fn check_cli_goldens(goldens: &[(&str, &[&str])]) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for &(golden, args) in goldens {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xcbc"))
            .args(args)
            .output()
            .expect("run xcbc");
        assert!(out.status.success(), "xcbc {args:?} failed");
        let path = root.join(golden);
        if std::env::var_os("XCBC_BLESS").is_some() {
            std::fs::write(&path, &out.stdout).expect("bless golden file");
            continue;
        }
        let expected = std::fs::read(&path).unwrap_or_else(|e| panic!("read {golden}: {e}"));
        assert!(
            out.stdout == expected,
            "xcbc {args:?} drifted from {golden}; if intentional, regenerate with \
             XCBC_BLESS=1 cargo test --test deploy_golden"
        );
    }
}
