//! The `xcbc` binary at its argument boundary: a mistyped or
//! inapplicable invocation exits 1 with a message naming the bad flag
//! or value instead of quietly running something else. Rejections must
//! happen before any scenario runs; the one accepted soak runs a single
//! seed at the smallest limits.

use std::process::{Command, Output};

use xcbc::fault::Mutation;

fn xcbc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xcbc"))
        .args(args)
        .output()
        .expect("xcbc binary runs")
}

/// One seed at the smallest limits, so a flag that slips through the
/// parser still finishes quickly.
fn tiny_soak(extra: &[&str]) -> Output {
    let mut args = vec![
        "soak",
        "--seed",
        "0",
        "--sites",
        "1",
        "--fault-specs",
        "0",
        "--jobs",
        "0",
        "--updates",
        "0",
    ];
    args.extend_from_slice(extra);
    xcbc(&args)
}

/// Exit 1, nothing on stdout (no scenario ran), and a stderr naming
/// every `needles` entry.
fn assert_rejected(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "rejected before running, but stdout was:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} missing from: {stderr}");
    }
}

#[test]
fn soak_rejects_a_malformed_value() {
    assert_rejected(&tiny_soak(&["--seeds", "abc"]), &["--seeds", "\"abc\""]);
    assert_rejected(&tiny_soak(&["--jobs"]), &["--jobs needs a value"]);
}

#[test]
fn soak_rejects_unknown_and_retired_flags() {
    for stale in [
        &["--campaign-mutation", "drop-job"][..],
        &["--mutate"],
        &["--seeds=3"],
    ] {
        assert_rejected(&tiny_soak(stale), &["unknown flag", stale[0]]);
    }
}

#[test]
fn soak_rejects_an_unknown_mutation_listing_every_name() {
    let out = tiny_soak(&["--mutation", "drop-job"]);
    let mut needles = vec!["--mutation", "\"drop-job\""];
    needles.extend(Mutation::ALL.map(Mutation::as_str));
    assert_rejected(&out, &needles);
}

#[test]
fn soak_accepts_a_named_mutation_and_reports_its_invariant() {
    let out = tiny_soak(&[
        "--faults",
        "--no-shrink",
        "--mutation",
        "campaign.skip-skew",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("[campaign.converges]"), "{stdout}");
    assert!(
        stdout.contains(
            "repro: xcbc soak --seed 0 --sites 1 --fault-specs 0 --jobs 0 --updates 0 \
             --faults --mutation campaign.skip-skew\n"
        ),
        "{stdout}"
    );
}

#[test]
fn deploy_limulus_rejects_a_fault_plan() {
    let out = xcbc(&[
        "deploy",
        "limulus",
        "--faults",
        "seed=7; node.boot key=compute-0-1",
    ]);
    assert_rejected(
        &out,
        &["--faults applies only to the littlefe from-scratch path"],
    );
}

#[test]
fn linpack_rejects_a_non_positive_or_non_numeric_n() {
    for n in ["abc", "0", "-4"] {
        assert_rejected(
            &xcbc(&["linpack", n]),
            &["N must be a positive integer", &format!("{n:?}")],
        );
    }
}

#[test]
fn svc_rejects_unknown_flags_and_malformed_values() {
    assert_rejected(&xcbc(&["svc", "--bogus"]), &["unknown flag", "\"--bogus\""]);
    assert_rejected(
        &xcbc(&["svc", "--tenants=3"]),
        &["unknown flag", "--tenants=3"],
    );
    assert_rejected(
        &xcbc(&["svc", "--tenants", "abc"]),
        &["--tenants", "\"abc\""],
    );
    assert_rejected(&xcbc(&["svc", "--seed", "-1"]), &["--seed", "\"-1\""]);
    assert_rejected(&xcbc(&["svc", "--requests"]), &["--requests needs a value"]);
}

#[test]
fn svc_rejects_a_zero_tenant_worker_or_shard_count() {
    for flag in ["--tenants", "--workers", "--shards"] {
        assert_rejected(
            &xcbc(&["svc", flag, "0"]),
            &[&format!("{flag} must be at least 1")],
        );
    }
}
