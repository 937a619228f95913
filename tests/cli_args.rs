//! The `xcbc` binary at its argument boundary: a mistyped or
//! inapplicable invocation exits 1 with a message naming the bad flag
//! or value instead of quietly running something else. Rejections must
//! happen before any scenario runs; the one accepted soak runs a single
//! seed at the smallest limits.

use std::process::{Command, Output};

use xcbc::cli::Args;
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

/// `argv` split at whitespace, except that a '…' span is one argument
/// (without its quotes), as a shell would pass a fault plan.
fn split_argv(argv: &str) -> Vec<&str> {
    argv.split('\'')
        .enumerate()
        .flat_map(|(i, part)| {
            if i % 2 == 1 {
                vec![part]
            } else {
                part.split_whitespace().collect()
            }
        })
        .collect()
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

/// Every command's argument boundary in one table of
/// `(binary, argv, stderr needles)`: each row is a mistyped flag, a
/// stray argument, a malformed or zero count, or two output selectors,
/// and each must exit 1 with a message before anything runs.
#[test]
fn every_command_rejects_bad_input() {
    const XCBC: &str = env!("CARGO_BIN_EXE_xcbc");
    const XCBCD: &str = env!("CARGO_BIN_EXE_xcbcd");
    let rows: &[(&str, &str, &[&str])] = &[
        (XCBC, "fleet --threads abc", &["--threads", "\"abc\""]),
        (XCBC, "fleet --bogus", &["unknown flag", "\"--bogus\""]),
        (XCBC, "fleet --jsonl --table", &["--jsonl and --table"]),
        (XCBC, "campaign --waves x", &["--waves", "\"x\""]),
        (
            XCBC,
            "campaign --resume cp.txt",
            &["unexpected argument", "\"cp.txt\""],
        ),
        (XCBC, "campaign --nodes 0", &["--nodes must be at least 1"]),
        (XCBC, "elastic --min 0", &["--min must be at least 1"]),
        (XCBC, "exp --jobs abc", &["--jobs", "\"abc\""]),
        (XCBC, "exp --seeds 0", &["--seeds must be at least 1"]),
        (XCBC, "exp --cores 0", &["--cores must be at least 1"]),
        (
            XCBC,
            "mon littlefe --bogus",
            &["unknown flag", "\"--bogus\""],
        ),
        (XCBC, "mon littlefe --prom --xml", &["--prom and --xml"]),
        (
            XCBC,
            "trace littlefe --bogus",
            &["unknown flag", "\"--bogus\""],
        ),
        (
            XCBC,
            "trace analyze littlefe --top abc",
            &["--top", "\"abc\""],
        ),
        (
            XCBC,
            "trace analyze littlefe --folded --top 3",
            &["--folded and --top"],
        ),
        (
            XCBC,
            "deploy littlefe --bogus",
            &["unknown flag", "\"--bogus\""],
        ),
        (
            XCBC,
            "deploy littlefe --faults",
            &["--faults needs a value"],
        ),
        (XCBC, "tables --x", &["unknown flag", "\"--x\""]),
        (
            XCBC,
            "tables nosuch",
            &[
                "unknown artifact \"nosuch\"",
                "table1",
                "cost_model",
                "microbench",
            ],
        ),
        (
            XCBC,
            "tables table1 extra",
            &["unexpected argument", "\"extra\""],
        ),
        (
            XCBC,
            "tables table1 --bogus",
            &["unknown flag", "\"--bogus\""],
        ),
        (XCBC, "compat --x", &["unknown flag", "\"--x\""]),
        (
            XCBC,
            "lab alice extra",
            &["unexpected argument", "\"extra\""],
        ),
        (
            XCBC,
            "linpack 8 extra",
            &["unexpected argument", "\"extra\""],
        ),
        (XCBCD, "--workers 0", &["--workers must be at least 1"]),
        (XCBCD, "--tenants abc", &["--tenants", "\"abc\""]),
        (XCBCD, "--shards 0", &["--shards must be at least 1"]),
        (
            XCBCD,
            "--shards 100000000000",
            &["--shards must be at most 1024"],
        ),
        (
            XCBC,
            "svc --shards 100000000000",
            &["--shards must be at most 1024"],
        ),
        (XCBCD, "--bogus", &["unknown flag", "\"--bogus\""]),
        (XCBCD, "--replay", &["--replay needs a value"]),
        (
            XCBC,
            "deploy littlefe --faults 'rate mirror.fetch nan'",
            &["'rate mirror.fetch nan'", "must be a number in [0, 1]"],
        ),
        (
            XCBC,
            "deploy littlefe --faults 'rate mirror.fetch 7'",
            &["'rate mirror.fetch 7'", "must be a number in [0, 1]"],
        ),
        (
            XCBC,
            "deploy littlefe --faults 'rate mirror.fetch -3'",
            &["'rate mirror.fetch -3'", "must be a number in [0, 1]"],
        ),
        (
            XCBC,
            "deploy littlefe --faults 'rate mirror.fetch 0.5 junk'",
            &["'rate mirror.fetch 0.5 junk'", "unexpected text"],
        ),
    ];
    // were an exp row ever accepted, its sweep must not land in results/
    let out_dir = std::env::temp_dir().join("xcbc-cli-args");
    for (bin, argv, needles) in rows {
        println!("{bin} {argv}");
        let mut cmd = Command::new(bin);
        cmd.args(split_argv(argv));
        if argv.starts_with("exp ") {
            cmd.arg("--out").arg(&out_dir);
        }
        assert_rejected(&cmd.output().expect("binary runs"), needles);
    }
}

/// A fault plan before the target no longer hides the target, and a
/// bare `--faults` on `trace analyze` still means the default plan.
#[test]
fn optional_values_and_positionals_stay_optional() {
    let plan = "seed=7; power.loss key=compute-0-2 on=nth:0";
    let before = xcbc(&["deploy", "--faults", plan, "littlefe"]);
    assert_eq!(before.status.code(), Some(0));
    assert_eq!(
        before.stdout,
        xcbc(&["deploy", "littlefe", "--faults", plan]).stdout
    );

    let bare = xcbc(&["trace", "analyze", "littlefe", "--faults", "--top", "3"]);
    assert_eq!(bare.status.code(), Some(0));
    assert_eq!(
        bare.stdout,
        xcbc(&["trace", "analyze", "--top", "3"]).stdout
    );
}

// The shared reader itself, on hand-written argument lists.

/// An argument list split on whitespace.
fn reader(line: &str) -> Args {
    Args::new("xcbc help", line.split_whitespace().map(String::from))
}

#[test]
fn flags_values_and_positionals_in_any_order() {
    let mut a = reader("--jsonl 7 --top 3 littlefe");
    assert!(a.flag("--jsonl"));
    assert_eq!(a.value::<usize>("--top"), Ok(Some(3)));
    assert_eq!(a.positional().as_deref(), Some("7"));
    assert_eq!(a.positional().as_deref(), Some("littlefe"));
    assert_eq!(a.positional(), None);
    assert_eq!(a.finish(), Ok(()));
}

#[test]
fn a_value_never_starts_with_two_dashes() {
    let mut a = reader("--faults --folded");
    assert!(a.bare("--faults"));
    assert!(a.flag("--folded"));
    assert_eq!(a.finish(), Ok(()));
    assert_eq!(
        reader("--journal --prom").value::<String>("--journal"),
        Err("--journal needs a value".into())
    );
    assert!(!reader("--faults seed=1").bare("--faults"));
}

#[test]
fn the_last_repeat_wins_but_every_repeat_must_parse() {
    assert_eq!(reader("--seed 1 --seed 2").value("--seed"), Ok(Some(2u64)));
    assert_eq!(
        reader("--seed x --seed 2").value::<u64>("--seed"),
        Err("--seed expects a non-negative integer, got \"x\"".into())
    );
}

#[test]
fn count_rejects_zero() {
    assert_eq!(
        reader("--nodes 0").count::<u32>("--nodes"),
        Err("--nodes must be at least 1".into())
    );
    assert_eq!(reader("").count::<u32>("--nodes"), Ok(None));
}

#[test]
fn finish_names_the_first_leftover() {
    assert_eq!(
        reader("--bogus 3").finish(),
        Err("unknown flag \"--bogus\" (try `xcbc help`)".into())
    );
    assert_eq!(
        reader("extra").finish(),
        Err("unexpected argument \"extra\"".into())
    );
}

#[test]
fn exclusive_names_every_selector_given() {
    let a = reader("--prom --jsonl --xml");
    assert_eq!(
        a.exclusive(&["--prom", "--xml", "--jsonl"]),
        Err("--prom, --xml and --jsonl cannot be combined".into())
    );
    assert_eq!(a.exclusive(&["--prom", "--self"]), Ok(()));
}
