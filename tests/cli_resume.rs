//! `xcbc campaign` and `xcbc elastic` after an abort. Without
//! `--resume`, an abort exits 1 with nothing on stdout and prints the
//! checkpoint, the flight-recorder tail and the `--resume` hint on
//! stderr, pinned byte for byte. The resumed transcripts are MANIFEST
//! rows (`campaign-resume.txt`, `elastic-resume.txt`); an abort that
//! fires before every wave or tick resumes to the unfaulted trace and
//! summary.

mod common;

use std::process::{Command, Output};

use common::assert_golden;

fn xcbc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xcbc"))
        .args(args)
        .output()
        .expect("xcbc binary runs")
}

#[test]
fn an_abort_without_resume_prints_its_checkpoint_and_exits_1() {
    let runs: [(&str, &[&str]); 2] = [
        (
            "tests/golden/campaign-abort.stderr",
            &[
                "campaign",
                "--nodes",
                "6",
                "--waves",
                "3",
                "--faults",
                "seed=7; campaign.drain key=wave-2 on=nth:0",
            ],
        ),
        (
            "tests/golden/elastic-abort.stderr",
            &[
                "elastic",
                "--ticks",
                "6",
                "--faults",
                "seed=7; elastic.scale-up key=tick-3 on=nth:0",
            ],
        ),
    ];
    for (golden, args) in runs {
        let out = xcbc(args);
        assert_eq!(out.status.code(), Some(1), "xcbc {args:?}");
        assert!(out.stdout.is_empty(), "xcbc {args:?} printed to stdout");
        assert_golden(golden, &out.stderr, &format!("xcbc {args:?} stderr"));
    }
}

/// Each abort that fires before every wave or tick, resumed, and the
/// unfaulted run it resumes to.
const ALWAYS_FIRING: [(&[&str], &[&str]); 2] = [
    (
        &[
            "campaign",
            "--resume",
            "--jsonl",
            "--faults",
            "seed=1; campaign.drain on=always",
        ],
        &["campaign", "--jsonl", "--faults", "seed=1"],
    ),
    (
        &[
            "elastic",
            "--resume",
            "--ticks",
            "4",
            "--jsonl",
            "--faults",
            "seed=1; elastic.scale-up on=always",
        ],
        &["elastic", "--ticks", "4", "--jsonl", "--faults", "seed=1"],
    ),
];

/// A fault that fires before every wave or tick still lets `--resume`
/// finish: each resume completes one wave or tick, and the stitched
/// trace equals the unfaulted run's. The elastic run lasts its 4
/// workload ticks plus the ticks it needs to settle back to its floor.
#[test]
fn an_always_firing_abort_resumes_to_the_unfaulted_trace() {
    for (resumed, unfaulted) in ALWAYS_FIRING {
        let (resumed_out, unfaulted_out) = (xcbc(resumed), xcbc(unfaulted));
        for (args, out) in [(resumed, &resumed_out), (unfaulted, &unfaulted_out)] {
            assert!(
                out.status.success(),
                "xcbc {args:?}: {}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
        assert!(!unfaulted_out.stdout.is_empty());
        assert!(
            resumed_out.stdout == unfaulted_out.stdout,
            "xcbc {resumed:?} printed another trace than xcbc {unfaulted:?}"
        );
    }
}

/// Printed as text, each resumed run of [`ALWAYS_FIRING`] ends with the
/// unfaulted run's summary: its counts and burst lists cover every
/// segment, not just the last one.
#[test]
fn an_always_firing_abort_resumes_to_the_unfaulted_summary() {
    let summary = |args: &[&str]| -> Vec<String> {
        let args: Vec<&str> = args.iter().copied().filter(|a| *a != "--jsonl").collect();
        let out = xcbc(&args);
        assert!(out.status.success(), "xcbc {args:?}: {}", out.status);
        String::from_utf8(out.stdout)
            .expect("utf-8 stdout")
            .lines()
            .filter(|line| {
                !["tick ", "wave ", "power lost ", "resumed from "]
                    .iter()
                    .any(|per_segment| line.starts_with(per_segment))
            })
            .map(String::from)
            .collect()
    };
    for (resumed, unfaulted) in ALWAYS_FIRING {
        let want = summary(unfaulted);
        assert!(!want.is_empty(), "xcbc {unfaulted:?} printed no summary");
        assert_eq!(summary(resumed), want, "xcbc {resumed:?}");
    }
}
