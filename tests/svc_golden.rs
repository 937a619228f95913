//! Golden-file check of a served `xcbcd` stream.
//!
//! `tests/golden/svc-seed7.journal` is the journal of
//!
//! ```text
//! xcbcd --tenants 3 --requests 48 --seed 7 --workers 1 --journal tests/golden/svc-seed7.journal
//! ```
//!
//! It pins every response digest and the cache totals (hits, misses,
//! entries) in its footer, so a change that alters what a request
//! answers, or which solves the cache memoizes, shows up here as a
//! byte difference. Performance work on the svc path must leave it
//! untouched; an intended change re-blesses it with
//! `XCBC_BLESS=1 cargo test --test svc_golden`. The `xcbc svc`
//! transcript of the same stream is the `tests/golden/MANIFEST` row of
//! `tests/golden/svc-seed7.txt`.

mod common;

use common::assert_golden;
use common::manifest::check_files;
use xcbc::svc::{replay, serve, SvcWorkload};

const GOLDEN: &str = include_str!("golden/svc-seed7.journal");

fn served_journal(workers: usize) -> String {
    let workload = SvcWorkload {
        tenants: 3,
        requests: 48,
        seed: 7,
        ..SvcWorkload::default()
    };
    serve(&workload.generate(), &workload.config(workers)).journal_text
}

#[test]
fn seed7_stream_journal_matches_golden() {
    let actual = served_journal(1);
    assert_golden("tests/golden/svc-seed7.journal", &actual, "journal");
    assert_eq!(served_journal(4), actual, "journal depends on worker count");
}

/// Per-request dispositions, the run summary, the `xcbc_svc_*`
/// exposition and the replay verdict of `xcbc svc` on the same stream.
#[test]
fn seed7_svc_transcript_matches_golden() {
    check_files(&["svc-seed7.txt"]);
}

#[test]
fn seed7_golden_journal_replays_clean() {
    let verdict = replay(GOLDEN).expect("golden journal parses");
    assert!(verdict.is_clean(), "{}", verdict.render());
    assert_eq!(verdict.responses.len(), 22);
}

/// Single-line edits of the golden journal that must not replay: each
/// `(line, from, to, reported, needle)` rewrites `from` to `to` on line
/// `line` and expects a parse error on line `reported` whose message
/// contains `needle`. None of them may replay as "ok".
#[test]
fn tampered_golden_journal_is_refused() {
    let rows: &[(usize, &str, &str, usize, &str)] = &[
        (
            8,
            "entry 1 campus-a 15624733544272274768",
            "entry 1 campus-a 1",
            8,
            "digest 1 does not match",
        ),
        (
            10,
            "solve install:torque,abyss",
            "solve install:torque",
            10,
            "does not match its op",
        ),
        (
            5,
            "quota tenant=campus-b rate=2 burst=4",
            "quota lol what",
            5,
            "malformed quota field",
        ),
        (3, "shards 4", "shards 0", 3, "outside 1..=1024"),
        (3, "shards 4", "shards 100000000000", 3, "outside 1..=1024"),
        (3, "shards 4", "", 52, "no shards line"),
        (29, "end entries 22", "end entries 21", 29, "declares 21"),
        (
            30,
            "response 0 14838321224971531163",
            "response 0 14838321224971531163 7",
            30,
            "unexpected `7`",
        ),
        (
            52,
            "cache hits 1 misses 15 entries 15",
            "cache hits 1 misses 15 total 15",
            52,
            "expected `entries`",
        ),
    ];
    for &(line, from, to, reported, needle) in rows {
        let golden_line = GOLDEN.lines().nth(line - 1).unwrap();
        assert!(golden_line.contains(from), "line {line} is {golden_line:?}");
        let edited: String = GOLDEN
            .lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == line { l.replace(from, to) } else { l.to_string() } + "\n")
            .collect();
        let err = match replay(&edited) {
            Ok(verdict) => panic!("{from:?} -> {to:?} replayed: {}", verdict.render()),
            Err(e) => e.to_string(),
        };
        let prefix = format!("journal line {reported}: ");
        assert!(
            err.starts_with(&prefix) && err.contains(needle),
            "{from:?} -> {to:?}: {err}"
        );
    }
}

/// Single-line edits that still parse but contradict what the journal
/// replays to: each `(line, from, to, mismatches)` must replay as *not*
/// clean, with exactly `mismatches`.
#[test]
fn wrong_footer_values_replay_unclean() {
    let rows: &[(usize, &str, &str, &[&str])] = &[
        (
            52,
            "cache hits 1 misses 15 entries 15",
            "cache hits 2 misses 15 entries 15",
            &["cache totals: replay (hits=1 misses=15 entries=15) != recorded (hits=2 misses=15 entries=15)"],
        ),
        (
            30,
            "response 0 14838321224971531163",
            "response 0 1",
            &["seq 0: replayed body digest 14838321224971531163 != recorded 1"],
        ),
        // a duplicated seq: entries execute by journal position, so the
        // second `entry 0` still runs as the paraview solve, while the
        // footer's seq 1 finds no entry and both campus-a traces list
        // seq 0 twice
        (
            8,
            "entry 1 campus-a 15624733544272274768 11816172847839036445 solve install:paraview",
            "entry 0 campus-a 15624733544272274768 11816172847839036445 solve install:paraview",
            &[
                "seq 0: replayed body digest 12555080171269190807 != recorded 14838321224971531163",
                "seq 1: recorded response has no journal entry",
                "seq 8: replayed body digest 10706920226610760284 != recorded 10021501170435182199",
                "seq 20: replayed body digest 7141851177433753550 != recorded 4383852825738504129",
            ],
        ),
    ];
    for &(line, from, to, mismatches) in rows {
        let golden_line = GOLDEN.lines().nth(line - 1).unwrap();
        assert_eq!(golden_line, from, "line {line}");
        let edited: String = GOLDEN
            .lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == line { to } else { l }.to_string() + "\n")
            .collect();
        let verdict = replay(&edited).unwrap_or_else(|e| panic!("{from:?} -> {to:?}: {e}"));
        assert!(!verdict.is_clean(), "{from:?} -> {to:?} replayed clean");
        assert_eq!(verdict.mismatches, mismatches, "{from:?} -> {to:?}");
        assert!(!verdict.render().starts_with("replay ok"));
    }
}
