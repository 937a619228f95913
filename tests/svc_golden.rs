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
//! untouched.

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
    if actual != GOLDEN {
        let first_diff = actual
            .lines()
            .zip(GOLDEN.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        panic!(
            "journal drifted from tests/golden/svc-seed7.journal \
             (first differing line: {first_diff:?}; {} vs {} bytes)",
            actual.len(),
            GOLDEN.len()
        );
    }
    assert_eq!(served_journal(4), GOLDEN, "journal depends on worker count");
}

#[test]
fn seed7_golden_journal_replays_clean() {
    let verdict = replay(GOLDEN).expect("golden journal parses");
    assert!(verdict.is_clean(), "{}", verdict.render());
    assert_eq!(verdict.responses.len(), 22);
}
