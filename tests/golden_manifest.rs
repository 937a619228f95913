//! The golden manifest: every deterministic `xcbc`/`xcbcd` output,
//! pinned once.
//!
//! Each row of `tests/golden/MANIFEST` is
//! `file<TAB>binary<TAB>arg<TAB>arg…`: running the built `binary` with
//! those arguments must exit 0 and print the bytes of
//! `tests/golden/<file>`. Lines that start with `#` are comments. CI
//! reads the same rows against the release binaries.
//! `analyze_golden`, `deploy_golden`, `mon_golden` and `svc_golden`
//! also check the rows of the outputs they used to render, by file name.
//!
//! Every other file under `tests/golden/` belongs to a test of its own
//! ([`OWN_TEST_GOLDENS`]), and every `results/*.txt` capture to a row,
//! so a golden that nothing checks fails here. When an intentional
//! change shifts an output, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test golden_manifest
//! ```

mod common;

use common::manifest::{check_row, parse, rows};
use std::collections::BTreeMap;

/// Goldens a test of their own checks: library renders, and the
/// stderr of runs that exit 1.
const OWN_TEST_GOLDENS: [&str; 6] = [
    "campaign-abort.stderr", // cli_resume.rs
    "deploy-littlefe.txt",   // deploy_golden.rs
    "elastic-abort.stderr",  // cli_resume.rs
    "fleet-telemetry.prom",  // mon_golden.rs
    "sched-mix.jsonl",       // sched_golden.rs
    "svc-seed7.journal",     // svc_golden.rs
];

#[test]
fn every_row_prints_its_golden() {
    for row in rows() {
        check_row(&row);
    }
}

/// Every golden file is checked by exactly one row or test of its own.
#[test]
fn every_golden_has_one_owner() {
    let mut owners: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for row in rows() {
        owners.entry(row.file).or_default().push(row.label);
    }
    for file in OWN_TEST_GOLDENS {
        owners
            .entry(file)
            .or_default()
            .push("a test of its own".into());
    }
    for (file, by) in &owners {
        assert!(by.len() == 1, "{file} is pinned more than once: {by:?}");
    }
    // results/ also holds the exp-001 sweep, which CI's sweep-smoke job
    // reproduces, and SCHEMA.md
    let goldens = listing("tests/golden")
        .filter(|path| path != "tests/golden/MANIFEST")
        .chain(listing("results").filter(|path| path.ends_with(".txt")));
    for path in goldens {
        let file = path.strip_prefix("tests/golden/").unwrap_or(&path);
        assert!(
            owners.contains_key(file),
            "{path} is named by no MANIFEST row and no test of its own"
        );
    }
}

/// `dir/<name>` for each entry of `dir`, a path from the repository root.
fn listing(dir: &str) -> impl Iterator<Item = String> + '_ {
    let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::read_dir(full)
        .unwrap_or_else(|e| panic!("list {dir}: {e}"))
        .map(move |entry| {
            let entry = entry.unwrap_or_else(|e| panic!("read {dir}: {e}"));
            format!("{dir}/{}", entry.file_name().to_string_lossy())
        })
}

#[test]
fn malformed_rows_name_their_line() {
    for bad in ["x.txt\txcbc", "x.txt\tbash\t-c", "x.txt\txcbc\t\tfleet"] {
        let text = format!("# comment\nfleet.jsonl\txcbc\tfleet\n{bad}\n");
        let err = parse(&text)
            .err()
            .unwrap_or_else(|| panic!("{bad:?} parsed"));
        assert!(err.starts_with("MANIFEST line 3: "), "{bad:?}: {err}");
    }
}
