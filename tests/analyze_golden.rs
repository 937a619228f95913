//! Golden-file check of the seeded LittleFe trace analysis.
//!
//! `xcbc trace analyze littlefe` must be byte-stable across refactors:
//! the critical-path report, the flame view and the folded stacks are
//! the contract the docs' worked transcripts are built against. This
//! test checks the two `tests/golden/MANIFEST` rows that hold them: the
//! default view of the seed-42 day-one scenario (`--faults`) and its
//! `--folded` stacks.
//!
//! When an intentional change shifts the output, regenerate with:
//!
//! ```text
//! XCBC_BLESS=1 cargo test --test analyze_golden
//! ```

mod common;

use common::manifest::check_files;

#[test]
fn littlefe_trace_analysis_matches_golden() {
    check_files(&[
        "trace-analyze-littlefe-faults.txt",
        "trace-analyze-littlefe.folded",
    ]);
}
