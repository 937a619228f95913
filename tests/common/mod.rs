//! The golden-file check every golden test shares, and the rows of
//! `tests/golden/MANIFEST`.

pub mod manifest;

use std::path::Path;

/// Asserts that `actual` equals the golden file at `path` (relative to
/// the crate root) byte for byte, naming `what` and the first differing
/// line if it does not. Under `XCBC_BLESS=1` it rewrites the file
/// instead; the failure message names the test target to re-bless.
pub fn assert_golden(path: &str, actual: impl AsRef<[u8]>, what: &str) {
    let actual = actual.as_ref();
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("XCBC_BLESS").is_some() {
        std::fs::write(&full, actual).unwrap_or_else(|e| panic!("bless {path}: {e}"));
        return;
    }
    let bless = concat!("XCBC_BLESS=1 cargo test --test ", env!("CARGO_CRATE_NAME"));
    let expected = std::fs::read(&full)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run {bless} to create it)"));
    if actual != expected {
        panic!(
            "{what} drifted from {path} ({}); if intentional, regenerate with {bless}",
            first_difference(
                &String::from_utf8_lossy(actual),
                &String::from_utf8_lossy(&expected)
            )
        );
    }
}

/// The first line at which `actual` and `expected` differ, 1-based.
fn first_difference(actual: &str, expected: &str) -> String {
    let show = |l: Option<&str>| l.map_or("end of file".to_string(), |l| format!("{l:?}"));
    let (mut got, mut want) = (actual.split('\n'), expected.split('\n'));
    for line in 1.. {
        match (got.next(), want.next()) {
            (None, None) => break,
            (g, w) if g != w => {
                return format!("line {line}: expected {}, got {}", show(w), show(g))
            }
            _ => {}
        }
    }
    "no differing line".to_string()
}
