//! The rows of `tests/golden/MANIFEST` and how one is checked.
//!
//! Each row is `file<TAB>binary<TAB>arg<TAB>arg…`: running the built
//! `binary` with those arguments must exit 0 and print the bytes of
//! `tests/golden/<file>`, or of `<file>` from the repository root when
//! it is a path with a slash (`results/table1.txt`). Lines that start
//! with `#` are comments.

// Each test target that includes this module uses a different part.
#![allow(dead_code)]

use super::assert_golden;

const MANIFEST: &str = include_str!("../golden/MANIFEST");

pub struct Row<'a> {
    /// `MANIFEST line N: binary [args]`, for failure messages.
    pub label: String,
    pub file: &'a str,
    pub binary: &'a str,
    pub args: Vec<&'a str>,
}

impl Row<'_> {
    /// The golden file's path from the repository root.
    pub fn path(&self) -> String {
        if self.file.contains('/') {
            self.file.to_string()
        } else {
            format!("tests/golden/{}", self.file)
        }
    }
}

/// The rows of `text`; `Err` names the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Row<'_>>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let ok = fields.len() >= 3
            && fields.iter().all(|f| !f.is_empty())
            && ["xcbc", "xcbcd"].contains(&fields[1]);
        if !ok {
            return Err(format!(
                "MANIFEST line {}: want file<TAB>xcbc|xcbcd<TAB>arg…, got {line:?}",
                i + 1
            ));
        }
        let (binary, args) = (fields[1], fields[2..].to_vec());
        rows.push(Row {
            label: format!("MANIFEST line {}: {binary} {args:?}", i + 1),
            file: fields[0],
            binary,
            args,
        });
    }
    Ok(rows)
}

/// The rows of `tests/golden/MANIFEST`.
pub fn rows() -> Vec<Row<'static>> {
    parse(MANIFEST).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `row` and asserts it exits 0 and prints its golden file.
pub fn check_row(row: &Row) {
    let exe = match row.binary {
        "xcbc" => env!("CARGO_BIN_EXE_xcbc"),
        _ => env!("CARGO_BIN_EXE_xcbcd"),
    };
    let out = std::process::Command::new(exe)
        .args(&row.args)
        .output()
        .unwrap_or_else(|e| panic!("{}: {e}", row.label));
    assert!(
        out.status.success(),
        "{}: {}\n{}",
        row.label,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_golden(&row.path(), &out.stdout, &row.label);
}

/// Checks the row that pins each of `files`; a file no row names fails.
pub fn check_files(files: &[&str]) {
    let rows = rows();
    for file in files {
        let row = rows
            .iter()
            .find(|row| row.file == *file)
            .unwrap_or_else(|| panic!("no MANIFEST row pins {file}"));
        check_row(row);
    }
}
