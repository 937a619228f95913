//! A reader that closes standard output early (`table2 | head -c1`)
//! ends a regeneration binary's output quietly: exit 0 with nothing on
//! stderr, where `print!` used to panic with exit 101 and a backtrace.

use std::io::Read;
use std::process::{Command, Stdio};

/// Run `bin`, read one byte of its stdout, close the pipe, and return
/// its exit code and stderr.
fn read_one_byte(bin: &str) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut [0u8]).expect("one byte of output");
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_is_a_quiet_end_of_output() {
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_figures"),
        env!("CARGO_BIN_EXE_deploy_compare"),
    ] {
        let (code, stderr) = read_one_byte(bin);
        assert_eq!(code, Some(0), "{bin}: stderr {stderr}");
        assert!(stderr.is_empty(), "{bin}: stderr {stderr}");
    }
}
