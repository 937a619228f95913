//! A reader that closes standard output early (`xcbc tables | head -c1`)
//! ends the output quietly: both binaries exit 0 with nothing on
//! stderr, where `print!` used to panic with exit 101 and a backtrace.
//! The seed-11 stream prints about 120 KB, more than a pipe buffer
//! holds, so its writes must meet the closed pipe.

use std::io::Read;
use std::process::{Command, Stdio};

/// Run `bin` with `args`, read one byte of its stdout, close the pipe,
/// and return its exit code and stderr.
fn read_one_byte(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
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

const SEED_11: [&str; 8] = [
    "--tenants",
    "4",
    "--requests",
    "2000",
    "--seed",
    "11",
    "--workers",
    "1",
];

#[test]
fn a_closed_stdout_is_a_quiet_end_of_output() {
    let xcbc = env!("CARGO_BIN_EXE_xcbc");
    let svc: Vec<&str> = ["svc"].iter().chain(&SEED_11).copied().collect();
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_xcbcd"), &SEED_11[..]),
        (xcbc, &svc[..]),
        (xcbc, &["tables"][..]),
        (xcbc, &["compat"][..]),
    ] {
        let (code, stderr) = read_one_byte(bin, args);
        assert_eq!(code, Some(0), "{bin} {args:?}: stderr {stderr}");
        assert!(stderr.is_empty(), "{bin} {args:?}: stderr {stderr}");
    }
}
