//! `xcbcd` — the multi-tenant depsolve/deploy service daemon, in its
//! batch form: serve a seeded stream and journal it, or replay a
//! journal and verify it.
//!
//! ```text
//! xcbcd [--tenants N] [--workers N] [--requests N] [--seed S] [--shards N]
//!       [--journal FILE]     serve a seeded synthetic stream; print the
//!                            run summary and (optionally) write the
//!                            journal. The journal is byte-identical at
//!                            any --workers value — that is the
//!                            determinism contract the soak harness and
//!                            CI quick-gate enforce.
//! xcbcd --replay FILE        re-execute a journal single-threaded and
//!                            verify every recorded response-body digest
//!                            and the cache-counter totals. Exit status
//!                            is the verdict.
//! ```
//!
//! The flags are `xcbc svc`'s and just as strict: an unknown flag, a
//! stray argument, a missing or malformed value, or a zero
//! `--tenants`/`--workers`/`--shards` exits 1 with a message.

use std::env;
use std::process::ExitCode;

use xcbc::cli::{svc_args, Args};
use xcbc::svc::{replay, serve};

fn main() -> ExitCode {
    match run(Args::new("xcbcd --help", env::args().skip(1))) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xcbcd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    if args.flag("--help") || args.flag("-h") {
        eprintln!(
            "usage: xcbcd [--tenants N] [--workers N] [--requests N] [--seed S] \
             [--shards N] [--journal FILE] | xcbcd --replay FILE"
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = args.value::<String>("--replay")? {
        args.finish()?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read journal {path}: {e}"))?;
        let verdict = replay(&text).map_err(|e| format!("journal does not parse: {e}"))?;
        print!("{}", verdict.render());
        return Ok(if verdict.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let (workload, config, journal) = svc_args(&mut args)?;
    args.finish()?;

    let report = serve(&workload.generate(), &config);
    print!("{}", report.summary());

    match journal {
        Some(path) => {
            std::fs::write(&path, &report.journal_text)
                .map_err(|e| format!("cannot write journal {path}: {e}"))?;
            println!("journal: {} entries written to {path}", report.accepted);
        }
        None => {
            // no journal destination: emit it on stdout so pipelines can
            // capture and diff it (the CI quick-gate does exactly this)
            print!("{}", report.journal_text);
        }
    }
    Ok(ExitCode::SUCCESS)
}
