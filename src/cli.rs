//! The one command-line reader behind `xcbc` and `xcbcd`.
//!
//! A command takes what it knows — switches with [`Args::flag`], values
//! with [`Args::value`] / [`Args::count`], then positionals with
//! [`Args::positional`] — and [`Args::finish`] rejects whatever is left,
//! so a mistyped flag or a stray argument is an error instead of being
//! quietly ignored. Errors are bare messages; the binary prefixes them
//! with its command name and exits 1.
//!
//! Output goes through [`out!`](crate::out) and [`outln!`](crate::outln),
//! which return the write's result where `print!` would panic, and
//! [`exit_code`] turns a command's result into its exit status. A reader
//! that closes standard output early (`xcbc tables | head -c1`) ends
//! the output quietly: exit 0, nothing on stderr.
//!
//! A token starting with `--` is a flag name. The token after a value
//! flag is its value unless it starts with `--` itself. Commands take
//! their flags before their positionals, so a flag's value is never
//! read as a positional.

use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use xcbc_svc::{SvcConfig, SvcWorkload, MAX_SHARDS};

/// The arguments after the command name, taken as a command reads them.
pub struct Args {
    /// Each token, or `None` once a reader method took it.
    tokens: Vec<Option<String>>,
    /// The invocation an unknown-flag error points to, e.g. `xcbc help`.
    help: &'static str,
}

impl Args {
    pub fn new(help: &'static str, tokens: impl IntoIterator<Item = String>) -> Args {
        Args {
            tokens: tokens.into_iter().map(Some).collect(),
            help,
        }
    }

    fn is(&self, i: usize, name: &str) -> bool {
        self.tokens[i].as_deref() == Some(name)
    }

    /// Whether the token after position `i` can be a value.
    fn has_value(&self, i: usize) -> bool {
        matches!(self.tokens.get(i + 1), Some(Some(t)) if !t.starts_with("--"))
    }

    /// A switch: whether `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take_name(name, false)
    }

    /// Whether `name` was given with no value after it — the switch form
    /// of a flag that otherwise takes one. Only such occurrences are taken.
    pub fn bare(&mut self, name: &str) -> bool {
        self.take_name(name, true)
    }

    fn take_name(&mut self, name: &str, only_bare: bool) -> bool {
        let mut given = false;
        for i in 0..self.tokens.len() {
            if self.is(i, name) && !(only_bare && self.has_value(i)) {
                self.tokens[i] = None;
                given = true;
            }
        }
        given
    }

    /// The value after `name`, parsed (the last one if `name` repeats);
    /// `None` if `name` is absent. A missing or malformed value is an
    /// error naming the flag.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let mut parsed = None;
        for i in 0..self.tokens.len() {
            if self.is(i, name) {
                if !self.has_value(i) {
                    return Err(format!("{name} needs a value"));
                }
                self.tokens[i] = None;
                let text = self.tokens[i + 1].take().unwrap_or_default();
                parsed =
                    Some(text.parse().map_err(|_| {
                        format!("{name} expects a non-negative integer, got {text:?}")
                    })?);
            }
        }
        Ok(parsed)
    }

    /// A [`value`](Args::value) that must be at least 1.
    pub fn count<T: FromStr + Default + PartialEq>(
        &mut self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(n) if n == T::default() => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// Rejects more than one of `names` — flags that each select the
    /// same thing, such as an output format. Takes nothing.
    pub fn exclusive(&self, names: &[&str]) -> Result<(), String> {
        let given: Vec<&str> = names
            .iter()
            .copied()
            .filter(|&name| self.tokens.iter().any(|t| t.as_deref() == Some(name)))
            .collect();
        match given.split_last() {
            Some((last, rest)) if !rest.is_empty() => {
                Err(format!("{} and {last} cannot be combined", rest.join(", ")))
            }
            _ => Ok(()),
        }
    }

    /// The next positional argument. Call it after taking every flag.
    pub fn positional(&mut self) -> Option<String> {
        self.tokens
            .iter_mut()
            .find(|t| matches!(t, Some(t) if !t.starts_with("--")))?
            .take()
    }

    /// Rejects whatever no reader method took.
    pub fn finish(self) -> Result<(), String> {
        match self.tokens.into_iter().flatten().next() {
            None => Ok(()),
            Some(t) if t.starts_with("--") => {
                Err(format!("unknown flag {t:?} (try `{}`)", self.help))
            }
            Some(t) => Err(format!("unexpected argument {t:?}")),
        }
    }
}

/// The flags `xcbc svc` and `xcbcd` share: `--tenants N --workers N
/// --shards N` (each at least 1, and `--shards` at most
/// [`MAX_SHARDS`]), `--requests N`, `--seed S`, and `--journal FILE`
/// (returned last).
pub fn svc_args(args: &mut Args) -> Result<(SvcWorkload, SvcConfig, Option<String>), String> {
    let workload = SvcWorkload {
        tenants: args.count("--tenants")?.unwrap_or(3),
        requests: args.value("--requests")?.unwrap_or(32),
        seed: args.value("--seed")?.unwrap_or(0),
        ..SvcWorkload::default()
    };
    let mut config = workload.config(args.count("--workers")?.unwrap_or(4));
    if let Some(shards) = args.count("--shards")? {
        if shards > MAX_SHARDS {
            return Err(format!("--shards must be at most {MAX_SHARDS}"));
        }
        config.shards = shards;
    }
    Ok((workload, config, args.value("--journal")?))
}

/// Why a command stopped before reaching an exit code of its own.
#[derive(Debug)]
pub enum Stop {
    /// A usage or run error: the binary prints it after its command name
    /// and exits 1.
    Error(String),
    /// The command already said on stderr why it failed: exit 1.
    Failed,
    /// Standard output could not be written.
    Output(io::Error),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Error(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Self {
        Stop::Error(message.to_string())
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Output(e)
    }
}

/// `print!` through the locked standard output, returning the write's
/// `io::Result` instead of panicking when the reader has gone.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        ::std::io::Write::write_fmt(&mut ::std::io::stdout().lock(), ::std::format_args!($($arg)*))
    };
}

/// `println!` through the locked standard output; see [`out!`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", ::std::format_args!($($arg)*))
    };
}

/// The exit status for a command's `result`, after flushing standard
/// output. `command` prefixes an error message (`xcbc fleet: ...`). A
/// closed standard output (`ErrorKind::BrokenPipe`) is a quiet end of
/// output and exits 0; any other write error exits 1 with a message.
pub fn exit_code(command: &str, result: Result<ExitCode, Stop>) -> ExitCode {
    match result.and_then(|code| Ok(io::stdout().flush().map(|()| code)?)) {
        Ok(code) => code,
        Err(Stop::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Output(e)) => {
            eprintln!("{command}: cannot write standard output: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Error(message)) => {
            eprintln!("{command}: {message}");
            ExitCode::FAILURE
        }
        Err(Stop::Failed) => ExitCode::FAILURE,
    }
}
