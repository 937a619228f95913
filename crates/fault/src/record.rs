//! The line-record codec every piece of durable state is read with: the
//! install, campaign and elastic checkpoints and the `xcbcd` journal.
//!
//! Each line is trimmed; blank lines and `#` comments are skipped; every
//! other line is one [`Record`], a tag word followed by
//! whitespace-separated fields. A format's parser is a `match` on
//! [`Record::tag`] that reads the fields in order, as
//! [`InstallCheckpoint::parse`](crate::InstallCheckpoint::parse) does. A
//! record that does not call [`Record::end`] tolerates trailing fields a
//! later writer may append. Only reading is shared: each format keeps
//! its own writer.

use std::fmt;
use std::str::FromStr;

/// A malformed line, named by its format and 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError {
    /// Which kind of file, e.g. `checkpoint` or `journal`.
    pub format: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong with the line.
    pub message: String,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}: {}", self.format, self.line, self.message)
    }
}

impl std::error::Error for RecordError {}

impl RecordError {
    /// An error about `text` as a whole, such as a required record that
    /// never came, reported on its last line.
    pub fn at_end(format: &'static str, text: &str, message: impl Into<String>) -> RecordError {
        RecordError {
            format,
            line: text.lines().count().max(1),
            message: message.into(),
        }
    }
}

/// One non-blank, non-comment line: its tag and the fields not yet read.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// The line's first word.
    pub tag: &'a str,
    format: &'static str,
    line: usize,
    rest: &'a str,
}

/// The records of `text`, one per line that is neither blank nor a `#`
/// comment, with 1-based line numbers.
pub fn records<'a>(format: &'static str, text: &'a str) -> impl Iterator<Item = Record<'a>> {
    text.lines().enumerate().filter_map(move |(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (tag, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        Some(Record {
            tag,
            format,
            line: idx + 1,
            rest: rest.trim_start(),
        })
    })
}

impl<'a> Record<'a> {
    /// The next field; `what` names it in the error when it is missing.
    pub fn word(&mut self, what: &str) -> Result<&'a str, RecordError> {
        if self.rest.is_empty() {
            return Err(self.error(format!("missing {what}")));
        }
        let (word, rest) = self
            .rest
            .split_once(char::is_whitespace)
            .unwrap_or((self.rest, ""));
        self.rest = rest.trim_start();
        Ok(word)
    }

    /// The next field, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, RecordError> {
        let word = self.word(what)?;
        word.parse()
            .map_err(|_| self.error(format!("bad {what} `{word}`")))
    }

    /// Everything not yet read, as one string (possibly empty).
    pub fn rest(&mut self) -> &'a str {
        std::mem::take(&mut self.rest)
    }

    /// Rejects fields left unread.
    pub fn end(&self) -> Result<(), RecordError> {
        match self.rest {
            "" => Ok(()),
            extra => Err(self.error(format!("unexpected `{extra}` after `{}`", self.tag))),
        }
    }

    /// An error on this record's line.
    pub fn error(&self, message: impl Into<String>) -> RecordError {
        RecordError {
            format: self.format,
            line: self.line,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_blanks_and_comments_and_counts_every_line() {
        let tags: Vec<(&str, usize)> = records("t", "# c\n\n  a x\n\t# c\nb\n")
            .map(|r| (r.tag, r.line))
            .collect();
        assert_eq!(tags, vec![("a", 3), ("b", 5)]);
    }

    #[test]
    fn fields_are_read_in_order() {
        let mut r = records("t", "node  n1\tkickstarted  why not ")
            .next()
            .unwrap();
        assert_eq!(r.tag, "node");
        assert_eq!(r.word("name").unwrap(), "n1");
        assert!(r.end().is_err());
        assert_eq!(r.word("stage").unwrap(), "kickstarted");
        assert_eq!(r.rest(), "why not");
        assert_eq!(r.rest(), "");
        assert!(r.end().is_ok());
        assert_eq!(r.word("more").unwrap_err().message, "missing more");
    }

    #[test]
    fn errors_name_format_line_and_field() {
        let mut r = records("journal", "\nseed x\n").next().unwrap();
        let e = r.parse::<u64>("seed").unwrap_err();
        assert_eq!(e.to_string(), "journal line 2: bad seed `x`");
        let r = records("checkpoint", "a b").next().unwrap();
        assert_eq!(
            r.end().unwrap_err().to_string(),
            "checkpoint line 1: unexpected `b` after `a`"
        );
    }
}
