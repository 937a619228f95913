//! The deterministic request journal — `xcbcd`'s audit log and replay
//! input.
//!
//! Every *accepted* request is journaled at admission time with its
//! sequence number, tenant, normalized request digest, generator seed,
//! and the canonical text form of the operation. Rejected requests
//! leave no trace here (the admission invariant checks exactly that).
//! A footer records the body digest of every response and the final
//! cache-counter totals, which is what makes the file self-verifying:
//! `xcbcd --replay LOG` re-executes the entries single-threaded and
//! must land on byte-identical bodies and identical totals, regardless
//! of the worker count that originally served the stream.
//!
//! The rendered text is itself part of the determinism contract: two
//! runs of the same seeded stream at different worker counts must
//! produce byte-identical journals (the CI quick-gate diffs them), so
//! nothing scheduling-dependent — wall clock, worker ids, interleaving
//! — may appear in it.
//!
//! The text is read with the line-record codec the checkpoints use
//! ([`xcbc_fault::record`]): `#` comments and blank lines are skipped,
//! and a bad line is a [`RecordError`] naming its line. Parsing checks
//! what the file carries — every entry's digest column against its op,
//! every quota line, a shard count within [`MAX_SHARDS`] — so a
//! tampered journal fails to parse instead of replaying clean.

use crate::admission::QuotaTable;
use crate::api::SvcOp;
use crate::service::MAX_SHARDS;
use std::str::FromStr;
use xcbc_fault::record::{records, Record, RecordError};
use xcbc_yum::CacheStats;

/// One accepted request, as journaled at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Dense 0-based sequence number (admission order).
    pub seq: u64,
    /// The tenant the request belongs to.
    pub tenant: String,
    /// Normalized request digest ([`SvcOp::digest`]).
    pub digest: u64,
    /// The workload-generator seed the request was drawn under.
    pub seed: u64,
    /// The operation, parseable via [`SvcOp::parse`].
    pub op: SvcOp,
}

/// A parsed (or freshly written) journal: header, entries, and the
/// self-verification footer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Journal {
    /// The stream seed from the header.
    pub seed: u64,
    /// Cache shard count the run used.
    pub shards: usize,
    /// The quota table, rendered line-by-line in the header (each line
    /// passes [`QuotaTable::parse_line`]).
    pub quota_lines: Vec<String>,
    /// Accepted requests in sequence order.
    pub entries: Vec<JournalEntry>,
    /// `(seq, body digest)` for every accepted response.
    pub response_digests: Vec<(u64, u64)>,
    /// Final bank-wide cache totals `(hits, misses, entries)`.
    pub cache_totals: (u64, u64, usize),
}

const MAGIC: &str = "xcbcd-journal v1";

/// The format name a [`RecordError`] from [`Journal::parse`] carries.
const FORMAT: &str = "journal";

impl Journal {
    /// Render the canonical text form. Byte-deterministic: a pure
    /// function of this struct's fields.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("shards {}\n", self.shards));
        for line in &self.quota_lines {
            out.push_str(&format!("quota {line}\n"));
        }
        for e in &self.entries {
            out.push_str(&format!(
                "entry {} {} {} {} {}\n",
                e.seq,
                e.tenant,
                e.digest,
                e.seed,
                e.op.render()
            ));
        }
        out.push_str(&format!("end entries {}\n", self.entries.len()));
        for (seq, digest) in &self.response_digests {
            out.push_str(&format!("response {seq} {digest}\n"));
        }
        let (hits, misses, entries) = self.cache_totals;
        out.push_str(&format!(
            "cache hits {hits} misses {misses} entries {entries}\n"
        ));
        out
    }

    /// Parse the text form back ([`render`](Self::render) round-trips).
    pub fn parse(text: &str) -> Result<Journal, RecordError> {
        let mut lines = records(FORMAT, text);
        let mut first = lines
            .next()
            .ok_or_else(|| RecordError::at_end(FORMAT, text, format!("expected {MAGIC:?}")))?;
        if MAGIC.split_once(' ') != Some((first.tag, first.rest())) {
            return Err(first.error(format!("expected {MAGIC:?}")));
        }
        let mut journal = Journal::default();
        let mut saw_end = false;
        let mut saw_cache = false;
        for mut r in lines {
            match r.tag {
                "seed" => {
                    journal.seed = r.parse("seed")?;
                    r.end()?;
                }
                "shards" => {
                    journal.shards = r.parse("shards")?;
                    r.end()?;
                    if !(1..=MAX_SHARDS).contains(&journal.shards) {
                        return Err(r.error(format!(
                            "shard count {} is outside 1..={MAX_SHARDS}",
                            journal.shards
                        )));
                    }
                }
                "quota" => {
                    let line = r.rest();
                    QuotaTable::parse_line(line).map_err(|e| r.error(e))?;
                    journal.quota_lines.push(line.to_string());
                }
                "entry" => {
                    let seq = r.parse("seq")?;
                    let tenant = r.word("tenant")?.to_string();
                    let digest = r.parse("digest")?;
                    let seed = r.parse("seed")?;
                    let op = SvcOp::parse(r.rest()).map_err(|e| r.error(e))?;
                    let expected = op.digest();
                    if digest != expected {
                        return Err(r.error(format!(
                            "entry digest {digest} does not match its op (digest {expected})"
                        )));
                    }
                    journal.entries.push(JournalEntry {
                        seq,
                        tenant,
                        digest,
                        seed,
                        op,
                    });
                }
                "end" => {
                    saw_end = true;
                    let declared: usize = keyed(&mut r, "entries")?;
                    r.end()?;
                    if declared != journal.entries.len() {
                        return Err(r.error(format!(
                            "end declares {declared} entries, journal carries {}",
                            journal.entries.len()
                        )));
                    }
                }
                "response" => {
                    let seq = r.parse("response seq")?;
                    let digest = r.parse("response digest")?;
                    r.end()?;
                    journal.response_digests.push((seq, digest));
                }
                "cache" => {
                    saw_cache = true;
                    let hits = keyed(&mut r, "hits")?;
                    let misses = keyed(&mut r, "misses")?;
                    let entries = keyed(&mut r, "entries")?;
                    r.end()?;
                    journal.cache_totals = (hits, misses, entries);
                }
                other => return Err(r.error(format!("unknown journal tag {other:?}"))),
            }
        }
        if journal.shards == 0 {
            return Err(RecordError::at_end(
                FORMAT,
                text,
                "journal has no shards line",
            ));
        }
        if !saw_end || !saw_cache {
            return Err(RecordError::at_end(
                FORMAT,
                text,
                "journal is truncated (missing end/cache footer)",
            ));
        }
        Ok(journal)
    }

    /// Fill the footer's cache totals from a bank-wide aggregate.
    pub fn set_cache_totals(&mut self, stats: &CacheStats) {
        self.cache_totals = (stats.hits, stats.misses, stats.entries);
    }
}

/// The `key value` pair next in `r`, e.g. `hits 3` in a cache record.
fn keyed<T: FromStr>(r: &mut Record, key: &str) -> Result<T, RecordError> {
    let word = r.word(key)?;
    if word != key {
        return Err(r.error(format!("expected `{key}`, got `{word}`")));
    }
    r.parse(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_yum::SolveRequest;

    fn sample() -> Journal {
        Journal {
            seed: 42,
            shards: 4,
            quota_lines: vec![
                "tenant=campus-a rate=2 burst=4".into(),
                "tenant=campus-b rate=1 burst=2".into(),
            ],
            entries: vec![
                JournalEntry {
                    seq: 0,
                    tenant: "campus-a".into(),
                    digest: SvcOp::Solve(SolveRequest::install(["gromacs"])).digest(),
                    seed: 7,
                    op: SvcOp::Solve(SolveRequest::install(["gromacs"])),
                },
                JournalEntry {
                    seq: 1,
                    tenant: "campus-b".into(),
                    digest: SvcOp::Deploy.digest(),
                    seed: 9,
                    op: SvcOp::Deploy,
                },
            ],
            response_digests: vec![(0, 111), (1, 222)],
            cache_totals: (3, 2, 2),
        }
    }

    #[test]
    fn journal_text_round_trips() {
        let j = sample();
        let text = j.render();
        let parsed = Journal::parse(&text).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(parsed.render(), text, "render ∘ parse is the identity");
    }

    #[test]
    fn truncated_and_corrupt_journals_are_rejected() {
        let text = sample().render();
        // chop the footer off
        let truncated: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(Journal::parse(&truncated).is_err());
        // wrong magic
        assert!(Journal::parse("xcbcd-journal v9\nend entries 0\n").is_err());
        // entry-count mismatch
        let lied = text.replace("end entries 2", "end entries 3");
        let e = Journal::parse(&lied).unwrap_err();
        assert!(e.message.contains("declares 3"), "{e}");
    }

    #[test]
    fn comments_blank_lines_and_indentation_carry_no_data() {
        let text = sample().render();
        let annotated = format!("# served by xcbcd\n{}\n  # footer follows\n", text)
            .replace("seed 42", "  seed 42  ")
            .replace("end entries", "\nend entries");
        assert_eq!(Journal::parse(&annotated).unwrap(), sample());
    }
}
