//! `yum history` — the transaction journal.
//!
//! Every install/update/erase run through [`crate::Yum`] is journaled so
//! an administrator can audit what changed (and the training curriculum in
//! `xcbc-core` can grade a student's lab by its history).

use xcbc_rpm::TransactionReport;

/// One journaled transaction.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// Monotonic id (yum history IDs start at 1).
    pub id: u64,
    /// The command line, e.g. `install gromacs`.
    pub command: String,
    pub installed: Vec<String>,
    pub upgraded: Vec<String>,
    pub erased: Vec<String>,
    /// Net disk delta of the transaction.
    pub size_delta_bytes: i64,
}

impl HistoryEntry {
    /// Count of package operations in this entry.
    pub fn action_count(&self) -> usize {
        self.installed.len() + self.upgraded.len() + self.erased.len()
    }
}

/// The journal.
#[derive(Debug, Clone, Default)]
pub struct YumHistory {
    entries: Vec<HistoryEntry>,
}

impl YumHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Journal a completed transaction.
    pub fn record(&mut self, command: &str, report: &TransactionReport) {
        let id = self.entries.len() as u64 + 1;
        self.entries.push(HistoryEntry {
            id,
            command: command.to_string(),
            installed: report.installed.clone(),
            upgraded: report.upgraded.clone(),
            erased: report.erased.clone(),
            size_delta_bytes: report.size_delta_bytes,
        });
    }

    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    pub fn last(&self) -> Option<&HistoryEntry> {
        self.entries.last()
    }

    /// Render like `yum history list`.
    pub fn render(&self) -> String {
        let mut out =
            String::from("ID | Command        | Actions\n---+----------------+--------\n");
        for e in self.entries.iter().rev() {
            out.push_str(&format!(
                "{:>2} | {:<14} | {}\n",
                e.id,
                truncate(&e.command, 14),
                e.action_count()
            ));
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(installed: &[&str]) -> TransactionReport {
        TransactionReport {
            installed: installed.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn ids_are_monotonic_from_one() {
        let mut h = YumHistory::new();
        h.record("install a", &report(&["a-1-1.x86_64"]));
        h.record("install b", &report(&["b-1-1.x86_64"]));
        assert_eq!(h.entries()[0].id, 1);
        assert_eq!(h.entries()[1].id, 2);
        assert_eq!(h.last().unwrap().command, "install b");
    }

    #[test]
    fn action_counts() {
        let mut h = YumHistory::new();
        let mut r = report(&["a-1-1"]);
        r.upgraded.push("b-2-1".into());
        r.erased.push("c-1-1".into());
        h.record("update", &r);
        assert_eq!(h.last().unwrap().action_count(), 3);
    }

    #[test]
    fn render_lists_newest_first() {
        let mut h = YumHistory::new();
        h.record("install old", &report(&["a"]));
        h.record("install new", &report(&["b"]));
        let rendered = h.render();
        let old_pos = rendered.find("install old").unwrap();
        let new_pos = rendered.find("install new").unwrap();
        assert!(new_pos < old_pos);
    }
}
