//! `cluster-fork` — Rocks' parallel remote execution across nodes.
//!
//! The from-scratch verification step ("verify with cluster-fork + qsub
//! test job") runs a command on every compute node. We model per-node
//! command handlers, partial failures, and the aggregated output an
//! administrator reads.

use crate::database::RocksDb;
use crate::graph::Appliance;

/// The result of one node's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkResult {
    pub host: String,
    pub exit_code: i32,
    pub stdout: String,
}

/// Aggregated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkReport {
    pub command: String,
    pub results: Vec<ForkResult>,
}

impl ForkReport {
    pub fn all_succeeded(&self) -> bool {
        self.results.iter().all(|r| r.exit_code == 0)
    }

    pub fn failed_hosts(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| r.exit_code != 0)
            .map(|r| r.host.as_str())
            .collect()
    }

    /// The interleaved output cluster-fork prints.
    pub fn render(&self) -> String {
        let mut out = format!("$ cluster-fork '{}'\n", self.command);
        for r in &self.results {
            out.push_str(&format!("{}:\n{}", r.host, r.stdout));
            if r.exit_code != 0 {
                out.push_str(&format!("  (exit {})\n", r.exit_code));
            }
        }
        out
    }
}

/// Run `command` on every compute node of the cluster database, using
/// `exec` to produce each node's result (the simulation's stand-in for
/// ssh). `exec` receives the hostname and the command.
pub fn cluster_fork<F>(db: &RocksDb, command: &str, mut exec: F) -> ForkReport
where
    F: FnMut(&str, &str) -> (i32, String),
{
    let mut results = Vec::new();
    for host in db.hosts_of(Appliance::Compute) {
        let (exit_code, stdout) = exec(&host.name, command);
        results.push(ForkResult {
            host: host.name.clone(),
            exit_code,
            stdout,
        });
    }
    ForkReport {
        command: command.to_string(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> RocksDb {
        let mut db = RocksDb::new("littlefe");
        db.add_frontend("ff:ff", 2).unwrap();
        for i in 0..5 {
            db.add_host(Appliance::Compute, 0, &format!("aa:{i:02x}"), 2)
                .unwrap();
        }
        db
    }

    #[test]
    fn runs_on_all_computes_not_frontend() {
        let report = cluster_fork(&db(), "uptime", |host, _| {
            (0, format!("  {host} up 3 days\n"))
        });
        assert_eq!(report.results.len(), 5);
        assert!(report.all_succeeded());
        assert!(
            !report.render().contains("littlefe:"),
            "frontend not targeted"
        );
        assert!(report.render().contains("compute-0-4"));
    }

    #[test]
    fn partial_failure_reported() {
        let report = cluster_fork(&db(), "rpm -q gromacs", |host, _| {
            if host == "compute-0-2" {
                (1, "  package gromacs is not installed\n".to_string())
            } else {
                (0, "  gromacs-4.6.5-1.el6.x86_64\n".to_string())
            }
        });
        assert!(!report.all_succeeded());
        assert_eq!(report.failed_hosts(), vec!["compute-0-2"]);
        assert!(report.render().contains("(exit 1)"));
    }

    #[test]
    fn empty_cluster_empty_report() {
        let mut db = RocksDb::new("lonely");
        db.add_frontend("ff", 2).unwrap();
        let report = cluster_fork(&db, "true", |_, _| (0, String::new()));
        assert!(report.results.is_empty());
        assert!(report.all_succeeded());
    }
}
