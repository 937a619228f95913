//! Install checkpoints: per-node provisioning progress that survives a
//! mid-install power loss.
//!
//! Rocks installs are long — a frontend install alone is ~10 minutes of
//! screens plus package commit, and each compute node reinstalls itself
//! from PXE. If the power fails halfway through, the expensive outcome is
//! rewiping nodes that had already committed their package set. The
//! checkpoint records the furthest stage each node reached so a re-run
//! can skip committed work.
//!
//! Stages are strictly ordered and [`InstallCheckpoint::record`] is
//! monotone: recording an earlier stage for a node never regresses it.
//! The text format round-trips via [`InstallCheckpoint::to_text`] /
//! [`InstallCheckpoint::parse`], standing in for the state file a real
//! frontend would keep under `/var/lib/`. All three checkpoints here are
//! read with the shared line-record codec in [`crate::record`].

use crate::record::{records, RecordError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The format name a [`RecordError`] from these parsers carries.
const FORMAT: &str = "checkpoint";

/// How far a node got through provisioning, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeStage {
    /// Known to the install but nothing has happened yet.
    Pending,
    /// insert-ethers saw its DHCP request and assigned it a name/MAC.
    Discovered,
    /// A kickstart file was generated and served to it.
    Kickstarted,
    /// Its RPM transaction committed; the node is fully installed.
    PackagesCommitted,
}

impl NodeStage {
    pub const ALL: [NodeStage; 4] = [
        NodeStage::Pending,
        NodeStage::Discovered,
        NodeStage::Kickstarted,
        NodeStage::PackagesCommitted,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            NodeStage::Pending => "pending",
            NodeStage::Discovered => "discovered",
            NodeStage::Kickstarted => "kickstarted",
            NodeStage::PackagesCommitted => "packages-committed",
        }
    }

    pub fn parse(s: &str) -> Option<NodeStage> {
        NodeStage::ALL.iter().copied().find(|st| st.as_str() == s)
    }
}

impl fmt::Display for NodeStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Durable record of install progress for one cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstallCheckpoint {
    /// The frontend finished its screens + package commit.
    frontend_committed: bool,
    /// Furthest stage reached per node, keyed by node name.
    stages: BTreeMap<String, NodeStage>,
    /// Nodes pulled from the install with the reason, keyed by node name.
    quarantined: BTreeMap<String, String>,
}

impl InstallCheckpoint {
    pub fn new() -> Self {
        InstallCheckpoint::default()
    }

    pub fn frontend_committed(&self) -> bool {
        self.frontend_committed
    }

    pub fn mark_frontend_committed(&mut self) {
        self.frontend_committed = true;
    }

    /// Record that `node` reached `stage`. Monotone: an earlier stage
    /// never overwrites a later one, so replaying a resumed install's
    /// early steps cannot regress the checkpoint.
    pub fn record(&mut self, node: &str, stage: NodeStage) {
        let entry = self
            .stages
            .entry(node.to_string())
            .or_insert(NodeStage::Pending);
        if stage > *entry {
            *entry = stage;
        }
    }

    /// Furthest stage `node` is known to have reached.
    pub fn stage(&self, node: &str) -> NodeStage {
        self.stages.get(node).copied().unwrap_or(NodeStage::Pending)
    }

    /// True when `node`'s package transaction committed.
    pub fn is_committed(&self, node: &str) -> bool {
        self.stage(node) == NodeStage::PackagesCommitted
    }

    /// Names of all fully installed nodes, sorted.
    pub fn committed_nodes(&self) -> Vec<&str> {
        self.stages
            .iter()
            .filter(|(_, st)| **st == NodeStage::PackagesCommitted)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Pull `node` from the install, recording why.
    pub fn quarantine(&mut self, node: &str, reason: &str) {
        self.quarantined
            .insert(node.to_string(), reason.to_string());
    }

    pub fn is_quarantined(&self, node: &str) -> bool {
        self.quarantined.contains_key(node)
    }

    /// Quarantined nodes with reasons, sorted by name.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &str)> {
        self.quarantined
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_str()))
    }

    /// All tracked nodes and their stages, sorted by name.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, NodeStage)> {
        self.stages.iter().map(|(n, st)| (n.as_str(), *st))
    }

    pub fn is_empty(&self) -> bool {
        !self.frontend_committed && self.stages.is_empty() && self.quarantined.is_empty()
    }

    /// Serialize to the line-oriented state-file format:
    ///
    /// ```text
    /// frontend committed
    /// node compute-0-0 packages-committed
    /// quarantine compute-0-3 node.boot: retry budget exhausted
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.frontend_committed {
            out.push_str("frontend committed\n");
        }
        for (name, stage) in &self.stages {
            out.push_str(&format!("node {name} {stage}\n"));
        }
        for (name, reason) in &self.quarantined {
            out.push_str(&format!("quarantine {name} {reason}\n"));
        }
        out
    }

    /// Parse the [`to_text`](Self::to_text) format. Blank lines and `#`
    /// comments are ignored; unknown *trailing fields* on recognized
    /// directives are tolerated (forward compatibility), but unknown
    /// directives fail with a typed [`RecordError`].
    pub fn parse(text: &str) -> Result<InstallCheckpoint, RecordError> {
        let mut cp = InstallCheckpoint::new();
        for mut r in records(FORMAT, text) {
            match r.tag {
                "frontend" => {
                    if r.word("frontend state")? != "committed" {
                        return Err(r.error("expected `frontend committed`"));
                    }
                    cp.frontend_committed = true;
                }
                "node" => {
                    let name = r.word("node name")?;
                    let stage_s = r.word("node stage")?;
                    let stage = NodeStage::parse(stage_s)
                        .ok_or_else(|| r.error(format!("unknown stage `{stage_s}`")))?;
                    cp.record(name, stage);
                }
                "quarantine" => {
                    let name = r.word("node name")?;
                    cp.quarantined
                        .insert(name.to_string(), r.rest().to_string());
                }
                other => return Err(r.error(format!("unknown directive `{other}`"))),
            }
        }
        Ok(cp)
    }
}

/// Durable record of a rolling update campaign's progress: which waves
/// completed, which nodes committed their update, and which nodes were
/// given up on (retry budget exhausted) with the reason.
///
/// Like [`InstallCheckpoint`], the format is line-oriented text and the
/// recorders are monotone, so replaying a resumed campaign's early waves
/// cannot regress the file. The `digest` line identifies the campaign
/// (target package set + cohort layout) so a resume can refuse to pick
/// up a checkpoint written by a different campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Stable digest of the campaign definition this file belongs to.
    digest: String,
    /// Waves `0..waves_completed` finished (drain + update + skew probe).
    waves_completed: usize,
    /// Nodes whose update transaction committed.
    updated: BTreeSet<String>,
    /// Nodes the campaign gave up on, with the reason.
    failed: BTreeMap<String, String>,
}

impl CampaignCheckpoint {
    pub fn new(digest: &str) -> Self {
        CampaignCheckpoint {
            digest: digest.to_string(),
            ..CampaignCheckpoint::default()
        }
    }

    /// The campaign-definition digest this checkpoint belongs to.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Number of fully completed waves (waves `0..n` are done).
    pub fn waves_completed(&self) -> usize {
        self.waves_completed
    }

    /// Record that wave `wave_index` (0-based) completed. Monotone:
    /// recording an earlier wave never regresses the counter.
    pub fn mark_wave_completed(&mut self, wave_index: usize) {
        self.waves_completed = self.waves_completed.max(wave_index + 1);
    }

    /// Record that `node`'s update transaction committed.
    pub fn record_updated(&mut self, node: &str) {
        self.updated.insert(node.to_string());
    }

    /// Names of all updated nodes, sorted.
    pub fn updated_nodes(&self) -> impl Iterator<Item = &str> {
        self.updated.iter().map(String::as_str)
    }

    /// Give up on `node`, recording why.
    pub fn record_failed(&mut self, node: &str, reason: &str) {
        self.failed.insert(node.to_string(), reason.to_string());
    }

    /// Failed nodes with reasons, sorted by name.
    pub fn failed(&self) -> impl Iterator<Item = (&str, &str)> {
        self.failed.iter().map(|(n, r)| (n.as_str(), r.as_str()))
    }

    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.waves_completed == 0 && self.updated.is_empty() && self.failed.is_empty()
    }

    /// Serialize to the line-oriented state-file format:
    ///
    /// ```text
    /// campaign 4f2a9c01d3e8b576
    /// waves-completed 2
    /// updated compute-0-0
    /// failed compute-0-3 rpm.scriptlet: retry budget exhausted
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("campaign {}\n", self.digest);
        out.push_str(&format!("waves-completed {}\n", self.waves_completed));
        for name in &self.updated {
            out.push_str(&format!("updated {name}\n"));
        }
        for (name, reason) in &self.failed {
            out.push_str(&format!("failed {name} {reason}\n"));
        }
        out
    }

    /// Parse the [`to_text`](Self::to_text) format. Blank lines and `#`
    /// comments are ignored; unknown *trailing fields* on recognized
    /// directives are tolerated (forward compatibility), but unknown
    /// directives fail with a typed [`RecordError`], as does a file with
    /// no `campaign` digest line.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, RecordError> {
        let mut cp = CampaignCheckpoint::default();
        for mut r in records(FORMAT, text) {
            match r.tag {
                "campaign" => cp.digest = r.word("campaign digest")?.to_string(),
                "waves-completed" => {
                    cp.waves_completed = cp.waves_completed.max(r.parse("wave count")?);
                }
                "updated" => {
                    cp.updated.insert(r.word("node name")?.to_string());
                }
                "failed" => {
                    let name = r.word("node name")?;
                    cp.failed.insert(name.to_string(), r.rest().to_string());
                }
                other => return Err(r.error(format!("unknown directive `{other}`"))),
            }
        }
        if cp.digest.is_empty() {
            return Err(RecordError::at_end(FORMAT, text, "missing `campaign` line"));
        }
        Ok(cp)
    }
}

/// Durable record of an elastic fleet run's progress: how many
/// autoscaler ticks completed before an abort.
///
/// The heavyweight live state (scheduler, power sequencer, node DBs) is
/// caller-held, exactly as campaigns hold their node DBs across an
/// abort; the checkpoint only pins where the tick loop restarts. Like
/// the other checkpoints the format is line-oriented text, the recorder
/// is monotone, and the `digest` line lets a resume refuse a checkpoint
/// written by a different elastic run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticCheckpoint {
    /// Stable digest of the elastic run definition this file belongs to.
    digest: String,
    /// Ticks `0..ticks_completed` finished (decision + transitions).
    ticks_completed: usize,
}

impl ElasticCheckpoint {
    pub fn new(digest: &str) -> Self {
        ElasticCheckpoint {
            digest: digest.to_string(),
            ..ElasticCheckpoint::default()
        }
    }

    /// The run-definition digest this checkpoint belongs to.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Number of fully completed ticks (ticks `0..n` are done).
    pub fn ticks_completed(&self) -> usize {
        self.ticks_completed
    }

    /// Record that tick `tick_index` (0-based) completed. Monotone:
    /// recording an earlier tick never regresses the counter.
    pub fn mark_tick_completed(&mut self, tick_index: usize) {
        self.ticks_completed = self.ticks_completed.max(tick_index + 1);
    }

    pub fn is_empty(&self) -> bool {
        self.ticks_completed == 0
    }

    /// Serialize to the line-oriented state-file format:
    ///
    /// ```text
    /// elastic 4f2a9c01d3e8b576
    /// ticks-completed 5
    /// ```
    pub fn to_text(&self) -> String {
        format!(
            "elastic {}\nticks-completed {}\n",
            self.digest, self.ticks_completed
        )
    }

    /// Parse the [`to_text`](Self::to_text) format. Blank lines and `#`
    /// comments are ignored; unknown *trailing fields* on recognized
    /// directives are tolerated (forward compatibility), but unknown
    /// directives fail with a typed [`RecordError`], as does a file with
    /// no `elastic` digest line.
    pub fn parse(text: &str) -> Result<ElasticCheckpoint, RecordError> {
        let mut cp = ElasticCheckpoint::default();
        for mut r in records(FORMAT, text) {
            match r.tag {
                "elastic" => cp.digest = r.word("elastic digest")?.to_string(),
                "ticks-completed" => {
                    cp.ticks_completed = cp.ticks_completed.max(r.parse("tick count")?);
                }
                other => return Err(r.error(format!("unknown directive `{other}`"))),
            }
        }
        if cp.digest.is_empty() {
            return Err(RecordError::at_end(FORMAT, text, "missing `elastic` line"));
        }
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_ordered() {
        assert!(NodeStage::Pending < NodeStage::Discovered);
        assert!(NodeStage::Discovered < NodeStage::Kickstarted);
        assert!(NodeStage::Kickstarted < NodeStage::PackagesCommitted);
    }

    #[test]
    fn record_is_monotone() {
        let mut cp = InstallCheckpoint::new();
        cp.record("compute-0-0", NodeStage::Kickstarted);
        cp.record("compute-0-0", NodeStage::Discovered);
        assert_eq!(cp.stage("compute-0-0"), NodeStage::Kickstarted);
        cp.record("compute-0-0", NodeStage::PackagesCommitted);
        assert!(cp.is_committed("compute-0-0"));
    }

    #[test]
    fn unknown_node_is_pending() {
        let cp = InstallCheckpoint::new();
        assert_eq!(cp.stage("compute-9-9"), NodeStage::Pending);
        assert!(!cp.is_committed("compute-9-9"));
    }

    #[test]
    fn committed_nodes_sorted() {
        let mut cp = InstallCheckpoint::new();
        cp.record("compute-0-1", NodeStage::PackagesCommitted);
        cp.record("compute-0-0", NodeStage::PackagesCommitted);
        cp.record("compute-0-2", NodeStage::Kickstarted);
        assert_eq!(cp.committed_nodes(), vec!["compute-0-0", "compute-0-1"]);
    }

    #[test]
    fn quarantine_tracked_with_reason() {
        let mut cp = InstallCheckpoint::new();
        cp.quarantine("compute-0-3", "node.boot: retry budget exhausted");
        assert!(cp.is_quarantined("compute-0-3"));
        let q: Vec<_> = cp.quarantined().collect();
        assert_eq!(
            q,
            vec![("compute-0-3", "node.boot: retry budget exhausted")]
        );
    }

    #[test]
    fn text_round_trip() {
        let mut cp = InstallCheckpoint::new();
        cp.mark_frontend_committed();
        cp.record("compute-0-0", NodeStage::PackagesCommitted);
        cp.record("compute-0-1", NodeStage::Discovered);
        cp.quarantine("compute-0-2", "rpm.scriptlet: transaction rolled back");
        let text = cp.to_text();
        let parsed = InstallCheckpoint::parse(&text).unwrap();
        assert_eq!(parsed, cp);
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let cp = InstallCheckpoint::parse(
            "# resumed 2016-07-12\n\nfrontend committed\nnode compute-0-0 kickstarted\n",
        )
        .unwrap();
        assert!(cp.frontend_committed());
        assert_eq!(cp.stage("compute-0-0"), NodeStage::Kickstarted);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = InstallCheckpoint::parse("node compute-0-0 warp-speed").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("warp-speed"));
        assert!(InstallCheckpoint::parse("reboot now").is_err());
        assert!(InstallCheckpoint::parse("frontend exploded").is_err());
    }

    #[test]
    fn empty_checkpoint_is_empty() {
        assert!(InstallCheckpoint::new().is_empty());
        assert!(InstallCheckpoint::parse("").unwrap().is_empty());
    }

    #[test]
    fn install_parse_tolerates_unknown_trailing_fields() {
        // A future writer may append fields after the stage; old parsers
        // must still read the part they understand.
        let cp = InstallCheckpoint::parse(
            "frontend committed at=2016-07-12\n\
             node compute-0-0 packages-committed epoch=3\n",
        )
        .unwrap();
        assert!(cp.frontend_committed());
        assert!(cp.is_committed("compute-0-0"));
        // Unknown *directives* are still a typed error, not silence.
        let err = InstallCheckpoint::parse("overlay xnit done").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("overlay"));
    }

    #[test]
    fn campaign_checkpoint_round_trip() {
        let mut cp = CampaignCheckpoint::new("4f2a9c01d3e8b576");
        cp.mark_wave_completed(0);
        cp.mark_wave_completed(1);
        cp.record_updated("compute-0-0");
        cp.record_updated("compute-0-1");
        cp.record_failed("compute-0-3", "rpm.scriptlet: retry budget exhausted");
        let parsed = CampaignCheckpoint::parse(&cp.to_text()).unwrap();
        assert_eq!(parsed, cp);
        assert_eq!(parsed.digest(), "4f2a9c01d3e8b576");
        assert_eq!(parsed.waves_completed(), 2);
        assert_eq!(parsed.failed_count(), 1);
    }

    #[test]
    fn campaign_recorders_are_monotone() {
        let mut cp = CampaignCheckpoint::new("d");
        cp.mark_wave_completed(3);
        cp.mark_wave_completed(1);
        assert_eq!(cp.waves_completed(), 4);
        assert!(!cp.is_empty());
        assert!(CampaignCheckpoint::new("d").is_empty());
    }

    #[test]
    fn campaign_parse_tolerates_unknown_trailing_fields() {
        let cp = CampaignCheckpoint::parse(
            "campaign abc123 schema=2\n\
             waves-completed 1 of=4\n\
             updated compute-0-0 at=wave:0\n\
             failed compute-0-2 canary: health check failed\n",
        )
        .unwrap();
        assert_eq!(cp.digest(), "abc123");
        assert_eq!(cp.waves_completed(), 1);
        assert!(cp.updated_nodes().eq(["compute-0-0"]));
        let failed: Vec<_> = cp.failed().collect();
        assert_eq!(failed, vec![("compute-0-2", "canary: health check failed")]);
    }

    #[test]
    fn campaign_parse_rejects_garbage() {
        let err = CampaignCheckpoint::parse("rollback everything").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("rollback"));
        assert!(CampaignCheckpoint::parse("waves-completed many").is_err());
        assert!(CampaignCheckpoint::parse("updated").is_err());
        assert!(CampaignCheckpoint::parse("campaign").is_err());
    }

    #[test]
    fn campaign_comments_and_blanks_ignored() {
        let cp = CampaignCheckpoint::parse(
            "# resumed after power loss\n\ncampaign x\nwaves-completed 2\n",
        )
        .unwrap();
        assert_eq!(cp.waves_completed(), 2);
    }

    #[test]
    fn elastic_checkpoint_round_trip() {
        let mut cp = ElasticCheckpoint::new("4f2a9c01d3e8b576");
        cp.mark_tick_completed(0);
        cp.mark_tick_completed(4);
        let parsed = ElasticCheckpoint::parse(&cp.to_text()).unwrap();
        assert_eq!(parsed, cp);
        assert_eq!(parsed.digest(), "4f2a9c01d3e8b576");
        assert_eq!(parsed.ticks_completed(), 5);
    }

    #[test]
    fn elastic_recorder_is_monotone() {
        let mut cp = ElasticCheckpoint::new("d");
        cp.mark_tick_completed(3);
        cp.mark_tick_completed(1);
        assert_eq!(cp.ticks_completed(), 4);
        assert!(!cp.is_empty());
        assert!(ElasticCheckpoint::new("d").is_empty());
    }

    #[test]
    fn elastic_parse_tolerates_unknown_trailing_fields() {
        let cp = ElasticCheckpoint::parse(
            "# resumed after scale-up fault\n\nelastic abc123 schema=2\nticks-completed 3 of=12\n",
        )
        .unwrap();
        assert_eq!(cp.digest(), "abc123");
        assert_eq!(cp.ticks_completed(), 3);
    }

    #[test]
    fn campaign_and_elastic_need_their_digest_line() {
        let err = CampaignCheckpoint::parse("# campaign abc\nwaves-completed 1\n").unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "missing `campaign` line")
        );
        let err = ElasticCheckpoint::parse("").unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (1, "missing `elastic` line")
        );
    }

    #[test]
    fn elastic_parse_rejects_garbage() {
        let err = ElasticCheckpoint::parse("scale everything").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("scale"));
        assert!(ElasticCheckpoint::parse("ticks-completed many").is_err());
        assert!(ElasticCheckpoint::parse("elastic").is_err());
    }
}
