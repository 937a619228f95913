//! Post-mortem: the report section a fault-injected deployment emits.
//!
//! After a degraded install completes on its survivors, the operator
//! needs to know what the resilience layer actually did: which faults
//! fired, how many retries were spent absorbing them, how much virtual
//! time was lost to backoff, and which nodes were quarantined. The
//! rendering is deterministic — identical fault plans yield
//! byte-identical post-mortems, which the property tests assert.

use std::fmt;

use crate::plan::FaultEvent;
use xcbc_sim::SimTime;

/// Accumulated resilience telemetry for one deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostMortem {
    /// Seed of the fault plan that drove the run (None: no injection).
    pub seed: Option<u64>,
    /// Every fault the injector fired, in injection order.
    pub faults: Vec<FaultEvent>,
    /// Retry attempts spent beyond first tries, across all operations.
    pub retries_spent: u32,
    /// Total virtual time charged to backoff delays, seconds.
    pub backoff_s: f64,
    /// Nodes pulled from the install, with reasons (sorted by caller).
    pub quarantined: Vec<(String, String)>,
    /// Nodes skipped on resume because a checkpoint showed them
    /// already committed.
    pub resumed_nodes: Vec<String>,
    /// Notable resilience moments (retry absorbed, quarantine, resume)
    /// stamped on the shared simulation clock, in occurrence order.
    pub moments: Vec<(SimTime, String)>,
    /// Flight-recorder tail: the last events (as JSONL lines) the run
    /// emitted before it finished or faulted, plus how many of the
    /// observed events were older than that tail. Populated by the
    /// deployment engines for non-clean runs.
    pub flight_tail: Vec<String>,
    /// Total events the flight recorder observed (`0` when no recorder
    /// ran); `flight_dropped` of them were older than the retained tail.
    pub flight_seen: u64,
    /// Events older than the flight recorder's retained tail.
    pub flight_dropped: u64,
}

impl PostMortem {
    pub fn new(seed: Option<u64>) -> Self {
        PostMortem {
            seed,
            ..PostMortem::default()
        }
    }

    /// Record the outcome of one retried operation.
    pub fn charge_retries(&mut self, retries: u32, backoff_s: f64) {
        self.retries_spent += retries;
        self.backoff_s += backoff_s;
    }

    pub fn record_quarantine(&mut self, node: &str, reason: &str) {
        self.quarantined
            .push((node.to_string(), reason.to_string()));
    }

    pub fn record_resumed(&mut self, node: &str) {
        self.resumed_nodes.push(node.to_string());
    }

    /// Stamp a notable moment on the shared simulation clock, so the
    /// rendered post-mortem reads as a timeline rather than a tally.
    pub fn record_moment(&mut self, at: impl Into<SimTime>, what: impl Into<String>) {
        self.moments.push((at.into(), what.into()));
    }

    /// Attach a flight-recorder tail (last-events JSONL lines plus the
    /// recorder's seen/dropped counters) to the report.
    pub fn record_flight_tail(
        &mut self,
        tail: impl IntoIterator<Item = String>,
        seen: u64,
        dropped: u64,
    ) {
        self.flight_tail = tail.into_iter().collect();
        self.flight_seen = seen;
        self.flight_dropped = dropped;
    }

    /// True when the run saw no faults, retries, or quarantines — the
    /// report can omit the section entirely.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
            && self.retries_spent == 0
            && self.backoff_s == 0.0
            && self.quarantined.is_empty()
            && self.resumed_nodes.is_empty()
    }

    /// Deterministic text rendering for the deployment report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Post-mortem ==\n");
        match self.seed {
            Some(seed) => out.push_str(&format!("fault plan seed   : {seed}\n")),
            None => out.push_str("fault plan seed   : (none)\n"),
        }
        out.push_str(&format!("faults injected   : {}\n", self.faults.len()));
        out.push_str(&format!("retries spent     : {}\n", self.retries_spent));
        out.push_str(&format!("backoff time lost : {:.1}s\n", self.backoff_s));
        out.push_str(&format!("nodes quarantined : {}\n", self.quarantined.len()));
        if !self.resumed_nodes.is_empty() {
            out.push_str(&format!(
                "resumed from checkpoint: {} node(s) skipped ({})\n",
                self.resumed_nodes.len(),
                self.resumed_nodes.join(", ")
            ));
        }
        for event in &self.faults {
            out.push_str(&format!(
                "  fault {} at {} [{}] hit {}\n",
                event.kind.as_str(),
                event.point.as_str(),
                event.key,
                event.hit
            ));
        }
        for (node, reason) in &self.quarantined {
            out.push_str(&format!("  quarantined {node}: {reason}\n"));
        }
        if !self.moments.is_empty() {
            out.push_str("moments:\n");
            for (t, what) in &self.moments {
                out.push_str(&format!("  [{t:>10}] {what}\n"));
            }
        }
        if !self.flight_tail.is_empty() {
            out.push_str(&format!(
                "flight recorder   : last {} of {} event(s) ({} dropped)\n",
                self.flight_tail.len(),
                self.flight_seen,
                self.flight_dropped
            ));
            for line in &self.flight_tail {
                out.push_str(&format!("  | {line}\n"));
            }
        }
        out
    }
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, InjectionPoint};

    fn sample_event() -> FaultEvent {
        FaultEvent {
            point: InjectionPoint::MirrorFetch,
            key: "mirror-a".to_string(),
            hit: 0,
            kind: FaultKind::Transient,
        }
    }

    #[test]
    fn fresh_postmortem_is_clean() {
        assert!(PostMortem::new(Some(7)).is_clean());
    }

    #[test]
    fn charges_accumulate() {
        let mut pm = PostMortem::new(Some(1));
        pm.charge_retries(2, 6.5);
        pm.charge_retries(1, 2.0);
        assert_eq!(pm.retries_spent, 3);
        assert!((pm.backoff_s - 8.5).abs() < 1e-9);
        assert!(!pm.is_clean());
    }

    #[test]
    fn render_mentions_everything() {
        let mut pm = PostMortem::new(Some(42));
        pm.faults.push(sample_event());
        pm.charge_retries(1, 2.2);
        pm.record_quarantine("compute-0-3", "node.boot: retry budget exhausted");
        pm.record_resumed("compute-0-0");
        let text = pm.render();
        assert!(text.contains("fault plan seed   : 42"));
        assert!(text.contains("faults injected   : 1"));
        assert!(text.contains("retries spent     : 1"));
        assert!(text.contains("backoff time lost : 2.2s"));
        assert!(text.contains("nodes quarantined : 1"));
        assert!(text.contains("mirror.fetch"));
        assert!(text.contains("quarantined compute-0-3"));
        assert!(text.contains("resumed from checkpoint: 1 node(s) skipped (compute-0-0)"));
    }

    #[test]
    fn render_is_deterministic() {
        let mut a = PostMortem::new(Some(3));
        a.faults.push(sample_event());
        a.charge_retries(2, 4.0);
        let mut b = PostMortem::new(Some(3));
        b.faults.push(sample_event());
        b.charge_retries(2, 4.0);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn moments_render_with_sim_timestamps() {
        use xcbc_sim::SimTime;
        let mut pm = PostMortem::new(Some(9));
        pm.record_moment(
            SimTime::from_secs(690),
            "quarantined compute-0-3 (hang at node.boot)",
        );
        pm.record_moment(900.5, "compute-0-4: rpm.scriptlet absorbed 1 retry");
        let text = pm.render();
        assert!(text.contains("moments:"));
        assert!(text.contains("690.000s] quarantined compute-0-3"));
        assert!(text.contains("900.500s] compute-0-4: rpm.scriptlet absorbed 1 retry"));
        // occurrence order is preserved
        let q = text.find("quarantined compute-0-3").unwrap();
        let r = text.find("absorbed 1 retry").unwrap();
        assert!(q < r);
    }

    #[test]
    fn flight_tail_renders() {
        let mut pm = PostMortem::new(Some(4));
        pm.record_quarantine("compute-0-1", "hang");
        pm.record_flight_tail(
            vec![
                "{\"t_ns\":1,\"source\":\"a\",\"kind\":\"mark\",\"label\":\"x\"}".to_string(),
                "{\"t_ns\":2,\"source\":\"b\",\"kind\":\"mark\",\"label\":\"y\"}".to_string(),
            ],
            10,
            8,
        );
        let text = pm.render();
        assert!(text.contains("flight recorder   : last 2 of 10 event(s) (8 dropped)"));
        assert!(text.contains("  | {\"t_ns\":2"));
    }
}
