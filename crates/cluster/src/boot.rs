//! Boot/provisioning timelines.
//!
//! A [`Timeline`] is an ordered list of timestamped phases; the Rocks
//! installer (`xcbc-rocks`) and the deployment comparisons in
//! `xcbc-core::deploy` show one to quantify "how long does each path
//! take and how many steps does it have".
//!
//! The timeline is a read-only *view* over recorded trace spans.
//! Spans are placed by `xcbc_sim::SpanRecorder`; [`Timeline::from_spans`]
//! turns an event log into phases carrying integer-nanosecond
//! [`SimTime`]/[`SimDuration`] stamps (`start_s`/`duration_s` read them
//! back as float seconds).

use xcbc_sim::{SimDuration, SimTime, TraceEvent, TraceKind};

/// Re-exported from `xcbc-sim`: label prefix that marks a phase as
/// retry backoff, so timelines can account for time lost to the
/// resilience layer separately from real install work.
pub use xcbc_sim::BACKOFF_PREFIX;

/// A named phase with a start time and duration.
#[derive(Debug, Clone, PartialEq)]
pub struct BootPhase {
    start: SimTime,
    duration: SimDuration,
    pub label: String,
}

impl BootPhase {
    /// When the phase starts.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// How long the phase runs.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// When the phase ends.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Start in seconds (compatibility accessor for the old field).
    pub fn start_s(&self) -> f64 {
        self.start.as_secs_f64()
    }

    /// Duration in seconds (compatibility accessor for the old field).
    pub fn duration_s(&self) -> f64 {
        self.duration.as_secs_f64()
    }

    /// End in seconds (compatibility accessor).
    pub fn end_s(&self) -> f64 {
        self.end().as_secs_f64()
    }
}

/// The phases of a recorded trace, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    phases: Vec<BootPhase>,
}

impl Timeline {
    /// A timeline built from recorded trace spans: every
    /// `TraceKind::Span` event becomes a phase at its recorded start;
    /// marks and counters are skipped.
    pub fn from_spans<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let phases = events
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::Span { dur } => Some(BootPhase {
                    start: e.t,
                    duration: dur,
                    label: e.label.clone(),
                }),
                _ => None,
            })
            .collect();
        Timeline { phases }
    }

    /// Total time spent in backoff phases.
    pub fn backoff_time(&self) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| p.label.starts_with(BACKOFF_PREFIX))
            .map(|p| p.duration)
            .sum()
    }

    pub fn phases(&self) -> &[BootPhase] {
        &self.phases
    }

    pub fn len(&self) -> usize {
        self.phases.len()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Wall-clock end of the timeline.
    pub fn end_time(&self) -> SimTime {
        self.phases
            .iter()
            .map(BootPhase::end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Wall-clock end of the timeline in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.end_time().as_secs_f64()
    }

    /// Render as a simple text Gantt.
    pub fn render(&self) -> String {
        let total = self.total_seconds().max(1.0);
        let mut out = String::new();
        for p in &self.phases {
            let lead = ((p.start_s() / total) * 50.0).round() as usize;
            let bar = (((p.duration_s() / total) * 50.0).round() as usize).max(1);
            out.push_str(&format!(
                "{:>8.0}s {}{} {} ({:.0}s)\n",
                p.start_s(),
                " ".repeat(lead),
                "#".repeat(bar),
                p.label,
                p.duration_s()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_sim::SpanRecorder;

    fn timeline(r: &SpanRecorder) -> Timeline {
        Timeline::from_spans(r.events())
    }

    #[test]
    fn sequential_phases_accumulate() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("bios", 30.0)
            .record("pxe", 10.0)
            .record("install", 600.0);
        let t = timeline(&r);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_seconds(), 640.0);
        assert_eq!(t.phases()[2].start_s(), 40.0);
    }

    #[test]
    fn parallel_phase_shares_start() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("frontend install", 1800.0);
        r.record("compute-0-0 install", 600.0);
        r.record_parallel("compute-0-1 install", 700.0);
        let t = timeline(&r);
        assert_eq!(t.phases()[2].start_s(), 1800.0);
        assert_eq!(t.total_seconds(), 2500.0);
    }

    #[test]
    fn parallel_on_empty_starts_at_zero() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record_parallel("x", 5.0);
        let t = timeline(&r);
        assert_eq!(t.phases()[0].start_s(), 0.0);
        assert_eq!(t.total_seconds(), 5.0);
    }

    #[test]
    fn zero_duration_phases_render_without_panic() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("instant", 0.0).record("also instant", 0.0);
        // total is 0; render clamps to avoid dividing by zero
        let t = timeline(&r);
        assert!(t.render().contains("instant"));
        assert_eq!(t.total_seconds(), 0.0);
        // zero-duration phases don't advance the cursor
        r.record("real", 10.0);
        let t = timeline(&r);
        assert_eq!(t.phases()[2].start_s(), 0.0);
        assert_eq!(t.total_seconds(), 10.0);
    }

    #[test]
    fn render_contains_labels() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("bios", 30.0).record("kickstart", 300.0);
        let out = timeline(&r).render();
        assert!(out.contains("bios"));
        assert!(out.contains("kickstart"));
        assert!(out.contains('#'));
    }

    #[test]
    fn render_empty_is_empty() {
        assert_eq!(Timeline::default().render(), "");
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::from_spans(&[]);
        assert!(t.is_empty());
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn backoff_phases_tracked_separately() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("frontend install", 600.0);
        r.record_backoff("mirror.fetch retry", 6.0);
        r.record("compute install", 300.0);
        r.record_backoff("dhcp.discover retry", 4.0);
        let t = timeline(&r);
        assert_eq!(t.backoff_time(), SimDuration::from_secs(10));
        assert_eq!(t.total_seconds(), 910.0);
        assert!(t.render().contains("backoff: mirror.fetch retry"));
    }

    #[test]
    fn zero_backoff_leaves_no_phase() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("install", 100.0);
        r.record_backoff("nothing", 0.0);
        r.record_backoff("negative", -3.0);
        let t = timeline(&r);
        assert_eq!(t.len(), 1);
        assert_eq!(t.backoff_time(), SimDuration::ZERO);
    }

    #[test]
    fn accepts_sim_durations_directly() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("bios", SimDuration::from_secs(30));
        r.record("pxe", SimDuration::from_millis(10_000));
        assert_eq!(timeline(&r).total_seconds(), 40.0);
    }

    #[test]
    fn from_spans_skips_marks_and_counters() {
        let events = vec![
            TraceEvent::span(0.0, "x", "work", 10.0),
            TraceEvent::mark(5.0, "x", "checkpoint"),
            TraceEvent::counter(10.0, "x", "queued", 3),
        ];
        let t = Timeline::from_spans(&events);
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_seconds(), 10.0);
    }
}
