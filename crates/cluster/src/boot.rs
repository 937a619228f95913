//! Boot/provisioning timelines.
//!
//! A [`Timeline`] is an ordered list of timestamped phases; the Rocks
//! installer (`xcbc-rocks`) and the deployment comparisons in
//! `xcbc-core::deploy` build them to quantify "how long does each path
//! take and how many steps does it have".
//!
//! Since the `xcbc-sim` refactor the timeline is a *view* over
//! recorded trace spans: phases carry integer-nanosecond
//! [`SimTime`]/[`SimDuration`] stamps, [`Timeline::from_spans`] builds
//! a timeline from an `xcbc-sim` event log, and the old `f64`-seconds
//! API survives as a thin compatibility shim (`push` still accepts
//! float seconds via `Into<SimDuration>`, and `start_s`/`duration_s`
//! are now accessor methods).

use xcbc_sim::{SimDuration, SimTime, SpanRecorder, TraceEvent, TraceKind};

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
    /// A phase starting at `start` and running for `duration`.
    pub fn new(
        start: impl Into<SimTime>,
        duration: impl Into<SimDuration>,
        label: impl Into<String>,
    ) -> Self {
        BootPhase {
            start: start.into(),
            duration: duration.into(),
            label: label.into(),
        }
    }

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

/// An append-only timeline of phases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    phases: Vec<BootPhase>,
}

impl Timeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// A timeline built from recorded trace spans: every
    /// `TraceKind::Span` event becomes a phase at its recorded start;
    /// marks and counters are skipped. Spans recorded through
    /// `xcbc_sim::SpanRecorder` reproduce exactly the timeline the old
    /// `push`/`push_parallel` calls would have built.
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

    /// The recorded spans rendered back out as trace events with the
    /// given `source` — the inverse of [`Timeline::from_spans`].
    pub fn to_spans(&self, source: &str) -> Vec<TraceEvent> {
        self.phases
            .iter()
            .map(|p| TraceEvent::span(p.start, source, p.label.clone(), p.duration))
            .collect()
    }

    /// Append a phase starting when the previous one ended. Accepts
    /// `SimDuration` or float seconds.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        duration: impl Into<SimDuration>,
    ) -> &mut Self {
        let start = self.end_time();
        self.phases.push(BootPhase {
            start,
            duration: duration.into(),
            label: label.into(),
        });
        self
    }

    /// Append a phase that runs concurrently with the previous one
    /// (starts at the same time; the timeline end extends only if it
    /// finishes later).
    pub fn push_parallel(
        &mut self,
        label: impl Into<String>,
        duration: impl Into<SimDuration>,
    ) -> &mut Self {
        let start = self.phases.last().map(|p| p.start).unwrap_or(SimTime::ZERO);
        self.phases.push(BootPhase {
            start,
            duration: duration.into(),
            label: label.into(),
        });
        self
    }

    /// Append a retry-backoff phase (labelled with [`BACKOFF_PREFIX`]).
    /// Zero or negative durations are dropped so clean runs leave no
    /// backoff phases behind.
    pub fn push_backoff(
        &mut self,
        what: impl AsRef<str>,
        duration: impl Into<SimDuration>,
    ) -> &mut Self {
        let duration = duration.into();
        if !duration.is_zero() {
            self.push(format!("{BACKOFF_PREFIX}{}", what.as_ref()), duration);
        }
        self
    }

    /// Total seconds spent in backoff phases.
    pub fn backoff_seconds(&self) -> f64 {
        self.backoff_time().as_secs_f64()
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

    /// Merge another timeline onto the end of this one. Extending from
    /// an empty timeline applies a zero offset; extending *with* an
    /// empty timeline is a no-op.
    pub fn extend_sequential(&mut self, other: &Timeline) {
        let offset = self.end_time().since(SimTime::ZERO);
        for p in &other.phases {
            self.phases.push(BootPhase {
                start: p.start + offset,
                duration: p.duration,
                label: p.label.clone(),
            });
        }
    }

    /// Per-phase share of total wall-clock time, `(label, fraction)`
    /// in phase order. An empty timeline yields no rows; a timeline of
    /// only zero-duration phases yields zero fractions (the total is
    /// clamped to avoid dividing by zero, matching [`Timeline::render`]).
    pub fn percent_breakdown(&self) -> Vec<(String, f64)> {
        let total = self.total_seconds().max(1.0);
        self.phases
            .iter()
            .map(|p| (p.label.clone(), p.duration_s() / total))
            .collect()
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

/// Rebuilding a timeline from a `SpanRecorder`'s events must be
/// lossless; this free function is the one place that pairing is
/// spelled out, and the proptests in `tests/` hold it to that.
pub fn timeline_from_recorder(recorder: &SpanRecorder) -> Timeline {
    Timeline::from_spans(recorder.events())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_phases_accumulate() {
        let mut t = Timeline::new();
        t.push("bios", 30.0)
            .push("pxe", 10.0)
            .push("install", 600.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_seconds(), 640.0);
        assert_eq!(t.phases()[2].start_s(), 40.0);
    }

    #[test]
    fn parallel_phase_shares_start() {
        let mut t = Timeline::new();
        t.push("frontend install", 1800.0);
        t.push("compute-0-0 install", 600.0);
        t.push_parallel("compute-0-1 install", 700.0);
        assert_eq!(t.phases()[2].start_s(), 1800.0);
        assert_eq!(t.total_seconds(), 2500.0);
    }

    #[test]
    fn parallel_on_empty_starts_at_zero() {
        let mut t = Timeline::new();
        t.push_parallel("x", 5.0);
        assert_eq!(t.phases()[0].start_s(), 0.0);
        assert_eq!(t.total_seconds(), 5.0);
    }

    #[test]
    fn extend_sequential_offsets() {
        let mut a = Timeline::new();
        a.push("one", 10.0);
        let mut b = Timeline::new();
        b.push("two", 5.0);
        a.extend_sequential(&b);
        assert_eq!(a.phases()[1].start_s(), 10.0);
        assert_eq!(a.total_seconds(), 15.0);
    }

    #[test]
    fn extend_sequential_from_empty_applies_zero_offset() {
        let mut a = Timeline::new();
        let mut b = Timeline::new();
        b.push("bios", 30.0).push("pxe", 10.0);
        a.extend_sequential(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.phases()[0].start_s(), 0.0);
        assert_eq!(a.phases()[1].start_s(), 30.0);
        assert_eq!(a.total_seconds(), 40.0);
    }

    #[test]
    fn extend_sequential_with_empty_is_noop() {
        let mut a = Timeline::new();
        a.push("one", 10.0);
        let before = a.clone();
        a.extend_sequential(&Timeline::new());
        assert_eq!(a, before);
        // and empty-onto-empty stays empty
        let mut e = Timeline::new();
        e.extend_sequential(&Timeline::new());
        assert!(e.is_empty());
        assert_eq!(e.total_seconds(), 0.0);
    }

    #[test]
    fn extend_sequential_offsets_by_max_end_not_last_phase() {
        // a parallel tail phase that ends *before* the timeline's max
        // end must not shrink the offset
        let mut a = Timeline::new();
        a.push("long", 100.0);
        a.push_parallel("short overlap", 10.0);
        let mut b = Timeline::new();
        b.push("next", 5.0);
        a.extend_sequential(&b);
        assert_eq!(a.phases()[2].start_s(), 100.0);
        assert_eq!(a.total_seconds(), 105.0);
    }

    #[test]
    fn zero_duration_phases_render_without_panic() {
        let mut t = Timeline::new();
        t.push("instant", 0.0);
        t.push("also instant", 0.0);
        // total is 0; render clamps to avoid dividing by zero
        let r = t.render();
        assert!(r.contains("instant"));
        assert_eq!(t.total_seconds(), 0.0);
        // zero-duration phases don't advance the cursor
        t.push("real", 10.0);
        assert_eq!(t.phases()[2].start_s(), 0.0);
        assert_eq!(t.total_seconds(), 10.0);
    }

    #[test]
    fn percent_breakdown_edge_cases() {
        assert!(Timeline::new().percent_breakdown().is_empty());
        let mut zeros = Timeline::new();
        zeros.push("a", 0.0).push("b", 0.0);
        for (_, share) in zeros.percent_breakdown() {
            assert_eq!(share, 0.0);
        }
        let mut t = Timeline::new();
        t.push("one", 25.0).push("three", 75.0);
        let shares = t.percent_breakdown();
        assert_eq!(shares[0], ("one".to_string(), 0.25));
        assert_eq!(shares[1], ("three".to_string(), 0.75));
    }

    #[test]
    fn render_contains_labels() {
        let mut t = Timeline::new();
        t.push("bios", 30.0).push("kickstart", 300.0);
        let r = t.render();
        assert!(r.contains("bios"));
        assert!(r.contains("kickstart"));
        assert!(r.contains('#'));
    }

    #[test]
    fn render_empty_is_empty() {
        assert_eq!(Timeline::new().render(), "");
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn backoff_phases_tracked_separately() {
        let mut t = Timeline::new();
        t.push("frontend install", 600.0);
        t.push_backoff("mirror.fetch retry", 6.0);
        t.push("compute install", 300.0);
        t.push_backoff("dhcp.discover retry", 4.0);
        assert_eq!(t.backoff_seconds(), 10.0);
        assert_eq!(t.total_seconds(), 910.0);
        assert!(t.render().contains("backoff: mirror.fetch retry"));
    }

    #[test]
    fn zero_backoff_leaves_no_phase() {
        let mut t = Timeline::new();
        t.push("install", 100.0);
        t.push_backoff("nothing", 0.0);
        t.push_backoff("negative", -3.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.backoff_seconds(), 0.0);
    }

    #[test]
    fn accepts_sim_durations_directly() {
        let mut t = Timeline::new();
        t.push("bios", SimDuration::from_secs(30));
        t.push("pxe", SimDuration::from_millis(10_000));
        assert_eq!(t.total_seconds(), 40.0);
    }

    #[test]
    fn from_spans_mirrors_recorder() {
        let mut r = SpanRecorder::new("cluster.boot");
        r.record("bios", 30.0)
            .record("pxe", 10.0)
            .record("install", 600.0);
        r.record_parallel("install (peer)", 700.0);
        r.record_backoff("dhcp retry", 4.0);
        let t = timeline_from_recorder(&r);
        let mut classic = Timeline::new();
        classic
            .push("bios", 30.0)
            .push("pxe", 10.0)
            .push("install", 600.0);
        classic.push_parallel("install (peer)", 700.0);
        classic.push_backoff("dhcp retry", 4.0);
        assert_eq!(t, classic);
        assert_eq!(t.total_seconds(), classic.total_seconds());
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

    #[test]
    fn to_spans_round_trips() {
        let mut t = Timeline::new();
        t.push("bios", 30.0).push_parallel("probe", 40.0);
        let spans = t.to_spans("cluster.boot");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].source, "cluster.boot");
        assert_eq!(Timeline::from_spans(&spans), t);
    }
}
