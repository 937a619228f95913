//! Span recording: the one way spans on the shared timebase get
//! placed, and the three readings every report takes of the spans a
//! recorder produced — where they end ([`span_end`]), how much of them
//! was retry backoff ([`backoff_time`]) and their text Gantt
//! ([`render_gantt`]) — plus where a whole event log ends, marks and
//! counters included ([`trace_end`]).

use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind};

/// Label prefix marking a span as retry backoff, so traces can account
/// for time lost to the resilience layer separately from real work.
pub const BACKOFF_PREFIX: &str = "backoff: ";

/// The latest span end in `events` — the wall-clock end of a recorded
/// run. Marks and counters are skipped; zero for a log with no spans.
pub fn span_end(events: &[TraceEvent]) -> SimTime {
    events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Span { .. }))
        .map(TraceEvent::end)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// The latest end over every event in `events` — unlike [`span_end`],
/// marks and counters count: "now" for a log that carries fired alerts
/// or checkpoints after its last span. Zero for an empty log.
pub fn trace_end(events: &[TraceEvent]) -> SimTime {
    events
        .iter()
        .map(TraceEvent::end)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Total duration of the [`BACKOFF_PREFIX`]-labelled spans in `events`.
pub fn backoff_time(events: &[TraceEvent]) -> SimDuration {
    events
        .iter()
        .filter(|e| e.label.starts_with(BACKOFF_PREFIX))
        .map(TraceEvent::duration)
        .sum()
}

/// The spans of `events` as a text Gantt, one row per span in emission
/// order: start, a bar placed and sized on a 50-column scale of the
/// whole run, label and duration. Marks and counters are skipped.
pub fn render_gantt(events: &[TraceEvent]) -> String {
    let total = span_end(events).as_secs_f64().max(1.0);
    let mut out = String::new();
    for e in events {
        let TraceKind::Span { dur } = e.kind else {
            continue;
        };
        let (start, dur) = (e.t.as_secs_f64(), dur.as_secs_f64());
        let lead = ((start / total) * 50.0).round() as usize;
        let bar = (((dur / total) * 50.0).round() as usize).max(1);
        out.push_str(&format!(
            "{:>8.0}s {}{} {} ({:.0}s)\n",
            start,
            " ".repeat(lead),
            "#".repeat(bar),
            e.label,
            dur
        ));
    }
    out
}

/// Records spans under three placement rules:
///
/// * [`record`](SpanRecorder::record) starts a span when all previous
///   work has finished (the max end over recorded spans);
/// * [`record_parallel`](SpanRecorder::record_parallel) starts a span
///   together with the previously recorded one;
/// * [`record_backoff`](SpanRecorder::record_backoff) is `record` with
///   the [`BACKOFF_PREFIX`] label, dropping zero durations so clean
///   runs leave no backoff spans behind.
#[derive(Debug)]
pub struct SpanRecorder {
    source: &'static str,
    events: Vec<TraceEvent>,
}

impl SpanRecorder {
    /// A recorder whose spans carry `source` (e.g. `"rocks.install"`).
    pub fn new(source: &'static str) -> SpanRecorder {
        SpanRecorder {
            source,
            events: Vec::new(),
        }
    }

    /// The instant all recorded work has finished — where the next
    /// sequential span starts.
    pub fn cursor(&self) -> SimTime {
        span_end(&self.events)
    }

    /// Record a span starting when all previous work has finished.
    pub fn record(&mut self, label: impl Into<String>, dur: impl Into<SimDuration>) -> &mut Self {
        let start = self.cursor();
        self.events
            .push(TraceEvent::span(start, self.source, label, dur));
        self
    }

    /// Record a span that runs concurrently with the previously
    /// recorded one (same start; extends the cursor only if it
    /// finishes later). With nothing recorded yet it starts at zero.
    pub fn record_parallel(
        &mut self,
        label: impl Into<String>,
        dur: impl Into<SimDuration>,
    ) -> &mut Self {
        let start = self.events.last().map(|e| e.t).unwrap_or(SimTime::ZERO);
        self.events
            .push(TraceEvent::span(start, self.source, label, dur));
        self
    }

    /// Record a retry-backoff span ([`BACKOFF_PREFIX`]-labelled).
    /// Zero durations are dropped.
    pub fn record_backoff(
        &mut self,
        what: impl AsRef<str>,
        dur: impl Into<SimDuration>,
    ) -> &mut Self {
        let dur = dur.into();
        if !dur.is_zero() {
            self.record(format!("{BACKOFF_PREFIX}{}", what.as_ref()), dur);
        }
        self
    }

    /// Attach a structured field to the most recently recorded event
    /// (e.g. the node a span ran on, or the bytes it transferred).
    /// No-op when nothing has been recorded yet.
    pub fn with_field(
        &mut self,
        key: &'static str,
        value: impl Into<crate::trace::FieldValue>,
    ) -> &mut Self {
        if let Some(last) = self.events.last_mut() {
            last.fields.push((key, value.into()));
        }
        self
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the recorder, returning its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_spans_accumulate() {
        let mut r = SpanRecorder::new("test");
        r.record("bios", 30.0)
            .record("pxe", 10.0)
            .record("install", 600.0);
        assert_eq!(r.events()[2].t, SimTime::from_secs(40));
        assert_eq!(r.cursor(), SimTime::from_secs(640));
    }

    #[test]
    fn parallel_spans_share_start() {
        let mut r = SpanRecorder::new("test");
        r.record("frontend install", 1800.0);
        r.record("compute-0-0 install", 600.0);
        r.record_parallel("compute-0-1 install", 700.0);
        assert_eq!(r.events()[2].t, SimTime::from_secs(1800));
        assert_eq!(r.cursor(), SimTime::from_secs(2500));
    }

    #[test]
    fn parallel_on_empty_starts_at_zero() {
        let mut r = SpanRecorder::new("test");
        r.record_parallel("x", 5.0);
        assert_eq!(r.events()[0].t, SimTime::ZERO);
        assert_eq!(r.cursor(), SimTime::from_secs(5));
    }

    #[test]
    fn zero_backoff_leaves_no_span() {
        let mut r = SpanRecorder::new("test");
        r.record("install", 100.0);
        r.record_backoff("nothing", 0.0);
        r.record_backoff("negative", -3.0);
        assert_eq!(r.events().len(), 1);
        assert_eq!(backoff_time(r.events()), SimDuration::ZERO);
    }

    #[test]
    fn backoff_spans_are_labelled_and_sequential() {
        let mut r = SpanRecorder::new("test");
        r.record("frontend install", 600.0);
        r.record_backoff("mirror.fetch retry", 6.0);
        r.record_backoff("dhcp.discover retry", 4.0);
        assert_eq!(r.events()[1].label, "backoff: mirror.fetch retry");
        assert_eq!(r.events()[2].t, SimTime::from_secs(606));
        assert_eq!(r.cursor(), SimTime::from_secs(610));
    }

    #[test]
    fn backoff_spans_tracked_separately() {
        let mut r = SpanRecorder::new("test");
        r.record("frontend install", 600.0);
        r.record_backoff("mirror.fetch retry", 6.0);
        r.record("compute install", 300.0);
        r.record_backoff("dhcp.discover retry", 4.0);
        assert_eq!(backoff_time(r.events()), SimDuration::from_secs(10));
        assert_eq!(span_end(r.events()), SimTime::from_secs(910));
        assert!(render_gantt(r.events()).contains("backoff: mirror.fetch retry"));
    }

    #[test]
    fn zero_duration_spans_render_without_panic() {
        let mut r = SpanRecorder::new("test");
        r.record("instant", 0.0).record("also instant", 0.0);
        // the run ends at 0; the Gantt clamps its scale to avoid dividing by zero
        assert!(render_gantt(r.events()).contains("instant"));
        assert_eq!(span_end(r.events()), SimTime::ZERO);
        // zero-duration spans don't advance the cursor
        r.record("real", 10.0);
        assert_eq!(r.events()[2].t, SimTime::ZERO);
        assert_eq!(span_end(r.events()), SimTime::from_secs(10));
    }

    #[test]
    fn gantt_places_and_sizes_each_span() {
        let mut r = SpanRecorder::new("test");
        r.record("bios", 30.0).record("kickstart", 300.0);
        let bar = "#".repeat(45);
        assert_eq!(
            render_gantt(r.events()),
            format!("       0s ##### bios (30s)\n      30s      {bar} kickstart (300s)\n")
        );
    }

    #[test]
    fn empty_trace_ends_at_zero_and_renders_nothing() {
        assert_eq!(span_end(&[]), SimTime::ZERO);
        assert_eq!(backoff_time(&[]), SimDuration::ZERO);
        assert_eq!(render_gantt(&[]), "");
    }

    #[test]
    fn accepts_sim_durations_directly() {
        let mut r = SpanRecorder::new("test");
        r.record("bios", SimDuration::from_secs(30));
        r.record("pxe", SimDuration::from_millis(10_000));
        assert_eq!(span_end(r.events()), SimTime::from_secs(40));
    }

    #[test]
    fn span_readings_skip_marks_and_counters() {
        let events = vec![
            TraceEvent::span(0.0, "x", "work", 10.0),
            TraceEvent::mark(15.0, "x", "checkpoint"),
            TraceEvent::counter(20.0, "x", "queued", 3),
        ];
        assert_eq!(span_end(&events), SimTime::from_secs(10));
        assert_eq!(render_gantt(&events).lines().count(), 1);
    }

    #[test]
    fn trace_end_counts_a_mark_after_the_last_span() {
        let events = vec![
            TraceEvent::span(0.0, "x", "work", 10.0),
            TraceEvent::mark(15.0, "x", "checkpoint"),
            TraceEvent::span(2.0, "x", "short", 3.0),
        ];
        assert_eq!(span_end(&events), SimTime::from_secs(10));
        assert_eq!(trace_end(&events), SimTime::from_secs(15));
        assert_eq!(trace_end(&[]), SimTime::ZERO);
    }
}
