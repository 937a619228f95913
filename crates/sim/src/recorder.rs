//! Span recording: the one way spans on the shared timebase get
//! placed. `cluster::Timeline` is a read-only view over what a
//! recorder produced.

use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Label prefix marking a span as retry backoff, so traces can account
/// for time lost to the resilience layer separately from real work.
/// (`cluster::boot` re-exports it next to `Timeline`.)
pub const BACKOFF_PREFIX: &str = "backoff: ";

/// Records spans under three placement rules:
///
/// * [`record`](SpanRecorder::record) starts a span when all previous
///   work has finished (the max end over recorded spans);
/// * [`record_parallel`](SpanRecorder::record_parallel) starts a span
///   together with the previously recorded one;
/// * [`record_backoff`](SpanRecorder::record_backoff) is `record` with
///   the [`BACKOFF_PREFIX`] label, dropping zero durations so clean
///   runs leave no backoff spans behind.
///
/// `Timeline::from_spans` in `xcbc-cluster` turns the recorded events
/// into phases, one per span, at the start the recorder gave it.
#[derive(Debug)]
pub struct SpanRecorder {
    source: String,
    events: Vec<TraceEvent>,
}

impl SpanRecorder {
    /// A recorder whose spans carry `source` (e.g. `"rocks.install"`).
    pub fn new(source: impl Into<String>) -> SpanRecorder {
        SpanRecorder {
            source: source.into(),
            events: Vec::new(),
        }
    }

    /// The instant all recorded work has finished — where the next
    /// sequential span starts.
    pub fn cursor(&self) -> SimTime {
        self.events
            .iter()
            .map(TraceEvent::end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Record a span starting when all previous work has finished.
    pub fn record(&mut self, label: impl Into<String>, dur: impl Into<SimDuration>) -> &mut Self {
        let start = self.cursor();
        self.events
            .push(TraceEvent::span(start, self.source.clone(), label, dur));
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
            .push(TraceEvent::span(start, self.source.clone(), label, dur));
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
        key: impl Into<String>,
        value: impl Into<crate::trace::FieldValue>,
    ) -> &mut Self {
        if let Some(last) = self.events.last_mut() {
            last.fields.push((key.into(), value.into()));
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
}
