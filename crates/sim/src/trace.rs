//! Structured trace events.
//!
//! Every layer of the stack — scheduler, boot, Rocks install, mirror
//! fetches, the resilience machinery — reports what it did as a
//! `Vec<TraceEvent>` in emission order, and every consumer (the gmond
//! array, span histograms, the [`FlightRecorder`], JSONL rendering)
//! reads the finished log as a `&[TraceEvent]` slice.
//! Because all timestamps are integer [`SimTime`] nanoseconds and the
//! log order is emission order, serializing a log is byte-deterministic
//! for a fixed scenario seed.

use crate::time::{SimDuration, SimTime};

/// A typed field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A floating-point field (rates, fractions).
    F64(f64),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> FieldValue {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

/// What kind of occurrence a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// Work that occupied `[t, t + dur]` on the shared timeline.
    Span {
        /// How long the work ran.
        dur: SimDuration,
    },
    /// An instantaneous occurrence (a submit, a fault firing).
    Mark,
    /// A named quantity sampled at `t`.
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One structured, timestamped record on the unified timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event occurred (span start for [`TraceKind::Span`]).
    pub t: SimTime,
    /// Which layer emitted it, dotted-path style (`"rocks.install"`,
    /// `"sched"`, `"yum.mirror"`, `"cluster.boot"`) — one of a fixed set
    /// of layer names, so it is never allocated per event.
    pub source: &'static str,
    /// Human-readable label (phase name, job name, mirror URL).
    pub label: String,
    /// Span, mark, or counter.
    pub kind: TraceKind,
    /// Extra key/value context, in emission order. Keys are literals;
    /// only the values vary.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// A span of `dur` starting at `t`.
    pub fn span(
        t: impl Into<SimTime>,
        source: &'static str,
        label: impl Into<String>,
        dur: impl Into<SimDuration>,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source,
            label: label.into(),
            kind: TraceKind::Span { dur: dur.into() },
            fields: Vec::new(),
        }
    }

    /// An instantaneous mark at `t`.
    pub fn mark(
        t: impl Into<SimTime>,
        source: &'static str,
        label: impl Into<String>,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source,
            label: label.into(),
            kind: TraceKind::Mark,
            fields: Vec::new(),
        }
    }

    /// A counter sample at `t`.
    pub fn counter(
        t: impl Into<SimTime>,
        source: &'static str,
        label: impl Into<String>,
        value: u64,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source,
            label: label.into(),
            kind: TraceKind::Counter { value },
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder style).
    pub fn with_field(mut self, key: &'static str, value: impl Into<FieldValue>) -> TraceEvent {
        self.fields.push((key, value.into()));
        self
    }

    /// The instant the event ends: `t + dur` for spans, `t` otherwise.
    pub fn end(&self) -> SimTime {
        match self.kind {
            TraceKind::Span { dur } => self.t + dur,
            _ => self.t,
        }
    }

    /// The span duration, or zero for marks and counters.
    pub fn duration(&self) -> SimDuration {
        match self.kind {
            TraceKind::Span { dur } => dur,
            _ => SimDuration::ZERO,
        }
    }

    /// The same event translated `offset` later on the timeline —
    /// used to compose independently-recorded scenario logs onto one
    /// shared timebase.
    pub fn shifted(&self, offset: SimDuration) -> TraceEvent {
        let mut ev = self.clone();
        ev.t += offset;
        ev
    }

    /// One JSONL line: fixed key order, integer-nanosecond timestamps,
    /// no floating-point formatting in the hot keys — byte-stable for
    /// identical inputs.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::with_capacity(96);
        line.push_str("{\"t_ns\":");
        line.push_str(&self.t.as_nanos().to_string());
        line.push_str(",\"source\":");
        push_json_str(&mut line, self.source);
        line.push_str(",\"kind\":");
        match &self.kind {
            TraceKind::Span { dur } => {
                line.push_str("\"span\",\"dur_ns\":");
                line.push_str(&dur.as_nanos().to_string());
            }
            TraceKind::Mark => line.push_str("\"mark\""),
            TraceKind::Counter { value } => {
                line.push_str("\"counter\",\"value\":");
                line.push_str(&value.to_string());
            }
        }
        line.push_str(",\"label\":");
        push_json_str(&mut line, &self.label);
        if !self.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_json_str(&mut line, k);
                line.push(':');
                match v {
                    FieldValue::Str(s) => push_json_str(&mut line, s),
                    FieldValue::U64(n) => line.push_str(&n.to_string()),
                    FieldValue::F64(x) => line.push_str(&format_json_f64(*x)),
                }
            }
            line.push('}');
        }
        line.push('}');
        line
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn format_json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // bare integers like `3` are valid JSON numbers, but keep the
        // fractional marker so readers can't confuse them with counters
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in
        "null".to_string()
    }
}

/// Render a whole event log as JSONL, one event per line. The whole
/// render is timed into the engine self-profiler (section
/// [`SECTION_TRACE_RENDER`](crate::SECTION_TRACE_RENDER)) — one timer
/// per log, not per event.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    crate::self_profiler().time(crate::SECTION_TRACE_RENDER, || {
        let mut out = String::new();
        for ev in events {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    })
}

/// A bounded last-N-events recorder for post-mortems: the tail of a
/// finished log, rendered for crash and abort reports, with its
/// truncation counters surfaced through a
/// [`MetricRegistry`](crate::MetricRegistry) so truncation is visible
/// on the `xcbc mon` endpoint rather than silent.
#[derive(Debug)]
pub struct FlightRecorder {
    tail: Vec<TraceEvent>,
    seen: u64,
}

/// Default number of events a [`FlightRecorder`] retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 32;

impl FlightRecorder {
    /// Keep the last `capacity` events of `events` (capacity 0 keeps
    /// none) — "the last N events before the end" of any trace.
    pub fn from_events(capacity: usize, events: &[TraceEvent]) -> FlightRecorder {
        let skipped = events.len().saturating_sub(capacity);
        FlightRecorder {
            tail: events[skipped..].to_vec(),
            seen: events.len() as u64,
        }
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> &[TraceEvent] {
        &self.tail
    }

    /// How many events the recorder was given.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// How many of them fell outside the retained tail:
    /// `seen - dropped == len`.
    pub fn dropped(&self) -> u64 {
        self.seen - self.tail.len() as u64
    }

    /// How many events are retained.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Is the tail empty?
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// A human-readable tail block for post-mortem and abort reports:
    /// a header stating retention/truncation, then one indented JSONL
    /// line per retained event.
    pub fn render_tail(&self) -> String {
        let mut out = format!(
            "flight recorder     : last {} of {} event(s) ({} dropped)\n",
            self.len(),
            self.seen(),
            self.dropped()
        );
        for ev in &self.tail {
            out.push_str("  | ");
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Surface the overflow counters as the `xcbc_flightrecorder_*`
    /// families.
    pub fn register_into(&self, registry: &mut crate::MetricRegistry) {
        registry.set_counter(
            "xcbc_flightrecorder_seen_total",
            "Events the flight recorder observed",
            &[],
            self.seen(),
        );
        registry.set_counter(
            "xcbc_flightrecorder_dropped_total",
            "Events older than the flight recorder's retained tail",
            &[],
            self.dropped(),
        );
        registry.set_gauge(
            "xcbc_flightrecorder_retained",
            "Events the flight recorder retained: the last N of its trace",
            &[],
            self.len() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let ev = TraceEvent::span(1.5, "rocks.install", "frontend \"screens\"", 600.0)
            .with_field("node", "compute-0-0")
            .with_field("attempts", 3u64)
            .with_field("rate", 0.25);
        let line = ev.to_jsonl();
        assert_eq!(
            line,
            "{\"t_ns\":1500000000,\"source\":\"rocks.install\",\"kind\":\"span\",\"dur_ns\":600000000000,\"label\":\"frontend \\\"screens\\\"\",\"fields\":{\"node\":\"compute-0-0\",\"attempts\":3,\"rate\":0.25}}"
        );
        // rendering twice is byte-identical
        assert_eq!(line, ev.to_jsonl());
    }

    #[test]
    fn mark_and_counter_render() {
        let m = TraceEvent::mark(0.0, "sched", "submit job-1");
        assert_eq!(
            m.to_jsonl(),
            "{\"t_ns\":0,\"source\":\"sched\",\"kind\":\"mark\",\"label\":\"submit job-1\"}"
        );
        let c = TraceEvent::counter(2.0, "sched", "queued", 7);
        assert!(c.to_jsonl().contains("\"kind\":\"counter\",\"value\":7"));
    }

    #[test]
    fn whole_f64_fields_keep_fraction_marker() {
        let ev = TraceEvent::mark(0.0, "x", "y").with_field("rate", 3.0);
        assert!(ev.to_jsonl().contains("\"rate\":3.0"));
    }

    #[test]
    fn flight_recorder_tail_and_registry() {
        let events: Vec<TraceEvent> = (0..6u64)
            .map(|i| TraceEvent::mark(i as f64, "x", format!("m{i}")))
            .collect();
        let fr = FlightRecorder::from_events(4, &events);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.seen(), 6);
        assert_eq!(fr.dropped(), 2);
        let tail = fr.render_tail();
        assert!(tail.starts_with("flight recorder     : last 4 of 6 event(s) (2 dropped)"));
        assert!(tail.contains("m5"));
        assert!(!tail.contains("m1"));

        let mut reg = crate::MetricRegistry::new();
        fr.register_into(&mut reg);
        assert_eq!(
            reg.counter_value("xcbc_flightrecorder_dropped_total", &[]),
            Some(2)
        );
        assert_eq!(
            reg.counter_value("xcbc_flightrecorder_seen_total", &[]),
            Some(6)
        );
        assert_eq!(
            reg.gauge_value("xcbc_flightrecorder_retained", &[]),
            Some(4.0)
        );
    }

    fn ticks(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::counter(i as f64, "c", "tick", i))
            .collect()
    }

    fn values(fr: &FlightRecorder) -> Vec<u64> {
        fr.tail()
            .iter()
            .map(|e| match e.kind {
                TraceKind::Counter { value } => value,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn flight_recorder_at_capacity_zero_keeps_nothing() {
        let fr = FlightRecorder::from_events(0, &ticks(10));
        assert!(fr.is_empty());
        assert_eq!((fr.seen(), fr.dropped()), (10, 10));
    }

    #[test]
    fn flight_recorder_below_capacity_keeps_everything() {
        let fr = FlightRecorder::from_events(8, &ticks(3));
        assert_eq!(values(&fr), [0, 1, 2]);
        assert_eq!((fr.seen(), fr.dropped()), (3, 0));
        let empty = FlightRecorder::from_events(8, &[]);
        assert!(empty.is_empty());
        assert_eq!((empty.seen(), empty.dropped()), (0, 0));
    }

    #[test]
    fn flight_recorder_above_capacity_keeps_the_most_recent() {
        let fr = FlightRecorder::from_events(3, &ticks(10));
        assert_eq!(values(&fr), [7, 8, 9]);
        assert_eq!((fr.seen(), fr.dropped()), (10, 7));
        let exact = FlightRecorder::from_events(3, &ticks(3));
        assert_eq!(values(&exact), [0, 1, 2]);
        assert_eq!(exact.dropped(), 0);
    }

    #[test]
    fn shifted_translates_start_only() {
        let ev = TraceEvent::span(2.0, "x", "y", 3.0);
        let s = ev.shifted(SimDuration::from_secs(10));
        assert_eq!(s.t, SimTime::from_secs(12));
        assert_eq!(s.duration(), SimDuration::from_secs(3));
        assert_eq!(s.end(), SimTime::from_secs(15));
    }
}
