//! Structured trace events and the bus that distributes them.
//!
//! Every layer of the stack — scheduler, boot, Rocks install, mirror
//! fetches, the resilience machinery — reports what it did as
//! [`TraceEvent`]s on an [`EventBus`]. The bus keeps a canonical
//! in-order log and fans events out to pluggable [`TraceSink`]s: a
//! bounded ring buffer, a JSONL writer, an aggregate-metrics counter.
//! Because all timestamps are integer [`SimTime`] nanoseconds and the
//! log order is emission order, serializing a log is byte-deterministic
//! for a fixed scenario seed.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

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
    /// `"sched"`, `"yum.mirror"`, `"cluster.boot"`).
    pub source: String,
    /// Human-readable label (phase name, job name, mirror URL).
    pub label: String,
    /// Span, mark, or counter.
    pub kind: TraceKind,
    /// Extra key/value context, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// A span of `dur` starting at `t`.
    pub fn span(
        t: impl Into<SimTime>,
        source: impl Into<String>,
        label: impl Into<String>,
        dur: impl Into<SimDuration>,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source: source.into(),
            label: label.into(),
            kind: TraceKind::Span { dur: dur.into() },
            fields: Vec::new(),
        }
    }

    /// An instantaneous mark at `t`.
    pub fn mark(
        t: impl Into<SimTime>,
        source: impl Into<String>,
        label: impl Into<String>,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source: source.into(),
            label: label.into(),
            kind: TraceKind::Mark,
            fields: Vec::new(),
        }
    }

    /// A counter sample at `t`.
    pub fn counter(
        t: impl Into<SimTime>,
        source: impl Into<String>,
        label: impl Into<String>,
        value: u64,
    ) -> TraceEvent {
        TraceEvent {
            t: t.into(),
            source: source.into(),
            label: label.into(),
            kind: TraceKind::Counter { value },
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder style).
    pub fn with_field(
        mut self,
        key: impl Into<String>,
        value: impl Into<FieldValue>,
    ) -> TraceEvent {
        self.fields.push((key.into(), value.into()));
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
        push_json_str(&mut line, &self.source);
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

/// A destination for trace events.
pub trait TraceSink {
    /// Observe one event. Called in emission order.
    fn record(&mut self, event: &TraceEvent);

    /// Observe a contiguous batch of events, in emission order.
    ///
    /// The default forwards to [`record`](TraceSink::record) one event
    /// at a time, so every sink works unchanged; sinks with per-call
    /// overhead (a lock to take, a map entry to look up) override this
    /// to amortize it across the whole batch. Implementations must be
    /// observationally identical to the per-event loop.
    fn accept_batch(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.record(event);
        }
    }

    /// A short name for diagnostics.
    fn name(&self) -> &str;
}

/// Keeps only the most recent `capacity` events — the "flight
/// recorder" sink for long scenarios. Evictions are counted, never
/// silent: [`dropped`](RingBufferSink::dropped) says how many events
/// the ring let go.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    seen: u64,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (capacity 0 keeps none).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity,
            buf: VecDeque::new(),
            seen: 0,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// How many events are currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events the ring has observed in total.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// How many observed events were evicted (or refused outright by a
    /// zero-capacity ring). `seen - dropped == len`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }

    fn accept_batch(&mut self, events: &[TraceEvent]) {
        self.seen += events.len() as u64;
        if self.capacity == 0 {
            self.dropped += events.len() as u64;
            return;
        }
        // only the tail of the batch can survive; drop the rest without
        // ever cloning them through the ring
        let keep = events.len().min(self.capacity);
        let skipped = events.len() - keep;
        self.dropped += skipped as u64;
        let evict = (self.buf.len() + keep).saturating_sub(self.capacity);
        for _ in 0..evict {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.extend(events[skipped..].iter().cloned());
    }

    fn name(&self) -> &str {
        "ring"
    }
}

/// A bounded last-N-events recorder for post-mortems: wraps a
/// [`RingBufferSink`] and knows how to render its tail for crash and
/// abort reports, and how to surface its overflow counters through a
/// [`MetricRegistry`](crate::MetricRegistry) so truncation is visible
/// on the `xcbc mon` endpoint rather than silent.
///
/// Attach one to a bus (or replay a finished log through
/// [`from_events`](FlightRecorder::from_events)) and, when a run
/// faults or aborts, [`tail_jsonl`](FlightRecorder::tail_jsonl) /
/// [`render_tail`](FlightRecorder::render_tail) dump the last moments
/// before the failure.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: RingBufferSink,
}

/// Default number of events a [`FlightRecorder`] retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 32;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: RingBufferSink::new(capacity),
        }
    }

    /// Replay a finished log through a fresh recorder — the cheap way
    /// to get "the last N events before the end" from any trace.
    pub fn from_events(capacity: usize, events: &[TraceEvent]) -> FlightRecorder {
        let mut fr = FlightRecorder::new(capacity);
        fr.accept_batch(events);
        fr
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.events()
    }

    /// How many events the recorder has observed in total.
    pub fn seen(&self) -> u64 {
        self.ring.seen()
    }

    /// How many observed events fell out of the ring.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// How many events are currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the tail empty?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained tail as byte-deterministic JSONL.
    pub fn tail_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.ring.events() {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// A human-readable tail block for post-mortem and abort reports:
    /// a header stating retention/truncation, then one indented JSONL
    /// line per retained event.
    pub fn render_tail(&self) -> String {
        let mut out = format!(
            "flight recorder     : last {} of {} event(s) ({} dropped)\n",
            self.ring.len(),
            self.ring.seen(),
            self.ring.dropped()
        );
        for ev in self.ring.events() {
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
            self.ring.seen(),
        );
        registry.set_counter(
            "xcbc_flightrecorder_dropped_total",
            "Events evicted from the flight-recorder ring",
            &[],
            self.ring.dropped(),
        );
        registry.set_gauge(
            "xcbc_flightrecorder_retained",
            "Events currently retained in the flight-recorder ring",
            &[],
            self.ring.len() as f64,
        );
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.ring.record(event);
    }

    fn accept_batch(&mut self, events: &[TraceEvent]) {
        self.ring.accept_batch(events);
    }

    fn name(&self) -> &str {
        "flight"
    }
}

/// Accumulates the byte-deterministic JSONL rendering of every event.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty JSONL accumulator.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// The JSONL text so far, one event per line.
    pub fn contents(&self) -> &str {
        &self.out
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        self.out.push_str(&event.to_jsonl());
        self.out.push('\n');
    }

    fn name(&self) -> &str {
        "jsonl"
    }
}

/// Aggregate per-source metrics: event counts and total span time.
#[derive(Debug, Default)]
pub struct MetricsSink {
    counts: BTreeMap<String, u64>,
    span_time: BTreeMap<String, SimDuration>,
}

impl MetricsSink {
    /// An empty aggregator.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// How many events `source` emitted.
    pub fn count(&self, source: &str) -> u64 {
        self.counts.get(source).copied().unwrap_or(0)
    }

    /// Total span time attributed to `source`.
    pub fn span_time(&self, source: &str) -> SimDuration {
        self.span_time
            .get(source)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// `(source, count, span_time)` rows in source order.
    pub fn rows(&self) -> Vec<(String, u64, SimDuration)> {
        self.counts
            .iter()
            .map(|(src, &n)| (src.clone(), n, self.span_time(src)))
            .collect()
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: &TraceEvent) {
        *self.counts.entry(event.source.clone()).or_insert(0) += 1;
        if let TraceKind::Span { dur } = event.kind {
            *self
                .span_time
                .entry(event.source.clone())
                .or_insert(SimDuration::ZERO) += dur;
        }
    }

    fn name(&self) -> &str {
        "metrics"
    }
}

/// A `Send + Sync` handle around any [`TraceSink`], so concurrent
/// producers (e.g. the worker threads of a fleet deploy) can record
/// into one shared sink.
///
/// `SharedSink` clones cheaply — every clone locks the same underlying
/// sink — and itself implements [`TraceSink`], so a handle can be
/// attached to an `EventBus` while other handles live on other threads.
/// When the producers are done, [`SharedSink::into_inner`] recovers the
/// wrapped sink for inspection.
///
/// Per-event locking serializes writers; with deterministic producers
/// that each buffer locally and merge in a fixed order (the fleet
/// pattern), contention stays off the hot path.
#[derive(Debug)]
pub struct SharedSink<S: TraceSink> {
    name: String,
    inner: std::sync::Arc<std::sync::Mutex<S>>,
}

impl<S: TraceSink> SharedSink<S> {
    /// Wrap `sink` for cross-thread sharing. The diagnostic name is
    /// captured now (the wrapped sink is behind a lock afterwards).
    pub fn new(sink: S) -> SharedSink<S> {
        let name = format!("shared:{}", sink.name());
        SharedSink {
            name,
            inner: std::sync::Arc::new(std::sync::Mutex::new(sink)),
        }
    }

    /// Run `f` against the wrapped sink under the lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// Recover the wrapped sink. Panics if other handles are still
    /// alive — call after every producer thread has finished.
    pub fn into_inner(self) -> S {
        std::sync::Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("SharedSink::into_inner with live handles"))
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    }
}

impl<S: TraceSink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink {
            name: self.name.clone(),
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn record(&mut self, event: &TraceEvent) {
        self.with(|sink| sink.record(event));
    }

    fn accept_batch(&mut self, events: &[TraceEvent]) {
        // one lock acquisition for the whole batch
        self.with(|sink| sink.accept_batch(events));
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The hub: layers emit events here; the bus keeps the canonical log
/// and forwards every event to the attached sinks in order.
#[derive(Default)]
pub struct EventBus {
    log: Vec<TraceEvent>,
    sinks: Vec<Box<dyn TraceSink>>,
}

impl EventBus {
    /// A bus with no sinks attached (the in-memory log always records).
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Attach a sink; it observes every event emitted from now on.
    pub fn attach(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Emit one event: append to the log, fan out to sinks.
    pub fn emit(&mut self, event: TraceEvent) {
        for sink in &mut self.sinks {
            sink.record(&event);
        }
        self.log.push(event);
    }

    /// Convenience: emit a span.
    pub fn span(
        &mut self,
        t: impl Into<SimTime>,
        source: &str,
        label: impl Into<String>,
        dur: impl Into<SimDuration>,
    ) {
        self.emit(TraceEvent::span(t, source, label, dur));
    }

    /// Convenience: emit a mark.
    pub fn mark(&mut self, t: impl Into<SimTime>, source: &str, label: impl Into<String>) {
        self.emit(TraceEvent::mark(t, source, label));
    }

    /// Convenience: emit a counter sample.
    pub fn counter(
        &mut self,
        t: impl Into<SimTime>,
        source: &str,
        label: impl Into<String>,
        value: u64,
    ) {
        self.emit(TraceEvent::counter(t, source, label, value));
    }

    /// The canonical log, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.log
    }

    /// Consume the bus, returning the log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.log
    }

    /// The whole log as byte-deterministic JSONL.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.log)
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Has nothing been emitted yet?
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("events", &self.log.len())
            .field(
                "sinks",
                &self.sinks.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_sink_is_send_sync_and_aggregates() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSink<MetricsSink>>();

        let shared = SharedSink::new(MetricsSink::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let mut handle = shared.clone();
                scope.spawn(move || {
                    handle.record(&TraceEvent::mark(i as f64, "fleet.site", "deployed"));
                });
            }
        });
        assert_eq!(shared.with(|m| m.count("fleet.site")), 4);
        let recovered = shared.into_inner();
        assert_eq!(recovered.count("fleet.site"), 4);
    }

    #[test]
    fn shared_sink_names_after_wrapped() {
        let shared = SharedSink::new(JsonlSink::new());
        assert_eq!(shared.name(), "shared:jsonl");
    }

    #[test]
    fn shared_sink_attaches_to_bus_while_handle_observes() {
        let shared = SharedSink::new(RingBufferSink::new(8));
        let observer = shared.clone();
        let mut bus = EventBus::new();
        bus.attach(Box::new(shared));
        bus.mark(1.0, "test", "hello");
        assert_eq!(observer.with(|r| r.len()), 1);
    }

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
    fn bus_fans_out_to_sinks_and_keeps_log() {
        let mut bus = EventBus::new();
        bus.attach(Box::new(RingBufferSink::new(2)));
        bus.attach(Box::new(JsonlSink::new()));
        bus.span(0.0, "a", "one", 1.0);
        bus.span(1.0, "a", "two", 1.0);
        bus.mark(2.0, "b", "three");
        assert_eq!(bus.len(), 3);
        assert_eq!(bus.to_jsonl().lines().count(), 3);
        let dbg = format!("{bus:?}");
        assert!(dbg.contains("ring") && dbg.contains("jsonl"));
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let mut ring = RingBufferSink::new(2);
        for i in 0..5u64 {
            ring.record(&TraceEvent::counter(i as f64, "c", "tick", i));
        }
        let kept: Vec<_> = ring
            .events()
            .map(|e| match e.kind {
                TraceKind::Counter { value } => value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, [3, 4]);
    }

    #[test]
    fn ring_counts_drops_and_batches_match_loop() {
        let events: Vec<TraceEvent> = (0..10u64)
            .map(|i| TraceEvent::counter(i as f64, "c", "tick", i))
            .collect();

        let mut looped = RingBufferSink::new(3);
        for e in &events {
            looped.record(e);
        }
        let mut batched = RingBufferSink::new(3);
        batched.accept_batch(&events);

        assert_eq!(looped.seen(), 10);
        assert_eq!(looped.dropped(), 7);
        assert_eq!(batched.seen(), looped.seen());
        assert_eq!(batched.dropped(), looped.dropped());
        let a: Vec<_> = looped.events().cloned().collect();
        let b: Vec<_> = batched.events().cloned().collect();
        assert_eq!(a, b);

        let mut zero = RingBufferSink::new(0);
        zero.accept_batch(&events);
        assert_eq!(zero.dropped(), 10);
        assert!(zero.is_empty());
    }

    #[test]
    fn ring_batch_partial_eviction() {
        let events: Vec<TraceEvent> = (0..3u64)
            .map(|i| TraceEvent::counter(i as f64, "c", "tick", i))
            .collect();
        let mut ring = RingBufferSink::new(4);
        ring.accept_batch(&events); // 3 of 4 filled
        ring.accept_batch(&events[..2]); // evicts 1
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.dropped(), 1);
        let first = ring.events().next().unwrap();
        assert!(matches!(first.kind, TraceKind::Counter { value: 1 }));
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
        assert_eq!(fr.tail_jsonl().lines().count(), 4);

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

    #[test]
    fn metrics_aggregate_per_source() {
        let mut m = MetricsSink::new();
        m.record(&TraceEvent::span(0.0, "rocks.install", "a", 10.0));
        m.record(&TraceEvent::span(10.0, "rocks.install", "b", 5.0));
        m.record(&TraceEvent::mark(0.0, "sched", "submit"));
        assert_eq!(m.count("rocks.install"), 2);
        assert_eq!(m.span_time("rocks.install"), SimDuration::from_secs(15));
        assert_eq!(m.count("sched"), 1);
        assert_eq!(m.span_time("sched"), SimDuration::ZERO);
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
