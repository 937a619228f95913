//! `xcbc-sim` — the unified simulation substrate for the XCBC/XNIT
//! reproduction.
//!
//! Before this crate, every layer kept a private notion of time: the
//! boot timeline's `f64` seconds in `xcbc-cluster`, the scheduler's
//! hand-rolled event heap in `xcbc-sched`, mirror latency/bandwidth
//! float math in `xcbc-yum`, and the install phase durations scattered
//! through `xcbc-rocks`. This crate gives them one substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond instants and
//!   durations, exact and totally ordered, with `From<f64>` (seconds)
//!   conversions that keep existing call sites terse;
//! * [`SimClock`] — the monotonic virtual clock an event loop drives;
//! * [`EventQueue`] — a binary-heap discrete-event queue with strict
//!   `(time, insertion-order)` determinism;
//! * [`TraceEvent`] — structured, timestamped spans, marks, and
//!   counters: producers build a `Vec<TraceEvent>`, consumers read a
//!   `&[TraceEvent]` ([`events_to_jsonl`], [`FlightRecorder`]);
//! * [`SpanRecorder`] — the one way spans get placed (sequential,
//!   parallel, backoff); [`span_end`], [`backoff_time`] and
//!   [`render_gantt`] read a run's length, its backoff share and its
//!   text Gantt straight off the recorded spans, and [`trace_end`]
//!   where a whole event log ends;
//! * [`MetricRegistry`] / [`LatencyHistogram`] / [`HistogramSink`] —
//!   the observability spine: per-source span latency histograms with
//!   fixed log-spaced buckets and a registry that gmetad, the scheduler
//!   metrics, and the depsolve cache all export into, rendered as
//!   byte-deterministic Prometheus exposition text;
//! * [`Fnv64`] — the 64-bit FNV-1a digest every layer's content
//!   identities and seeded draws use.
//!
//! Everything is deterministic by construction: no wall clock, no
//! hash-order iteration, FIFO tie-breaking at equal timestamps. Two
//! runs of the same scenario with the same fault seed serialize to
//! byte-identical JSONL.

#![deny(missing_docs)]

pub mod analyze;
mod clock;
mod fnv;
mod metrics;
pub mod pool;
mod queue;
mod recorder;
mod selfprof;
mod time;
mod trace;

pub use analyze::{
    analyze, Analysis, CriticalPath, Frame, Lane, PathSegment, ANALYZE_TRACE_SOURCE,
};
pub use clock::SimClock;
pub use fnv::Fnv64;
pub use metrics::{
    format_prom_f64, HistogramSink, LatencyHistogram, MetricRegistry, HISTOGRAM_BUCKETS_S,
};
pub use queue::{EventQueue, Scheduled};
pub use recorder::{backoff_time, render_gantt, span_end, trace_end, SpanRecorder, BACKOFF_PREFIX};
pub use selfprof::{
    self_profiler, SelfProfiler, SECTION_DEPSOLVE, SECTION_SCHED_RUN, SECTION_SVC_SERVE,
    SECTION_TRACE_ANALYZE, SECTION_TRACE_RENDER,
};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
pub use trace::{
    events_to_jsonl, FieldValue, FlightRecorder, TraceEvent, TraceKind, FLIGHT_RECORDER_CAPACITY,
};
