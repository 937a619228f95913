//! Causal trace analysis: critical paths, span trees, and flame views
//! over a recorded [`TraceEvent`] log.
//!
//! Every run in the workspace — a fleet deploy, a rolling campaign, an
//! elastic scale cycle, a scheduler soak — leaves behind a
//! byte-deterministic trace. This module answers the operator's two
//! questions about any of them:
//!
//! 1. **"What bounded the makespan?"** — [`analyze`] reconstructs the
//!    *critical path*: the chain of spans that ends at the last span
//!    end, where each link is the latest-finishing span that completed
//!    before the next one started. Gaps between links are attributed as
//!    *blocked* time, so the chain's `Σ (blocked + busy)` telescopes to
//!    exactly the span makespan — an identity the `xcbc-check` suite
//!    enforces on every soak seed.
//! 2. **"Where did the time go?"** — spans are grouped into *lanes*
//!    keyed by `(source, node)` and nested into trees by containment,
//!    rendered as an ASCII flame view ([`Analysis::flame`]), as
//!    folded-stack lines for standard flamegraph tooling
//!    ([`Analysis::folded`]), and as a top-self-time table
//!    ([`Analysis::top`]).
//!
//! Reconstruction rules (also documented in `DESIGN.md`):
//!
//! * Only `Span` events participate; marks and counters are ignored
//!   except for the event count.
//! * A span's lane is `(source, node)` where `node` is the span's
//!   `"node"` string field, or `"host:x"`-prefixed label, or `""`.
//! * Within a lane, spans sort by `(start asc, end desc, emission
//!   index asc)` and nest by containment against a stack: a span is a
//!   child of the top of the stack iff it starts and ends within it.
//! * Critical-path links only consider spans with `dur > 0`; the
//!   predecessor of a span starting at `t` is the span with the
//!   maximum `(end, start, emission index)` among those with
//!   `end ≤ t`. Strictly decreasing ends guarantee termination.
//!
//! Everything here is a pure function of the event slice — analysing a
//! trace twice, or on a different thread count, is byte-identical.

use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Width of the proportional bars in the flame view, in characters.
const FLAME_BAR_WIDTH: u64 = 24;

/// Trace source used for marks emitted by the analyser itself (so
/// telemetry can observe analysis summaries like any other layer).
pub const ANALYZE_TRACE_SOURCE: &str = "trace.analyze";

/// One link of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Index of the span in the analysed event slice.
    pub event_index: usize,
    /// Emitting source (`"rocks.install"`, `"sched"`, …).
    pub source: &'static str,
    /// Node the span ran on, or `""` when the span names none.
    pub node: String,
    /// The span's label.
    pub label: String,
    /// When the span started.
    pub start: SimTime,
    /// How long the span ran.
    pub dur: SimDuration,
    /// Idle gap between the previous link's end (or `t=0` for the
    /// first link) and this span's start.
    pub blocked: SimDuration,
}

/// The chain of spans bounding a run's span makespan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Links in time order, earliest first.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Total busy time along the path.
    pub fn busy(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.dur)
    }

    /// Total blocked time along the path.
    pub fn blocked(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.blocked)
    }

    /// `busy + blocked` — telescopes to exactly the span makespan.
    pub fn total(&self) -> SimDuration {
        self.busy() + self.blocked()
    }
}

/// One frame of a lane's span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Index of the span in the analysed event slice.
    pub event_index: usize,
    /// The span's label.
    pub label: String,
    /// When the span started.
    pub start: SimTime,
    /// How long the span ran.
    pub dur: SimDuration,
    /// Nesting depth within the lane (roots are depth 0).
    pub depth: usize,
    /// `dur` minus the summed durations of direct children, clamped
    /// at zero (overlapping children can oversubscribe a parent).
    pub self_time: SimDuration,
}

/// All spans of one `(source, node)` pair, nested by containment.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Emitting source.
    pub source: &'static str,
    /// Node, or `""` when the lane's spans name none.
    pub node: String,
    /// Frames in `(start asc, end desc, emission index asc)` order —
    /// i.e. depth-first over the containment forest.
    pub frames: Vec<Frame>,
    /// Total busy time of root frames (nested time counted once).
    pub busy: SimDuration,
}

impl Lane {
    /// `source (node)` or just `source` for node-less lanes.
    pub fn key(&self) -> Cow<'static, str> {
        lane_name(self.source, &self.node, " (", ")")
    }
}

/// A lane's name: `source` alone, or `source{open}node{close}`.
fn lane_name(source: &'static str, node: &str, open: &str, close: &str) -> Cow<'static, str> {
    if node.is_empty() {
        Cow::Borrowed(source)
    } else {
        Cow::Owned(format!("{source}{open}{node}{close}"))
    }
}

/// The full analysis of one trace: critical path plus per-lane trees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// How many events the trace held.
    pub events: usize,
    /// How many of them were spans.
    pub spans: usize,
    /// Last span end — the span makespan the critical path telescopes
    /// to. Zero for traces with no spans.
    pub makespan: SimDuration,
    /// Last end over *all* events (a trailing mark can outlive the
    /// last span).
    pub trace_end: SimTime,
    /// The critical path (empty for traces with no positive spans).
    pub path: CriticalPath,
    /// Lanes in `(source, node)` order.
    pub lanes: Vec<Lane>,
}

fn span_node(ev: &TraceEvent) -> String {
    for (k, v) in &ev.fields {
        if *k == "node" {
            if let crate::trace::FieldValue::Str(s) = v {
                return s.clone();
            }
        }
    }
    if let Some(rest) = ev.label.strip_prefix("host:") {
        return rest.split_whitespace().next().unwrap_or("").to_string();
    }
    String::new()
}

/// Format a duration as seconds with millisecond precision —
/// deterministic (integer-ns ÷ 1e9 through one IEEE division).
pub fn fmt_secs(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Analyse a recorded trace. Pure and deterministic: same events in,
/// byte-identical [`Analysis`] out, at any thread count. The pass
/// itself is timed into the engine self-profiler
/// (section [`SECTION_TRACE_ANALYZE`](crate::SECTION_TRACE_ANALYZE)).
pub fn analyze(events: &[TraceEvent]) -> Analysis {
    crate::self_profiler().time(crate::SECTION_TRACE_ANALYZE, || {
        analyze_uninstrumented(events)
    })
}

fn analyze_uninstrumented(events: &[TraceEvent]) -> Analysis {
    // indices of span events, in emission order
    let span_idx: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, TraceKind::Span { .. }))
        .map(|(i, _)| i)
        .collect();

    let makespan = crate::span_end(events);

    Analysis {
        events: events.len(),
        spans: span_idx.len(),
        makespan: makespan.since(SimTime::ZERO),
        trace_end: crate::trace_end(events),
        path: critical_path(events, &span_idx),
        lanes: build_lanes(events, &span_idx),
    }
}

/// Pick, among positive-duration spans whose end is ≤ `limit`, the one
/// maximising `(end, start, emission index)`.
fn best_pred(events: &[TraceEvent], span_idx: &[usize], limit: SimTime) -> Option<usize> {
    let mut best: Option<usize> = None;
    for &i in span_idx {
        let ev = &events[i];
        if ev.duration() == SimDuration::ZERO || ev.end() > limit {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                let bv = &events[b];
                (ev.end(), ev.t, i) > (bv.end(), bv.t, b)
            }
        };
        if better {
            best = Some(i);
        }
    }
    best
}

fn critical_path(events: &[TraceEvent], span_idx: &[usize]) -> CriticalPath {
    // terminal link: the latest-ending positive span
    let Some(mut cur) = best_pred(events, span_idx, SimTime::from_nanos(u64::MAX)) else {
        return CriticalPath::default();
    };
    let mut rev: Vec<usize> = vec![cur];
    // each predecessor ends ≤ cur.t < cur.end, so ends strictly
    // decrease and the walk terminates
    while let Some(pred) = best_pred(events, span_idx, events[cur].t) {
        rev.push(pred);
        cur = pred;
    }
    rev.reverse();
    let mut segments = Vec::with_capacity(rev.len());
    let mut prev_end = SimTime::ZERO;
    for i in rev {
        let ev = &events[i];
        segments.push(PathSegment {
            event_index: i,
            source: ev.source,
            node: span_node(ev),
            label: ev.label.clone(),
            start: ev.t,
            dur: ev.duration(),
            blocked: ev.t.since(prev_end),
        });
        prev_end = ev.end();
    }
    CriticalPath { segments }
}

fn build_lanes(events: &[TraceEvent], span_idx: &[usize]) -> Vec<Lane> {
    // group span indices by (source, node)
    let mut by_lane: std::collections::BTreeMap<(&'static str, String), Vec<usize>> =
        std::collections::BTreeMap::new();
    for &i in span_idx {
        let ev = &events[i];
        by_lane
            .entry((ev.source, span_node(ev)))
            .or_default()
            .push(i);
    }
    let mut lanes = Vec::with_capacity(by_lane.len());
    for ((source, node), mut idxs) in by_lane {
        idxs.sort_by_key(|&i| {
            let ev = &events[i];
            (ev.t, std::cmp::Reverse(ev.end()), i)
        });
        // containment nesting against a stack of (end, frame slot)
        let mut frames: Vec<Frame> = Vec::with_capacity(idxs.len());
        let mut stack: Vec<usize> = Vec::new(); // indices into `frames`
        let mut busy = SimDuration::ZERO;
        for i in idxs {
            let ev = &events[i];
            while let Some(&top) = stack.last() {
                let top_start = frames[top].start;
                let top_end = frames[top].start + frames[top].dur;
                if ev.t >= top_start && ev.end() <= top_end {
                    break;
                }
                stack.pop();
            }
            let depth = stack.len();
            if let Some(&parent) = stack.last() {
                frames[parent].self_time = frames[parent].self_time.saturating_sub(ev.duration());
            } else {
                busy += ev.duration();
            }
            frames.push(Frame {
                event_index: i,
                label: ev.label.clone(),
                start: ev.t,
                dur: ev.duration(),
                depth,
                self_time: ev.duration(),
            });
            stack.push(frames.len() - 1);
        }
        lanes.push(Lane {
            source,
            node,
            frames,
            busy,
        });
    }
    lanes
}

impl Analysis {
    /// The critical-path report: one row per link plus the telescoped
    /// total, byte-deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace analysis: {} events, {} spans, makespan {}s",
            self.events,
            self.spans,
            fmt_secs(self.makespan)
        );
        if self.path.segments.is_empty() {
            let _ = writeln!(out, "critical path: (no spans)");
            return out;
        }
        let _ = writeln!(
            out,
            "critical path ({} segments, busy {}s + blocked {}s):",
            self.path.segments.len(),
            fmt_secs(self.path.busy()),
            fmt_secs(self.path.blocked())
        );
        for seg in &self.path.segments {
            let lane = lane_name(seg.source, &seg.node, " (", ")");
            let _ = writeln!(
                out,
                "  t={:>10}s +{:>8}s blocked  {:<28} {:<36} {:>10}s",
                fmt_secs(seg.start.since(SimTime::ZERO)),
                fmt_secs(seg.blocked),
                lane,
                seg.label,
                fmt_secs(seg.dur)
            );
        }
        let _ = writeln!(
            out,
            "  total {}s = makespan {}s",
            fmt_secs(self.path.total()),
            fmt_secs(self.makespan)
        );
        out
    }

    /// The ASCII flame view: one block per lane, frames indented by
    /// depth with bars proportional to duration over the lane's busy
    /// window. Byte-deterministic (integer bar arithmetic).
    pub fn flame(&self) -> String {
        let mut out = String::new();
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "-- {} busy {}s, {} span(s) --",
                lane.key(),
                fmt_secs(lane.busy),
                lane.frames.len()
            );
            let window = lane.busy.as_nanos().max(1);
            for f in &lane.frames {
                let filled = ((f.dur.as_nanos().saturating_mul(FLAME_BAR_WIDTH)) / window)
                    .min(FLAME_BAR_WIDTH);
                let mut bar = String::with_capacity(FLAME_BAR_WIDTH as usize);
                for i in 0..FLAME_BAR_WIDTH {
                    bar.push(if i < filled { '#' } else { ' ' });
                }
                let indent = "  ".repeat(f.depth);
                let name = format!("{indent}{}", f.label);
                let _ = writeln!(
                    out,
                    "  {name:<40} |{bar}| {:>10}s (self {}s)",
                    fmt_secs(f.dur),
                    fmt_secs(f.self_time)
                );
            }
        }
        out
    }

    /// Folded-stack lines (`lane;frame;…;frame <self-µs>`), sorted —
    /// directly consumable by standard flamegraph tooling.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for lane in &self.lanes {
            let lane_key = lane_name(lane.source, &lane.node, "/", "");
            // running ancestor chain, rebuilt from depths
            let mut chain: Vec<String> = Vec::new();
            for f in &lane.frames {
                chain.truncate(f.depth);
                chain.push(f.label.replace([';', ' '], "_"));
                let micros = f.self_time.as_nanos() / 1_000;
                if micros > 0 {
                    lines.push(format!("{lane_key};{} {micros}", chain.join(";")));
                }
            }
        }
        lines.sort();
        let mut out = String::new();
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The `n` frames with the largest self time, as a table. Ties
    /// break by lane key then label then start.
    pub fn top(&self, n: usize) -> String {
        let mut rows: Vec<(SimDuration, Cow<'static, str>, String, SimTime)> = Vec::new();
        for lane in &self.lanes {
            for f in &lane.frames {
                rows.push((f.self_time, lane.key(), f.label.clone(), f.start));
            }
        }
        rows.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
                .then_with(|| a.3.cmp(&b.3))
        });
        rows.truncate(n);
        let mut out = String::new();
        let _ = writeln!(out, "top {} frames by self time:", rows.len());
        for (self_time, lane, label, start) in &rows {
            let _ = writeln!(
                out,
                "  {:>10}s  {:<28} {:<36} t={}s",
                fmt_secs(*self_time),
                lane,
                label,
                fmt_secs(start.since(SimTime::ZERO))
            );
        }
        out
    }

    /// Deterministic summary marks on the [`ANALYZE_TRACE_SOURCE`]
    /// source, so telemetry pipelines can observe analysis results as
    /// ordinary trace events.
    pub fn analysis_marks(&self) -> Vec<TraceEvent> {
        let mut marks = Vec::new();
        let t = SimTime::ZERO + self.makespan;
        let mut summary = TraceEvent::mark(t, ANALYZE_TRACE_SOURCE, "critical-path")
            .with_field("segments", self.path.segments.len())
            .with_field("busy_s", self.path.busy().as_secs_f64())
            .with_field("blocked_s", self.path.blocked().as_secs_f64())
            .with_field("makespan_s", self.makespan.as_secs_f64());
        if let Some(last) = self.path.segments.last() {
            summary = summary.with_field("terminal", last.label.clone());
            if !last.node.is_empty() {
                summary = summary.with_field("node", last.node.clone());
            }
        }
        marks.push(summary);
        for lane in &self.lanes {
            let mut m = TraceEvent::mark(t, ANALYZE_TRACE_SOURCE, format!("lane {}", lane.key()))
                .with_field("busy_s", lane.busy.as_secs_f64())
                .with_field("frames", lane.frames.len());
            if !lane.node.is_empty() {
                m = m.with_field("node", lane.node.clone());
            }
            marks.push(m);
        }
        marks
    }

    /// Register the analysis summary as deterministic gauges/counters
    /// (`xcbc_analysis_*`), for the `xcbc mon` registry.
    pub fn register_into(&self, registry: &mut crate::metrics::MetricRegistry) {
        registry.set_gauge(
            "xcbc_analysis_makespan_seconds",
            "Span makespan the critical path telescopes to",
            &[],
            self.makespan.as_secs_f64(),
        );
        registry.set_gauge(
            "xcbc_analysis_critical_busy_seconds",
            "Busy time along the critical path",
            &[],
            self.path.busy().as_secs_f64(),
        );
        registry.set_gauge(
            "xcbc_analysis_critical_blocked_seconds",
            "Blocked time along the critical path",
            &[],
            self.path.blocked().as_secs_f64(),
        );
        registry.set_counter(
            "xcbc_analysis_critical_segments",
            "Number of links in the critical path",
            &[],
            self.path.segments.len() as u64,
        );
        registry.set_counter(
            "xcbc_analysis_spans_total",
            "Spans the analysed trace held",
            &[],
            self.spans as u64,
        );
        for lane in &self.lanes {
            registry.set_gauge(
                "xcbc_analysis_lane_busy_seconds",
                "Root-frame busy time per (source,node) lane",
                &[("source", lane.source), ("node", &lane.node)],
                lane.busy.as_secs_f64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, source: &'static str, label: &str, dur: f64) -> TraceEvent {
        TraceEvent::span(t, source, label, dur)
    }

    #[test]
    fn empty_trace_analyzes_clean() {
        let a = analyze(&[]);
        assert_eq!(a.spans, 0);
        assert_eq!(a.makespan, SimDuration::ZERO);
        assert!(a.path.segments.is_empty());
        assert!(a.render().contains("no spans"));
    }

    #[test]
    fn critical_path_telescopes_to_makespan() {
        let events = vec![
            ev(0.0, "yum.mirror", "fetch", 10.0),
            ev(12.0, "rocks.install", "frontend", 30.0), // 2s blocked after fetch
            ev(5.0, "sched", "early job", 4.0),          // off the path
            ev(45.0, "sched", "late job", 20.0),         // 3s blocked after frontend
        ];
        let a = analyze(&events);
        assert_eq!(a.makespan, SimDuration::from_secs(65));
        let labels: Vec<&str> = a.path.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["fetch", "frontend", "late job"]);
        assert_eq!(a.path.total(), a.makespan);
        assert_eq!(a.path.blocked(), SimDuration::from_secs(5));
        assert_eq!(a.path.busy(), SimDuration::from_secs(60));
    }

    #[test]
    fn first_segment_blocked_from_time_zero() {
        let a = analyze(&[ev(7.0, "x", "only", 3.0)]);
        assert_eq!(a.path.segments[0].blocked, SimDuration::from_secs(7));
        assert_eq!(a.path.total(), SimDuration::from_secs(10));
    }

    #[test]
    fn zero_duration_spans_never_join_the_path() {
        let events = vec![ev(0.0, "x", "real", 5.0), ev(5.0, "x", "instant", 0.0)];
        let a = analyze(&events);
        assert_eq!(a.path.segments.len(), 1);
        assert_eq!(a.path.segments[0].label, "real");
        // but they still count as spans and set the makespan
        assert_eq!(a.spans, 2);
        assert_eq!(a.makespan, SimDuration::from_secs(5));
    }

    #[test]
    fn ties_break_by_emission_index() {
        let events = vec![
            ev(0.0, "a", "first", 10.0),
            ev(0.0, "a", "second", 10.0), // same (end, t); higher index wins
            ev(15.0, "a", "tail", 1.0),
        ];
        let a = analyze(&events);
        assert_eq!(a.path.segments[0].label, "second");
    }

    #[test]
    fn lanes_nest_by_containment() {
        let events = vec![
            ev(0.0, "rocks.install", "install os", 100.0).with_field("node", "compute-0-0"),
            ev(10.0, "rocks.install", "format disk", 20.0).with_field("node", "compute-0-0"),
            ev(40.0, "rocks.install", "packages", 50.0).with_field("node", "compute-0-0"),
            ev(0.0, "rocks.install", "install os", 80.0).with_field("node", "compute-0-1"),
        ];
        let a = analyze(&events);
        assert_eq!(a.lanes.len(), 2);
        let l0 = &a.lanes[0];
        assert_eq!(l0.node, "compute-0-0");
        let depths: Vec<usize> = l0.frames.iter().map(|f| f.depth).collect();
        assert_eq!(depths, [0, 1, 1]);
        // self time of the root excludes the two children
        assert_eq!(l0.frames[0].self_time, SimDuration::from_secs(30));
        assert_eq!(l0.busy, SimDuration::from_secs(100));
    }

    #[test]
    fn host_prefix_labels_resolve_to_node() {
        let events = vec![ev(0.0, "cluster.boot", "host:compute-0-0 pxe", 5.0)];
        let a = analyze(&events);
        assert_eq!(a.lanes[0].node, "compute-0-0");
    }

    #[test]
    fn renders_are_deterministic_and_folded_sorted() {
        let events = vec![
            ev(0.0, "a", "outer", 10.0),
            ev(1.0, "a", "inner", 2.0),
            ev(12.0, "b", "other", 3.0).with_field("node", "n1"),
        ];
        let a = analyze(&events);
        let b = analyze(&events);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.flame(), b.flame());
        assert_eq!(a.folded(), b.folded());
        assert_eq!(a.top(5), b.top(5));
        let folded = a.folded();
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert!(folded.contains("a;outer;inner 2000000"));
        assert!(folded.contains("a;outer 8000000"));
        assert!(folded.contains("b/n1;other 3000000"));
    }

    #[test]
    fn analysis_marks_summarize_path() {
        let a = analyze(&[ev(0.0, "x", "work", 5.0)]);
        let marks = a.analysis_marks();
        assert_eq!(marks[0].source, ANALYZE_TRACE_SOURCE);
        assert_eq!(marks[0].label, "critical-path");
        let mut reg = crate::metrics::MetricRegistry::new();
        a.register_into(&mut reg);
        assert_eq!(
            reg.gauge_value("xcbc_analysis_makespan_seconds", &[]),
            Some(5.0)
        );
        assert_eq!(
            reg.counter_value("xcbc_analysis_critical_segments", &[]),
            Some(1)
        );
    }
}
