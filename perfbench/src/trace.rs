//! The traced run's span recorder. The benchmark opens a span around
//! each call it makes into a layer's public functions; spans nest, live
//! in memory, and are written out once the run ends. A span's self time
//! is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<what>`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans and exact counts of one traced iteration.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the count `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Self time in ms, summed per span name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_default() += (span.dur_ns() - child) as f64 / 1e6;
        }
        out
    }

    /// Time covered by top-level spans: the part of the iteration that
    /// is attributed to some layer.
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Every span name used.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.spans.iter().map(|s| s.name)
    }

    /// The spans as JSON lines: name, start, end, parent index.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("a.outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("b.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let ms = t.self_ms();
        assert!(ms["b.inner"] >= 4.0, "{ms:?}");
        assert!(
            ms["a.outer"] >= 2.0 && ms["a.outer"] < ms["b.inner"],
            "{ms:?}"
        );
        let total: f64 = ms.values().sum();
        assert!((total - t.attributed_ns() as f64 / 1e6).abs() < 1e-6);
    }
}
