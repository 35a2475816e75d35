//! Spans recorded by the benchmark around its own calls into the layers:
//! name, start, end, the span that caused it and the op it belongs to. Kept
//! in memory and written out as a chrome trace when the run ends.

use mp_obs::profile::{chrome_trace_json, Span as ChromeSpan};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Switched off it records nothing, which is how the
/// end-to-end pass runs.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    open: Vec<usize>,
    op: u64,
    pub spans: Vec<Span>,
}

/// Handle of an open span, to be closed with [`Tracer::end`].
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::default()
    }

    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::default() }
    }

    /// All spans opened until the next call belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let now = mp_obs::monotonic_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(index) = span.0 {
            self.spans[index].end_ns = mp_obs::monotonic_ns();
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }

    /// Attach a call that was replayed outside its parent — the same layer
    /// function on the same inputs, timed on its own — as a child lasting
    /// `duration_ns`, laid out after the parent's earlier children.
    pub fn replayed_child(&mut self, parent: usize, name: &str, duration_ns: u64) -> usize {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name: format!("{name} [replayed]"),
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
        self.spans.len() - 1
    }

    /// Indices of the root span of every op, in op order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()).collect()
    }

    /// The chrome-trace document of the recorded spans: one lane, nesting
    /// by containment, the op number after `#` on every root.
    pub fn chrome_json(&self) -> String {
        let spans: Vec<ChromeSpan> = self
            .spans
            .iter()
            .map(|span| ChromeSpan {
                name: match span.parent {
                    None => format!("{}#{}", span.name, span.op),
                    Some(_) => span.name.clone(),
                },
                category: "layerbench",
                lane: 0,
                start_ns: span.start_ns,
                duration_ns: span.duration_ns(),
            })
            .collect();
        chrome_trace_json(&spans)
    }
}

/// Self time of `spans[index]`: its duration minus the part of its interval
/// that its direct children cover. Children that overlap each other are
/// counted once, parts of a child outside the parent are ignored, and a span
/// without children is all self time.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_handles_missing_overlapping_and_overhanging_children() {
        // No children: all self time.
        assert_eq!(self_ns(&[span("op", 100, 200, None)], 0), 100);
        // Disjoint children, and a grandchild that must not be subtracted twice.
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 60);
        assert_eq!(self_ns(&spans, 1), 12);
        // Overlapping children are counted once; one contains another.
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 15, 20, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        // A child that overhangs its parent only counts inside it, and
        // children that cover everything leave zero, never a negative.
        let spans =
            [span("op", 100, 200, None), span("a", 50, 150, Some(0)), span("b", 150, 400, Some(0))];
        assert_eq!(self_ns(&spans, 0), 0);
        let spans = [span("op", 100, 200, None), span("before", 10, 90, Some(0))];
        assert_eq!(self_ns(&spans, 0), 100);
    }

    #[test]
    fn tracer_nests_spans_and_lays_replayed_children_end_to_end() {
        let mut tracer = Tracer::on();
        tracer.set_op(7);
        let op = tracer.begin("op");
        let inner = tracer.begin("layer");
        tracer.end(inner);
        tracer.end(op);
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].op, 7);
        assert_eq!(tracer.roots(), [0]);

        tracer.spans[1].start_ns = 1_000;
        tracer.spans[1].end_ns = 5_000;
        tracer.spans[0].start_ns = 1_000;
        tracer.spans[0].end_ns = 5_000;
        let first = tracer.replayed_child(1, "cache", 1_500);
        let second = tracer.replayed_child(1, "backend", 500);
        assert_eq!((tracer.spans[first].start_ns, tracer.spans[first].end_ns), (1_000, 2_500));
        assert_eq!((tracer.spans[second].start_ns, tracer.spans[second].end_ns), (2_500, 3_000));
        assert_eq!(self_ns(&tracer.spans, 1), 2_000);
        let json = tracer.chrome_json();
        assert!(json.contains("\"name\":\"op#7\"") && json.contains("cache [replayed]"), "{json}");
        assert!(serde_json::parse(&json).is_ok());
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let op = tracer.begin("op");
        tracer.end(op);
        assert!(tracer.spans.is_empty());
    }
}
