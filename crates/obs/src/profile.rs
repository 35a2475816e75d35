//! The span profiler: spans recorded while armed, exported as
//! chrome://tracing-compatible JSON.
//!
//! There is one profiler per [`Registry`](crate::metrics::Registry), reached
//! as [`Registry::profiler`](crate::metrics::Registry::profiler), and none
//! per process. Everything built on one sweep engine records into its
//! registry's profiler: `table_build` and `batch` spans from the engine,
//! `window` spans from the service, `checkpoint` spans from the job manager
//! and one span per socket request, named for its verb, from the server.
//!
//! Disarmed (the default) it costs one relaxed atomic load per would-be
//! span; armed, each span is a clock pair plus one short mutex push, far
//! off the per-scenario hot path (spans cover whole batches, windows and
//! requests). Load the exported file in `about:tracing` or
//! [Perfetto](https://ui.perfetto.dev).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::monotonic_ns;

/// One completed span on the profiler timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers (`"batch …"`, `"window …"`, `"table_build …"`,
    /// `"checkpoint …"`, or a request's verb).
    pub name: String,
    /// Coarse grouping shown as the chrome trace category
    /// (`"engine"`, `"serve"`, `"checkpoint"`, `"request"`).
    pub category: &'static str,
    /// Timeline lane, the chrome trace's thread id: in this workspace, the
    /// recording thread's [`thread_lane`].
    pub lane: u64,
    /// Start on the process monotonic clock, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub duration_ns: u64,
}

/// A guard that records a [`Span`] when dropped (no-op if the profiler was
/// disabled when it was opened).
pub struct SpanGuard<'a> {
    profiler: &'a Profiler,
    name: String,
    category: &'static str,
    lane: u64,
    start_ns: u64,
    armed: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.profiler.record(Span {
                name: std::mem::take(&mut self.name),
                category: self.category,
                lane: self.lane,
                start_ns: self.start_ns,
                duration_ns: monotonic_ns().saturating_sub(self.start_ns),
            });
        }
    }
}

/// A span recorder that is dark until enabled. Each
/// [`Registry`](crate::metrics::Registry) owns one.
#[derive(Default)]
pub struct Profiler {
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Profiler {
    /// A fresh, disabled profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Start (or stop) recording spans.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span; it records itself when the guard drops. When the
    /// profiler is disabled this is one atomic load and no allocation.
    pub fn span(&self, name: &str, category: &'static str, lane: u64) -> SpanGuard<'_> {
        let armed = self.is_enabled();
        SpanGuard {
            profiler: self,
            name: if armed { name.to_string() } else { String::new() },
            category,
            lane,
            start_ns: if armed { monotonic_ns() } else { 0 },
            armed,
        }
    }

    /// Record a completed span (dropped silently while disabled).
    pub fn record(&self, span: Span) {
        if self.is_enabled() {
            self.spans.lock().expect("profiler poisoned").push(span);
        }
    }

    /// Drain every recorded span, oldest first.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("profiler poisoned"))
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("profiler poisoned").len()
    }

    /// Whether no span is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A small stable lane id for the calling thread (sequential from 0 in
/// first-use order): keeps each worker's spans on its own chrome-trace
/// timeline row.
pub fn thread_lane() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|lane| *lane)
}

/// Render spans as a chrome://tracing JSON document (complete `"X"` events;
/// timestamps and durations in microseconds, lanes as thread ids).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }
    let events: Vec<String> = spans
        .iter()
        .map(|span| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                escape(&span.name),
                span.category,
                span.lane,
                span.start_ns as f64 / 1e3,
                span.duration_ns as f64 / 1e3,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let profiler = Profiler::new();
        {
            let _span = profiler.span("batch", "engine", 0);
        }
        profiler.record(Span {
            name: "direct".into(),
            category: "engine",
            lane: 1,
            start_ns: 0,
            duration_ns: 10,
        });
        assert!(profiler.is_empty());
    }

    #[test]
    fn enabled_profiler_captures_guard_spans_with_durations() {
        let profiler = Profiler::new();
        profiler.set_enabled(true);
        {
            let _span = profiler.span("window 3", "serve", 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = profiler.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "window 3");
        assert_eq!(spans[0].lane, 2);
        assert!(spans[0].duration_ns >= 1_000_000);
        assert!(profiler.is_empty(), "take drains");
    }

    #[test]
    fn chrome_export_is_wellformed_json_with_one_event_per_span() {
        let spans = vec![
            Span {
                name: "batch \"0\"".into(),
                category: "engine",
                lane: 0,
                start_ns: 1_500,
                duration_ns: 2_000,
            },
            Span {
                name: "window".into(),
                category: "serve",
                lane: 7,
                start_ns: 4_000,
                duration_ns: 500,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("batch \\\"0\\\""));
        assert_eq!(json.matches("\"name\"").count(), 2);
    }
}
