//! # mp-obs — always-on observability for the merging-phases stack
//!
//! A zero-dependency, low-overhead observability layer shared by the dse
//! engine, the serve reactor and the bench harness:
//!
//! * [`metrics`] — a lock-free [`Registry`](metrics::Registry) of sharded
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s (stored or
//!   callback-backed) and log-bucketed [`Histogram`](hist::Histogram)s.
//!   Updates are plain relaxed atomics on cache-line-padded shards, so the
//!   always-on cost stays under the measurement noise floor; registration
//!   and snapshotting take a mutex on the cold path only. Snapshots merge,
//!   print as JSON and as Prometheus exposition text.
//! * [`trace`] — per-request traces: an id minted when the request line is
//!   decoded, stamped at each pipeline stage
//!   (`decode → queue → plan → evaluate → encode → flush`) and committed to
//!   a bounded [`TraceLog`](trace::TraceLog).
//! * [`profile`] — a sweep [`Profiler`](profile::Profiler) recording
//!   per-batch / per-shard / per-window spans, exported as
//!   chrome://tracing-compatible JSON (load the file in `about:tracing` or
//!   [Perfetto](https://ui.perfetto.dev)).
//!
//! The crate is dependency-free by design: every consumer in the workspace
//! (engine hot loops, the epoll reactor, the global allocator hooks) must be
//! able to count without pulling in serialisation or locking machinery.
//!
//! ## Quick example
//!
//! ```
//! use mp_obs::prelude::*;
//!
//! let registry = Registry::new();
//! let evals = registry.counter("scenarios_evaluated");
//! let lat = registry.histogram_ms("request_ms");
//! evals.add(128);
//! lat.record(0.7);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("scenarios_evaluated"), Some(128));
//! assert!(snap.to_prometheus().contains("scenarios_evaluated 128"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::sync::OnceLock;
use std::time::Instant;

/// Commonly used items.
pub mod prelude {
    pub use crate::hist::{percentile_of_sorted, Histogram, HistogramSnapshot, LATENCY_BOUNDS_MS};
    pub use crate::metrics::{Counter, Gauge, Registry, Snapshot};
    pub use crate::profile::{Profiler, Span};
    pub use crate::trace::{RequestTrace, Stage, TraceLog};
    pub use crate::{counter, gauge, histogram_ms, monotonic_ns, registry};
}

/// Nanoseconds on the process-wide monotonic clock (anchored at first use).
///
/// Every trace and span timestamp in the workspace comes from this one
/// clock, so stamps taken on different threads are directly comparable.
pub fn monotonic_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The process-wide metrics registry every subsystem registers into.
pub fn registry() -> &'static metrics::Registry {
    static GLOBAL: OnceLock<metrics::Registry> = OnceLock::new();
    GLOBAL.get_or_init(metrics::Registry::new)
}

/// Get or create `name` in the global registry (see [`registry`]).
pub fn counter(name: &str) -> std::sync::Arc<metrics::Counter> {
    registry().counter(name)
}

/// Get or create `name` in the global registry (see [`registry`]).
pub fn gauge(name: &str) -> std::sync::Arc<metrics::Gauge> {
    registry().gauge(name)
}

/// Get or create a latency histogram (`LATENCY_BOUNDS_MS` buckets) in the
/// global registry (see [`registry`]).
pub fn histogram_ms(name: &str) -> std::sync::Arc<hist::Histogram> {
    registry().histogram_ms(name)
}

/// Log a warning: one `[mp-obs] warn(<component>): <message>` line on
/// stderr plus an increment of the process-wide `warnings_total` counter
/// and of `warnings_total_<component>`, so operational degradations (a
/// corrupt cache spill skipped, a checkpoint manifest refused) are both
/// human-visible and scrape-visible. Warnings mean the process degraded
/// gracefully — code that would *fail* should return an error instead.
pub fn warn(component: &str, message: &str) {
    counter("warnings_total").inc();
    counter(&format!("warnings_total_{component}")).inc();
    eprintln!("[mp-obs] warn({component}): {message}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn global_registry_returns_the_same_counter_for_the_same_name() {
        let a = counter("lib_test_counter");
        let b = counter("lib_test_counter");
        a.inc();
        b.inc();
        assert_eq!(a.value(), b.value());
        assert!(a.value() >= 2);
    }
}
