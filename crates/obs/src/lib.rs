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
//!   print as JSON and as Prometheus exposition text. There is no
//!   process-wide registry: each owner (in this workspace, each sweep
//!   engine and the service built on it) holds one and hands it to the
//!   components that register into it.
//! * [`profile`] — a span [`Profiler`](profile::Profiler) that is dark
//!   until armed, exported as chrome://tracing-compatible JSON (load the
//!   file in `about:tracing` or [Perfetto](https://ui.perfetto.dev)). Each
//!   registry carries one ([`Registry::profiler`](metrics::Registry::profiler)),
//!   so whatever reaches a service's registry records into the same
//!   timeline: the engine's `batch` and `table_build` spans, the service's
//!   `window` spans, the job manager's `checkpoint` spans and the server's
//!   request spans, one per socket request, named for its verb. Only
//!   `repro dse --trace` arms one from the command line; a server's spans
//!   are read by whoever holds its service, through
//!   `service.registry().profiler()`.
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

use std::sync::OnceLock;
use std::time::Instant;

/// Commonly used items.
pub mod prelude {
    pub use crate::hist::{percentile_of_sorted, Histogram, HistogramSnapshot, LATENCY_BOUNDS_MS};
    pub use crate::metrics::{Counter, Gauge, Registry, Snapshot};
    pub use crate::monotonic_ns;
    pub use crate::profile::{Profiler, Span};
}

/// Nanoseconds on the process-wide monotonic clock (anchored at first use).
///
/// Every span and latency timestamp in the workspace comes from this one
/// clock, so stamps taken on different threads are directly comparable.
pub fn monotonic_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
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
}
