//! # mp-dse — parallel, cache-aware design-space exploration
//!
//! The paper's design-space study sweeps a handful of hand-picked chip
//! designs. This crate turns that into a subsystem that evaluates *millions*
//! of (application × machine × strategy) scenarios fast:
//!
//! * [`scenario`] — [`ScenarioSpace`]: cartesian grids and explicit lists
//!   over application parameters, chip budgets, core sizes (symmetric and
//!   asymmetric), growth functions, core performance models, reduction
//!   strategies and NoC topologies, decoded lazily from flat indices.
//! * [`backend`] — the pluggable [`EvalBackend`] trait with four
//!   implementations: the analytic extended model ([`AnalyticBackend`]), the
//!   measured-calibration model ([`MeasuredBackend`], fed by
//!   `mp_model::calibrate`), the communication-aware model ([`CommBackend`])
//!   and the trace-driven `mp-cmpsim` timing simulation ([`SimBackend`]).
//! * [`engine`] — [`Engine`]: one scoped fork-join per sweep on an
//!   [`mp_par::Team`], its members pulling batches from one locked
//!   queue; contiguous batches share every axis but the design, so backends
//!   stream through the columnar prepared path. A sweep's batches are
//!   disjoint `&mut` slices of one preallocated record vector, so results
//!   land in deterministic index order with no merge; a reduction
//!   ([`Engine::reduce_range`]) folds each batch into a per-worker
//!   [`Reducer`] partial instead and merges the partials at the end, so its
//!   memory does not grow with the space.
//! * [`tables`] — [`SpaceTables`]: per-sweep columnar (SoA) precomputation
//!   of every design-axis quantity (geometry, `perf(r)`, growth samples),
//!   feeding the backends' zero-allocation batch kernels.
//! * [`cache`] — [`EvalCache`]: one hash map behind one reader-writer lock,
//!   taken once per batch, memoising on canonicalised scenario bits; cached
//!   and uncached sweeps are bit-identical, large sweeps reserve their size
//!   up front so the map never rehashes mid-run. It persists as binary
//!   segments (the durable jobs of `mp-serve`); only the repo's benchmark
//!   calls the JSON form.
//! * [`merge`] — Merge-Path even-partition merging of index-sorted record
//!   runs, bit-identical to a stable sequential k-way merge. Called only by
//!   the repo's benchmark; see the module docs.
//! * [`analysis`] — top-k designs, per-axis optima and 2-D Pareto frontiers
//!   of speedup against cores or area: the [`TopK`] and [`Pareto`] reducers,
//!   and the sort-based [`top_k`] / [`pareto_frontier`] they are checked
//!   against.
//! * [`export`] — streaming JSON / CSV writers.
//!
//! ## Quick example
//!
//! ```
//! use mp_dse::prelude::*;
//! use mp_model::params::AppClass;
//!
//! // Sweep every Table III class over a fine symmetric grid.
//! let space = ScenarioSpace::new()
//!     .with_apps(AppClass::table3_all().iter().map(|c| c.params()).collect())
//!     .clear_designs()
//!     .add_symmetric_grid((0..256).map(|i| 1.0 + i as f64));
//!
//! let engine = Engine::new(2);
//! let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
//! assert_eq!(result.records.len(), space.len());
//!
//! let best = top_k(&result.records, 3);
//! let frontier = pareto_frontier(&result.records, CostAxis::Cores);
//! assert!(!best.is_empty() && !frontier.is_empty());
//!
//! // The same answers folded while sweeping, with no record vector.
//! let handle = SweepHandle::new(&space);
//! let config = SweepConfig::default();
//! let (top, _) = engine.reduce_range(&handle, &AnalyticBackend, &config, 0..space.len(), TopK::new(3));
//! assert_eq!(top.finish(), best);
//! let pareto = Pareto::new(&space, CostAxis::Cores);
//! let (pareto, _) = engine.reduce_range(&handle, &AnalyticBackend, &config, 0..space.len(), pareto);
//! assert_eq!(pareto.finish(), frontier);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod backend;
pub mod cache;
pub mod engine;
pub mod export;
#[cfg(feature = "fault")]
pub mod fault;
mod mem;
pub mod merge;
pub mod scenario;
mod shortest;
pub mod tables;

/// Commonly used items.
pub mod prelude {
    pub use crate::analysis::{
        dominates, pareto_frontier, per_axis_optima, top_k, AxisOptimum, CostAxis, Pareto, TopK,
    };
    pub use crate::backend::{
        AnalyticBackend, CommBackend, DseError, EvalBackend, MeasuredBackend, SimBackend,
    };
    pub use crate::cache::{CacheLoadError, CacheStats, EvalCache};
    pub use crate::engine::{
        Engine, EvalRecord, RangeCursor, Reducer, SweepConfig, SweepHandle, SweepResult, SweepStats,
    };
    pub use crate::export::{write_csv, write_json};
    pub use crate::merge::{merge_runs, sequential_merge};
    pub use crate::scenario::{
        AxisLabels, CanonicalKeyPrefix, ChipSpec, Scenario, ScenarioIndex, ScenarioSpace,
    };
    pub use crate::tables::SpaceTables;
}

pub use prelude::*;
