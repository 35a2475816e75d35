//! # mp-runtime — the phase-graph execution runtime
//!
//! The reproduced paper's whole argument rests on measuring the phase
//! structure of real workloads — parallel sections, merging (reduction)
//! phases and constant serial work — and feeding the measured fractions into
//! scalability models. This crate makes that structure a first-class runtime
//! concept instead of a per-workload convention:
//!
//! * [`graph`] — a workload *declares* its phase graph ([`PhaseGraph`]):
//!   init region, a repeated body of parallel kernels + reduction + constant
//!   serial work, and a finalize region, with per-node thread-scaling
//!   declarations (full, limited, serial).
//! * [`exec`] — the [`PhaseExec`] executor runs each phase with the right
//!   fork-join primitive, checks it against the declaration, and records
//!   per-phase **and per-thread** timings automatically.
//! * [`scheduler`] — [`PhaseScheduler`] drives the declared loop
//!   (init → body* → finalize) and streams the instrumented records into any
//!   [`mp_profile::stream::RecordSink`]: a [`mp_profile::Profiler`] for full
//!   profiles, or a [`mp_profile::StreamingExtractor`] that folds them
//!   straight into model parameters.
//!
//! Any type implementing [`PhasedWorkload`] is a drop-in scenario for the
//! characterisation sweep, the streaming parameter extraction and — through
//! `mp_model::calibrate` — the design-space exploration engine.
//!
//! ## Example
//!
//! ```
//! use mp_runtime::prelude::*;
//! use mp_par::ReductionStrategy;
//!
//! /// Parallel dot-product with an explicit merging phase.
//! struct Dot(Vec<f64>, Vec<f64>);
//!
//! impl PhasedWorkload for Dot {
//!     type State = f64;
//!     type Output = f64;
//!
//!     fn name(&self) -> &str { "dot" }
//!
//!     fn graph(&self) -> PhaseGraph {
//!         PhaseGraph::builder(1)
//!             .parallel("multiply")
//!             .reduction("merge")
//!             .serial("store")
//!             .build()
//!             .unwrap()
//!     }
//!
//!     fn init(&self, _exec: &PhaseExec<'_>) -> f64 { 0.0 }
//!
//!     fn iteration(&self, state: &mut f64, exec: &PhaseExec<'_>, _iter: usize) -> Control {
//!         let partials = exec.parallel("multiply", self.0.len(), |_ctx, range| {
//!             vec![range.map(|i| self.0[i] * self.1[i]).sum::<f64>()]
//!         });
//!         let (merged, _) = exec.reduce("merge", &partials, ReductionStrategy::TreeLog);
//!         exec.serial("store", || *state = merged[0]);
//!         Control::Break
//!     }
//!
//!     fn finalize(&self, state: f64, _exec: &PhaseExec<'_>) -> f64 { state }
//! }
//!
//! let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
//! let (outcome, profile) = PhaseScheduler::new(4).run_profiled(&Dot(x.clone(), x));
//! assert_eq!(outcome.output, (0..64).map(|i| (i * i) as f64).sum::<f64>());
//! assert!(profile.parallel_time() >= 0.0 && profile.reduction_time() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod graph;
pub mod scheduler;

/// Commonly used items.
pub mod prelude {
    pub use crate::exec::PhaseExec;
    pub use crate::graph::{GraphError, PhaseGraph, PhaseNodeSpec, Region, Scaling};
    pub use crate::scheduler::{Control, PhaseScheduler, PhasedWorkload, RunOutcome};
}

pub use prelude::*;
