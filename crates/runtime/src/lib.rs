//! # mp-runtime — the phased-workload execution runtime
//!
//! The reproduced paper's whole argument rests on measuring the phase
//! structure of real workloads — parallel sections, merging (reduction)
//! phases and constant serial work — and feeding the measured fractions into
//! scalability models. This crate makes that structure a first-class runtime
//! concept instead of a per-workload convention:
//!
//! * [`exec`] — the [`PhaseExec`] executor runs each phase with the right
//!   fork-join primitive and records per-phase **and per-thread** timings
//!   automatically. The method a workload calls is the phase's kind: there
//!   is no separate declaration to keep in step with the calls.
//! * [`scheduler`] — [`PhaseScheduler`] drives a workload's loop
//!   (init → body* → finalize) and streams the instrumented records into any
//!   [`mp_profile::stream::RecordSink`]: a [`mp_profile::Profiler`] that
//!   keeps one run's records, or a [`mp_profile::NullSink`] for an
//!   uninstrumented run.
//!
//! Any type implementing [`PhasedWorkload`] is a drop-in scenario for the
//! characterisation sweep and — one [`mp_profile::Profiler`] per thread
//! count, folded by `RunProfile::to_measured_run` into
//! `mp_model::calibrate::CalibratedParams::fit` — the design-space
//! exploration engine.
//!
//! ## Example
//!
//! ```
//! use mp_runtime::prelude::*;
//! use mp_par::ReductionStrategy;
//! use mp_profile::Profiler;
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
//!     fn max_iterations(&self) -> usize { 1 }
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
//! let profiler = Profiler::new("dot", 4);
//! let outcome = PhaseScheduler::new(4).run(&Dot(x.clone(), x), &profiler);
//! let profile = profiler.finish();
//! assert_eq!(outcome.output, (0..64).map(|i| (i * i) as f64).sum::<f64>());
//! let run = profile.to_measured_run();
//! assert!(run.parallel_seconds >= 0.0 && run.reduction_seconds >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod scheduler;

/// Commonly used items.
pub mod prelude {
    pub use crate::exec::PhaseExec;
    pub use crate::scheduler::{Control, PhaseScheduler, PhasedWorkload, RunOutcome};
}

pub use prelude::*;
