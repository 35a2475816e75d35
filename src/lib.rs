//! # merging-phases — reproduction of the ICPP 2011 merging-phases study
//!
//! This facade crate re-exports the whole workspace so applications can depend
//! on a single crate:
//!
//! * [`model`] — the extended Amdahl/Hill–Marty speedup models (the paper's
//!   primary contribution): classic Amdahl, symmetric/asymmetric Hill–Marty,
//!   the merging-phase extension (Eq. 4/5), and the communication-aware model
//!   (Eq. 6–8). Its [`model::phase`] holds the phase taxonomy and a run's
//!   timed records, and the fold of one run's records into the section
//!   totals from which `model::calibrate` reads the paper's parameters
//!   (`f`, `fcon`, `fred`, `fored`).
//! * [`par`] — the fork-join primitives and the three reduction strategies
//!   (serial linear, logarithmic tree, privatised parallel).
//! * [`workloads`] — MineBench-style clustering workloads (kmeans, fuzzy
//!   c-means, HOP, the kd-tree scenario) over a synthetic data generator.
//!   Each workload's `run` is its phase loop, written out: every phase runs
//!   through a [`workloads::exec::PhaseExec`] call that fixes its kind and
//!   records it with per-phase, per-thread timing, and `run` returns the
//!   result together with the run's [`model::phase::RunProfile`].
//! * [`cmpsim`] — an abstract CMP/ACMP timing simulator (cores with
//!   area-dependent performance, two-level cache cost model, 2-D-mesh NoC)
//!   standing in for the SESC simulator used by the paper.
//! * [`dse`] — a parallel, cache-aware design-space exploration engine:
//!   cartesian scenario spaces over every model axis, pluggable evaluation
//!   backends (analytic, communication-aware, simulation), a parallel batch
//!   queue with memoisation, top-k / per-axis / Pareto analysis and
//!   streaming JSON/CSV export. Its parity tests hold it to the `model`
//!   loops that draw the paper's figures.
//!
//! See the repository `README.md` for a quickstart and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every table and figure.
//!
//! ```
//! use merging_phases::prelude::*;
//!
//! let app = AppParams::table2_kmeans();
//! let model = ExtendedModel::new(app, GrowthFunction::Linear, PerfModel::Pollack);
//! let chip = ChipBudget::paper_default();
//! let best = best_symmetric(&model, chip).unwrap();
//! assert!(best.speedup > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mp_cmpsim as cmpsim;
pub use mp_dse as dse;
pub use mp_model as model;
pub use mp_par as par;
pub use mp_workloads as workloads;

/// Convenience prelude re-exporting the most commonly used items from every
/// workspace crate.
pub mod prelude {
    pub use mp_model::phase::{PhaseKind, PhaseRecord, RunProfile};
    pub use mp_model::prelude::*;
    pub use mp_par::{ReductionStrategy, ThreadPool};
    pub use mp_workloads::prelude::*;

    pub use mp_cmpsim::prelude::*;

    pub use mp_dse::{
        AnalyticBackend, ChipSpec, CommBackend, CostAxis, Engine, EvalBackend, EvalCache,
        EvalRecord, MeasuredBackend, ScenarioSpace, SimBackend, SweepConfig, SweepResult,
    };
}
