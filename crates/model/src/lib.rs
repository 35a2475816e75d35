//! # mp-model — extended Amdahl speedup models for merging phases
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Implications of Merging Phases on Scalability of Multi-core Architectures*
//! (Manivannan, Juurlink, Stenström — ICPP 2011).
//!
//! It provides, as closed-form analytical models:
//!
//! * classic **Amdahl's Law** (paper Eq. 1) — [`amdahl`],
//! * the **Hill–Marty** multicore extensions for symmetric and asymmetric chip
//!   multiprocessors under a base-core-equivalent (BCE) area budget
//!   (paper Eq. 2 and Eq. 3) — [`hill_marty`],
//! * the paper's **extended model** in which the serial fraction is split into a
//!   constant part and a *reduction* (merging-phase) part whose overhead grows
//!   with the number of cores (paper Eq. 4 and Eq. 5) — [`extended`],
//! * the **communication-aware** refinement that splits the reduction fraction
//!   into computation and communication and charges the communication to a
//!   network-on-chip topology (paper Eq. 6–8) — [`comm`] and [`topology`],
//! * the **application parameter sets** of Tables II, III and IV — [`params`],
//! * chip/core **design descriptions** under a BCE budget — [`chip`] and
//!   [`perf`],
//! * **design-space exploration** helpers that regenerate the speedup curves of
//!   Figures 3, 4, 5 and 7 — [`explore`],
//! * the **phase taxonomy** and per-run profiles of timed phase records, and
//!   the one fold from a run's records to its section totals — [`phase`] —
//!   from which [`calibrate`] reads the paper's parameters (Section V-A).
//!
//! ## Conventions
//!
//! All fractions are expressed relative to the *single-core* execution time of
//! the application unless documented otherwise. The split of the serial
//! fraction follows the paper's Figure 1 / Figure 6:
//!
//! ```text
//! total = f (parallel) + s (serial),            s = 1 - f
//! s     = s·fcon  +  s·fred                     (constant + reduction)
//! reduction time at p threads = s·fred·(1 + fored·grow(p))
//! reduction = computation + communication       (communication model only)
//! ```
//!
//! `fcon`, `fred`, `fcomp` and `fcomm` are stored as fractions *of the serial
//! time* (this is how Table II/III of the paper reports them); `fored` is the
//! growth coefficient of the reduction overhead per unit of the growth function
//! (`grow(1) = 0` by construction, so single-core behaviour is unchanged).
//!
//! ## Quick example
//!
//! ```
//! use mp_model::prelude::*;
//!
//! // kmeans parameters from Table II of the paper.
//! let app = AppParams::table2_kmeans();
//! let chip = ChipBudget::new(256.0);
//! let model = ExtendedModel::new(app, GrowthFunction::Linear, PerfModel::Pollack);
//!
//! // Speedup of a symmetric CMP built from 64 cores of 4 BCE each.
//! let design = SymmetricDesign::new(chip, 4.0).unwrap();
//! let with_reduction = model.speedup_symmetric(&design).unwrap();
//! let amdahl_only = hill_marty::symmetric_speedup(
//!     model.params().f, &design, &PerfModel::Pollack).unwrap();
//! assert!(with_reduction < amdahl_only);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amdahl;
pub mod calibrate;
pub mod catalogue;
pub mod chip;
pub mod comm;
pub mod error;
pub mod explore;
pub mod extended;
pub mod fingerprint;
pub mod growth;
pub mod hill_marty;
pub mod params;
pub mod perf;
pub mod phase;
pub mod prepared;
pub mod simd;
pub mod topology;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::amdahl::{amdahl_speedup, amdahl_speedup_limit};
    pub use crate::calibrate::{CalibratedParams, GrowthFit, MeasuredRun, RunAccounting};
    pub use crate::catalogue::CatalogueRegistry;
    pub use crate::chip::{AsymmetricDesign, ChipBudget, SymmetricDesign};
    pub use crate::comm::{CommModel, CommSplit};
    pub use crate::error::ModelError;
    pub use crate::explore::{
        asymmetric_curve, best_asymmetric, best_symmetric, symmetric_curve, DesignPoint,
    };
    pub use crate::extended::ExtendedModel;
    pub use crate::growth::GrowthFunction;
    pub use crate::hill_marty;
    pub use crate::params::{AppParams, SerialSplit};
    pub use crate::perf::PerfModel;
    pub use crate::prepared::PreparedModel;
    pub use crate::topology::Topology;
}

pub use prelude::*;
