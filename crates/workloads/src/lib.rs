//! # mp-workloads — MineBench-style clustering workloads with merging phases
//!
//! From-scratch Rust implementations of the clustering applications the paper
//! studies (MineBench's `kmeans`, `fuzzy` c-means and `hop`, plus hop's
//! kd-tree kernel as a standalone scenario). Each workload's `run` is its
//! phase loop, written out: init phases, then the body — parallel kernels,
//! the merging (reduction) phase whose growth with the thread count is the
//! subject of the paper, and constant serial work — repeated until
//! convergence (once for hop and kdtree), then the finalize phases. Every
//! phase runs through one [`exec::PhaseExec`] call, whose method fixes the
//! phase's kind and records it with per-phase, per-partial timing; the
//! executor forks every phase of a run on one persistent team of
//! `min(threads, cores)` threads. `run` returns the workload's result
//! together with the run's [`mp_model::phase::RunProfile`].
//!
//! The crate also contains:
//!
//! * [`exec`] — the [`PhaseExec`] executor itself,
//! * [`data`] — a synthetic Gaussian-mixture data generator reproducing the
//!   data-set shapes of Table IV (N points, D dimensions, C centres),
//! * [`kdtree`] — the k-d tree substrate used by HOP's neighbour searches and
//!   the standalone kd-tree workload built on it,
//! * [`runner`] — a uniform driver that runs any workload across thread
//!   counts: one run profile per thread count, whose section totals
//!   (`RunProfile::to_measured_run`) calibrate the model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod data;
pub mod exec;
pub mod fuzzy;
pub mod hop;
pub mod kdtree;
pub mod kmeans;
pub mod runner;

/// Commonly used items.
pub mod prelude {
    pub use crate::data::{Dataset, DatasetSpec};
    pub use crate::exec::PhaseExec;
    pub use crate::fuzzy::{FuzzyCMeans, FuzzyConfig, FuzzyResult};
    pub use crate::hop::{Hop, HopConfig, HopResult};
    pub use crate::kdtree::{KdTreeConfig, KdTreeResult, KdTreeWorkload};
    pub use crate::kmeans::{KMeans, KMeansConfig, KMeansResult};
    pub use crate::runner::{run_sweep, ClusteringWorkload, WorkloadKind};
}

pub use prelude::*;
