//! # mp-workloads — MineBench-style clustering workloads with merging phases
//!
//! From-scratch Rust implementations of the clustering applications the paper
//! studies (MineBench's `kmeans`, `fuzzy` c-means and `hop`, plus hop's
//! kd-tree kernel as a standalone scenario). Every workload is an
//! [`mp_runtime::PhasedWorkload`]: it runs its phases — parallel kernels, the
//! merging (reduction) phase whose growth with the thread count is the
//! subject of the paper, and constant serial work — through the
//! `mp-runtime` executor, whose calls fix each phase's kind and record it
//! with per-phase, per-thread timing.
//!
//! The crate also contains:
//!
//! * [`data`] — a synthetic Gaussian-mixture data generator reproducing the
//!   data-set shapes of Table IV (N points, D dimensions, C centres),
//! * [`kdtree`] — the k-d tree substrate used by HOP's neighbour searches and
//!   the standalone kd-tree workload built on it,
//! * [`runner`] — a uniform driver that runs any workload across thread
//!   counts, producing `mp-profile` run profiles or streaming scheduler
//!   records straight into a `StreamingExtractor` for calibration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod data;
pub mod fuzzy;
pub mod hop;
pub mod kdtree;
pub mod kmeans;
pub mod runner;

/// Commonly used items.
pub mod prelude {
    pub use crate::data::{Dataset, DatasetSpec};
    pub use crate::fuzzy::{FuzzyCMeans, FuzzyConfig, FuzzyResult};
    pub use crate::hop::{Hop, HopConfig, HopResult};
    pub use crate::kdtree::{KdTreeConfig, KdTreeResult, KdTreeWorkload};
    pub use crate::kmeans::{KMeans, KMeansConfig, KMeansResult};
    pub use crate::runner::{run_sweep, ClusteringWorkload, WorkloadKind};
}

pub use prelude::*;
