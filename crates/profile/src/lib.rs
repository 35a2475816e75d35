//! # mp-profile — phase instrumentation and Amdahl-parameter extraction
//!
//! The reproduced paper derives its model parameters by timing the individual
//! *sections* of each application: initialisation, the parallel section, the
//! constant serial section and the merging (reduction) section
//! (Section IV/V-A). This crate provides:
//!
//! * [`phase`] — the phase taxonomy ([`PhaseKind`]) and per-run profiles
//!   ([`RunProfile`]) holding one timed record per executed phase,
//! * [`profiler`] — a thread-safe [`Profiler`] that keeps every record a
//!   run streams into it,
//! * [`extract`] — derivation of the paper's parameters (`f`, `fcon`, `fred`,
//!   `fored`, speedups, serial-growth series) from section totals
//!   ([`mp_model::calibrate::MeasuredRun`]) or from sets of profiles taken at
//!   different thread counts,
//! * [`stream`] — live [`stream::RecordSink`]s: the phase scheduler
//!   streams its instrumented records straight into a
//!   [`stream::StreamingExtractor`], which folds them into per-thread-count
//!   totals and calibrates the model without flat record lists,
//! * [`report`] — serialisable experiment rows and plain-text table rendering
//!   shared by the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod extract;
pub mod phase;
pub mod profiler;
pub mod report;
pub mod stream;

pub use extract::{
    extract_params, extract_params_from_runs, serial_growth, speedup_series, ExtractedParams,
};
pub use phase::{PhaseKind, PhaseRecord, RunProfile};
pub use profiler::Profiler;
pub use report::{render_table, TableRow};
pub use stream::{NullSink, RecordSink, StreamingExtractor};
