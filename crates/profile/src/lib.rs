//! # mp-profile — phase instrumentation
//!
//! The reproduced paper derives its model parameters by timing the individual
//! *sections* of each application: initialisation, the parallel section, the
//! constant serial section and the merging (reduction) section
//! (Section IV/V-A). A run is its timed phase records, and every parameter is
//! one fold of them: [`RunProfile::to_measured_run`] sums the records into
//! section totals, and [`mp_model::calibrate::RunAccounting`] and
//! [`mp_model::calibrate::CalibratedParams`] read the paper's `f`, `fcon`,
//! `fred`, `fored` and the Figure 2 series from those totals. This crate
//! provides:
//!
//! * [`phase`] — the phase taxonomy ([`PhaseKind`]) and per-run profiles
//!   ([`RunProfile`]) holding one timed record per executed phase,
//! * [`profiler`] — a thread-safe [`Profiler`] that keeps every record a
//!   run streams into it,
//! * [`stream`] — the [`RecordSink`] the phase scheduler streams records
//!   into, and the [`NullSink`] of uninstrumented runs,
//! * [`report`] — serialisable experiment rows and plain-text table rendering
//!   shared by the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod phase;
pub mod profiler;
pub mod report;
pub mod stream;

pub use phase::{PhaseKind, PhaseRecord, RunProfile};
pub use profiler::Profiler;
pub use report::{render_table, TableRow};
pub use stream::{NullSink, RecordSink};
