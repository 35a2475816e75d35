//! Streaming record sinks: from scheduler instrumentation to calibration
//! without intermediate flat record lists.
//!
//! The phase scheduler (`mp-runtime`) emits one [`PhaseRecord`] per
//! executed phase. A [`RecordSink`] receives them as they happen; two sinks
//! are provided:
//!
//! * [`crate::Profiler`] — keeps the full record list (reports, figures),
//! * [`StreamingExtractor`] — folds each record into per-thread-count
//!   [`PhaseTotals`] on the fly, so a whole characterisation sweep reduces to
//!   a handful of running sums from which the paper's parameters
//!   ([`crate::ExtractedParams`]) or a full model calibration
//!   ([`CalibratedParams`]) are derived directly.
//!
//! ```
//! use mp_profile::stream::{RecordSink, StreamingExtractor};
//! use mp_profile::{PhaseKind, PhaseRecord};
//!
//! let extractor = StreamingExtractor::new("demo");
//! for threads in [1usize, 2, 4] {
//!     let sink = extractor.run_sink(threads);
//!     // ... the scheduler records phases into `sink` during the run ...
//!     sink.record(PhaseRecord::new(PhaseKind::Parallel, "work", 1.0 / threads as f64, threads));
//!     sink.record(PhaseRecord::new(PhaseKind::Reduction, "merge", 1e-3 * threads as f64, threads));
//!     sink.record(PhaseRecord::new(PhaseKind::SerialConstant, "check", 1e-3, threads));
//! }
//! let calibrated = extractor.calibrate().unwrap();
//! assert!(calibrated.app_params().f > 0.9);
//! ```

use std::collections::BTreeMap;

use parking_lot::Mutex;

use mp_model::calibrate::{CalibratedParams, MeasuredRun};
use mp_model::error::ModelError;
use mp_model::growth::GrowthFunction;

use crate::extract::{extract_params_from_runs, ExtractedParams};
use crate::phase::{PhaseKind, PhaseRecord, RunProfile};
use crate::profiler::Profiler;

/// A consumer of phase records, fed live by the phase scheduler.
pub trait RecordSink: Sync {
    /// Whether the sink wants records at all. Schedulers may skip the timing
    /// overhead entirely when this returns `false`.
    fn is_live(&self) -> bool {
        true
    }

    /// Receive one completed phase record.
    fn record(&self, record: PhaseRecord);
}

impl RecordSink for Profiler {
    fn record(&self, record: PhaseRecord) {
        self.record_phase(record);
    }
}

/// A sink that drops everything (uninstrumented runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn is_live(&self) -> bool {
        false
    }

    fn record(&self, _record: PhaseRecord) {}
}

/// Running per-section sums of one run (one thread count). This is all the
/// paper's parameter extraction ever reads from a run, so streaming into it
/// loses nothing relative to keeping the flat record list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Initialisation time (excluded from the paper's accounting).
    pub init: f64,
    /// Parallel-section time.
    pub parallel: f64,
    /// Constant serial time.
    pub serial_constant: f64,
    /// Merging (reduction) time.
    pub reduction: f64,
    /// Merge-communication time.
    pub communication: f64,
    /// Number of records folded in.
    pub records: usize,
}

impl PhaseTotals {
    /// Fold one record into the totals.
    pub fn add(&mut self, kind: PhaseKind, seconds: f64) {
        match kind {
            PhaseKind::Init => self.init += seconds,
            PhaseKind::Parallel => self.parallel += seconds,
            PhaseKind::SerialConstant => self.serial_constant += seconds,
            PhaseKind::Reduction => self.reduction += seconds,
            PhaseKind::Communication => self.communication += seconds,
        }
        self.records += 1;
    }

    /// The model-level view of these totals.
    pub fn to_measured_run(&self, threads: usize) -> MeasuredRun {
        MeasuredRun {
            threads,
            parallel_seconds: self.parallel,
            serial_constant_seconds: self.serial_constant,
            reduction_seconds: self.reduction,
            communication_seconds: self.communication,
        }
    }
}

/// Streams scheduler records of a whole thread sweep into per-thread-count
/// totals and derives the paper's parameters from them.
///
/// One extractor covers one workload; obtain a [`RunSink`] per run with
/// [`StreamingExtractor::run_sink`] and hand it to the scheduler. Records of
/// repeated runs at the same thread count accumulate into the same bucket
/// (use a fresh extractor per sweep).
#[derive(Debug)]
pub struct StreamingExtractor {
    app: String,
    totals: Mutex<BTreeMap<usize, PhaseTotals>>,
}

impl StreamingExtractor {
    /// An empty extractor for workload `app`.
    pub fn new(app: impl Into<String>) -> Self {
        StreamingExtractor { app: app.into(), totals: Mutex::new(BTreeMap::new()) }
    }

    /// The workload name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// A sink that buckets records under `threads` (the run's thread count —
    /// *not* per-record thread counts, which limited-scaling phases lower).
    pub fn run_sink(&self, threads: usize) -> RunSink<'_> {
        assert!(threads > 0, "threads must be positive");
        RunSink { extractor: self, threads }
    }

    /// Post-hoc adapter: fold an already-collected profile into the totals.
    pub fn absorb_profile(&self, profile: &RunProfile) {
        let mut totals = self.totals.lock();
        let bucket = totals.entry(profile.threads).or_default();
        for record in &profile.records {
            bucket.add(record.kind, record.seconds);
        }
    }

    /// Thread counts observed so far.
    pub fn thread_counts(&self) -> Vec<usize> {
        self.totals.lock().keys().copied().collect()
    }

    /// Whether any records have been received.
    pub fn is_empty(&self) -> bool {
        self.totals.lock().is_empty()
    }

    /// The aggregated section totals as model-level runs, ordered by thread
    /// count.
    pub fn measured_runs(&self) -> Vec<MeasuredRun> {
        self.totals.lock().iter().map(|(&threads, t)| t.to_measured_run(threads)).collect()
    }

    /// Extract the paper's parameters assuming the given growth shape
    /// (`None` without a single-thread run).
    pub fn extract(&self, growth: &GrowthFunction) -> Option<ExtractedParams> {
        extract_params_from_runs(&self.app, &self.measured_runs(), growth)
    }

    /// Fit a full calibration (parameters *plus* best growth shape).
    ///
    /// # Errors
    /// Propagates [`ModelError::Calibration`] when the sweep lacks a usable
    /// single-thread baseline.
    pub fn calibrate(&self) -> Result<CalibratedParams, ModelError> {
        CalibratedParams::fit(self.app.clone(), &self.measured_runs())
    }
}

/// The per-run sink handed to the scheduler; tags every record with its run's
/// thread count.
#[derive(Debug)]
pub struct RunSink<'a> {
    extractor: &'a StreamingExtractor,
    threads: usize,
}

impl RecordSink for RunSink<'_> {
    fn record(&self, record: PhaseRecord) {
        self.extractor
            .totals
            .lock()
            .entry(self.threads)
            .or_default()
            .add(record.kind, record.seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_synthetic(extractor: &StreamingExtractor, f: f64, fcon: f64, fored: f64) {
        let s = 1.0 - f;
        for p in [1usize, 2, 4, 8, 16] {
            let sink = extractor.run_sink(p);
            sink.record(PhaseRecord::new(PhaseKind::Init, "init", 0.01, p));
            sink.record(PhaseRecord::new(PhaseKind::Parallel, "par", f / p as f64, p));
            sink.record(PhaseRecord::new(PhaseKind::SerialConstant, "ser", s * fcon, p));
            sink.record(PhaseRecord::new(
                PhaseKind::Reduction,
                "red",
                s * (1.0 - fcon) * (1.0 + fored * (p as f64 - 1.0)),
                p,
            ));
        }
    }

    #[test]
    fn streamed_extraction_matches_post_hoc_extraction() {
        let streaming = StreamingExtractor::new("synthetic");
        feed_synthetic(&streaming, 0.99, 0.6, 0.8);
        let ex = streaming.extract(&GrowthFunction::Linear).unwrap();
        assert!((ex.f - 0.99).abs() < 1e-9);
        assert!((ex.fcon - 0.6).abs() < 1e-9);
        assert!((ex.fored - 0.8).abs() < 1e-6);
        assert_eq!(ex.serial_growth.len(), 5);
    }

    #[test]
    fn streamed_calibration_selects_linear_growth() {
        let streaming = StreamingExtractor::new("synthetic");
        feed_synthetic(&streaming, 0.995, 0.5, 1.2);
        let calibrated = streaming.calibrate().unwrap();
        assert_eq!(calibrated.growth(), &GrowthFunction::Linear);
        assert!((calibrated.app_params().fored - 1.2).abs() < 1e-6);
    }

    #[test]
    fn absorb_profile_and_run_sink_agree() {
        let via_sink = StreamingExtractor::new("x");
        let via_profile = StreamingExtractor::new("x");
        for p in [1usize, 4] {
            let mut profile = RunProfile::new("x", p);
            let sink = via_sink.run_sink(p);
            for (kind, secs) in
                [(PhaseKind::Parallel, 1.0 / p as f64), (PhaseKind::Reduction, 0.01 * p as f64)]
            {
                let record = PhaseRecord::new(kind, "r", secs, p);
                sink.record(record.clone());
                profile.push(record);
            }
            via_profile.absorb_profile(&profile);
        }
        assert_eq!(via_sink.measured_runs(), via_profile.measured_runs());
    }

    #[test]
    fn totals_bucket_by_run_not_by_record_threads() {
        // A limited-scaling phase records fewer threads than the run; it must
        // still land in the run's bucket.
        let extractor = StreamingExtractor::new("hop");
        let sink = extractor.run_sink(8);
        sink.record(PhaseRecord::new(PhaseKind::Parallel, "build-tree", 0.5, 4));
        sink.record(PhaseRecord::new(PhaseKind::Parallel, "density", 1.0, 8));
        assert_eq!(extractor.thread_counts(), vec![8]);
        let runs = extractor.measured_runs();
        assert!((runs[0].parallel_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn null_sink_is_dead_and_profiler_is_live() {
        assert!(!NullSink.is_live());
        let profiler = Profiler::new("live", 2);
        assert!(profiler.is_live());
        profiler.record(PhaseRecord::new(PhaseKind::Parallel, "p", 1.0, 2));
        assert_eq!(profiler.record_count(), 1);
    }

    #[test]
    fn empty_extractor_yields_nothing() {
        let extractor = StreamingExtractor::new("empty");
        assert!(extractor.is_empty());
        assert!(extractor.extract(&GrowthFunction::Linear).is_none());
        assert!(extractor.calibrate().is_err());
    }
}
