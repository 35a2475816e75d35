//! Phase taxonomy and per-run profiles.
//!
//! A [`RunProfile`] is a flat list of timed [`PhaseRecord`]s produced by one
//! execution of a workload at a fixed thread count. Durations are stored as
//! `f64` seconds so that the same structures can carry wall-clock times (real
//! executions) and simulated times (cycles divided by a nominal frequency).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// Classification of an execution phase, mirroring the paper's section split
/// (Figure 1 / Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// One-time setup (data loading, memory allocation). The paper excludes
    /// initialisation when computing the serial fraction, and so do we.
    Init,
    /// The parallel section executed by all threads.
    Parallel,
    /// Serial work that does not depend on the thread count (e.g. convergence
    /// checks, final bookkeeping) — contributes to `fcon`.
    SerialConstant,
    /// The merging phase: combining per-thread partial results — contributes
    /// to `fred` and its growth to `fored`.
    Reduction,
    /// Communication performed on behalf of the merging phase (explicit
    /// exchanges of partial results). Only the simulator and the privatised
    /// reduction distinguish this from [`PhaseKind::Reduction`].
    Communication,
}

impl PhaseKind {
    /// Whether the phase counts toward the *serial section* in the paper's
    /// accounting (everything that is not the parallel section or
    /// initialisation).
    pub fn is_serial(&self) -> bool {
        matches!(self, PhaseKind::SerialConstant | PhaseKind::Reduction | PhaseKind::Communication)
    }

    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Init => "init",
            PhaseKind::Parallel => "parallel",
            PhaseKind::SerialConstant => "serial",
            PhaseKind::Reduction => "reduction",
            PhaseKind::Communication => "communication",
        }
    }
}

/// One timed phase instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// What kind of phase this was.
    pub kind: PhaseKind,
    /// Free-form label (e.g. `"assign-points"`, `"merge-centers"`). A `Cow`
    /// so static phase names (the simulator's, the schedulers') reach reports
    /// without a heap copy per record.
    pub label: Cow<'static, str>,
    /// Duration in seconds (wall-clock or simulated).
    pub seconds: f64,
    /// Number of threads active during the phase.
    pub threads: usize,
    /// Per-thread durations in seconds, indexed by thread id, when the phase
    /// was executed through the phase scheduler (empty otherwise). For a
    /// fork-join phase `seconds` is the wall-clock of the whole region while
    /// these samples expose the per-worker imbalance.
    pub thread_seconds: Vec<f64>,
}

impl PhaseRecord {
    /// A record with no per-thread samples.
    pub fn new(
        kind: PhaseKind,
        label: impl Into<Cow<'static, str>>,
        seconds: f64,
        threads: usize,
    ) -> Self {
        PhaseRecord { kind, label: label.into(), seconds, threads, thread_seconds: Vec::new() }
    }

    /// Attach per-thread duration samples (builder style).
    pub fn with_thread_seconds(mut self, thread_seconds: Vec<f64>) -> Self {
        self.thread_seconds = thread_seconds;
        self
    }

    /// Load imbalance of the phase: the slowest thread's time over the mean
    /// thread time (1.0 = perfectly balanced). Returns `None` without
    /// per-thread samples.
    pub fn imbalance(&self) -> Option<f64> {
        if self.thread_seconds.is_empty() {
            return None;
        }
        let max = self.thread_seconds.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.thread_seconds.iter().sum::<f64>() / self.thread_seconds.len() as f64;
        (mean > 0.0).then(|| max / mean)
    }
}

/// All timed phases of one run of a workload at a fixed thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Name of the workload (e.g. `"kmeans"`).
    pub app: String,
    /// Thread count the run used.
    pub threads: usize,
    /// The timed phases, in execution order.
    pub records: Vec<PhaseRecord>,
}

impl RunProfile {
    /// Create an empty profile.
    pub fn new(app: impl Into<String>, threads: usize) -> Self {
        RunProfile { app: app.into(), threads, records: Vec::new() }
    }

    /// Append a record.
    pub fn push(&mut self, record: PhaseRecord) {
        self.records.push(record);
    }

    /// Total time across all phases, *excluding* initialisation (the paper's
    /// accounting subtracts initialisation before computing fractions).
    pub fn total_time(&self) -> f64 {
        self.records.iter().filter(|r| r.kind != PhaseKind::Init).map(|r| r.seconds).sum()
    }

    /// Total time including initialisation.
    pub fn total_time_with_init(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }

    /// Total time spent in phases of the given kind.
    pub fn time_in(&self, kind: PhaseKind) -> f64 {
        self.records.iter().filter(|r| r.kind == kind).map(|r| r.seconds).sum()
    }

    /// Time spent in the serial section (constant serial + reduction +
    /// communication), the quantity whose growth Figure 2(b)/(c) plots.
    pub fn serial_time(&self) -> f64 {
        self.records.iter().filter(|r| r.kind.is_serial()).map(|r| r.seconds).sum()
    }

    /// Time spent in the parallel section.
    pub fn parallel_time(&self) -> f64 {
        self.time_in(PhaseKind::Parallel)
    }

    /// Time spent in the merging phase (reduction + its communication).
    pub fn reduction_time(&self) -> f64 {
        self.time_in(PhaseKind::Reduction) + self.time_in(PhaseKind::Communication)
    }

    /// Time spent in constant serial work.
    pub fn constant_serial_time(&self) -> f64 {
        self.time_in(PhaseKind::SerialConstant)
    }

    /// Serial fraction of this run: serial time over total (init excluded).
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total_time();
        if total > 0.0 {
            self.serial_time() / total
        } else {
            0.0
        }
    }

    /// Parallel fraction of this run.
    pub fn parallel_fraction(&self) -> f64 {
        let total = self.total_time();
        if total > 0.0 {
            self.parallel_time() / total
        } else {
            0.0
        }
    }

    /// Merge another profile's records into this one (used when a run is
    /// composed of several instrumented stages).
    pub fn absorb(&mut self, other: RunProfile) {
        self.records.extend(other.records);
    }

    /// Collapse the profile into the model-level section totals used by the
    /// paper's accounting (and by [`mp_model::calibrate::CalibratedParams`]).
    pub fn to_measured_run(&self) -> mp_model::calibrate::MeasuredRun {
        mp_model::calibrate::MeasuredRun {
            threads: self.threads,
            parallel_seconds: self.parallel_time(),
            serial_constant_seconds: self.constant_serial_time(),
            reduction_seconds: self.time_in(PhaseKind::Reduction),
            communication_seconds: self.time_in(PhaseKind::Communication),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: PhaseKind, seconds: f64) -> PhaseRecord {
        PhaseRecord::new(kind, kind.name(), seconds, 4)
    }

    fn sample_profile() -> RunProfile {
        let mut p = RunProfile::new("kmeans", 4);
        p.push(rec(PhaseKind::Init, 5.0));
        p.push(rec(PhaseKind::Parallel, 80.0));
        p.push(rec(PhaseKind::SerialConstant, 2.0));
        p.push(rec(PhaseKind::Reduction, 3.0));
        p.push(rec(PhaseKind::Communication, 1.0));
        p
    }

    #[test]
    fn serial_phases_classified_correctly() {
        assert!(!PhaseKind::Init.is_serial());
        assert!(!PhaseKind::Parallel.is_serial());
        assert!(PhaseKind::SerialConstant.is_serial());
        assert!(PhaseKind::Reduction.is_serial());
        assert!(PhaseKind::Communication.is_serial());
    }

    #[test]
    fn totals_exclude_init() {
        let p = sample_profile();
        assert_eq!(p.total_time(), 86.0);
        assert_eq!(p.total_time_with_init(), 91.0);
    }

    #[test]
    fn section_accessors() {
        let p = sample_profile();
        assert_eq!(p.parallel_time(), 80.0);
        assert_eq!(p.serial_time(), 6.0);
        assert_eq!(p.reduction_time(), 4.0);
        assert_eq!(p.constant_serial_time(), 2.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = sample_profile();
        assert!((p.serial_fraction() + p.parallel_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_zero_fractions() {
        let p = RunProfile::new("empty", 1);
        assert_eq!(p.total_time(), 0.0);
        assert_eq!(p.serial_fraction(), 0.0);
        assert_eq!(p.parallel_fraction(), 0.0);
    }

    #[test]
    fn absorb_concatenates_records() {
        let mut a = sample_profile();
        let b = sample_profile();
        let before = a.records.len();
        a.absorb(b);
        assert_eq!(a.records.len(), before * 2);
        assert_eq!(a.parallel_time(), 160.0);
    }

    #[test]
    fn profile_serializes_roundtrip() {
        let p = sample_profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: RunProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
