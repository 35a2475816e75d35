//! Phase taxonomy and per-run profiles.
//!
//! A run is its timed phase records. A [`RunProfile`] is a flat list of
//! [`PhaseRecord`]s produced by one execution of a workload at a fixed thread
//! count, and [`RunProfile::to_measured_run`] is the one fold from those
//! records to the section totals ([`MeasuredRun`]) from which
//! [`crate::calibrate::RunAccounting`] reads the paper's `f`, `fcon`, `fred`,
//! `fored` (Section V-A). Durations are stored as `f64` seconds so that the
//! same structures carry wall-clock times (real executions) and simulated
//! times (cycles divided by a nominal frequency).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::calibrate::MeasuredRun;

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
    /// so static phase names (the simulator's, the workloads') reach reports
    /// without a heap copy per record.
    pub label: Cow<'static, str>,
    /// Duration in seconds (wall-clock or simulated).
    pub seconds: f64,
    /// Number of threads active during the phase.
    pub threads: usize,
    /// Per-thread durations in seconds, indexed by thread id, when the phase
    /// was a fork-join run by `mp_workloads::exec::PhaseExec::parallel`
    /// (empty otherwise). For a fork-join phase `seconds` is the wall-clock
    /// of the whole region while these samples expose the per-worker
    /// imbalance.
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

    /// Fold the records into the section totals the paper's accounting reads:
    /// initialisation is dropped, every other kind is summed in record order.
    pub fn to_measured_run(&self) -> MeasuredRun {
        let mut run = MeasuredRun::new(self.threads, 0.0, 0.0, 0.0);
        for record in &self.records {
            let total = match record.kind {
                PhaseKind::Init => continue,
                PhaseKind::Parallel => &mut run.parallel_seconds,
                PhaseKind::SerialConstant => &mut run.serial_constant_seconds,
                PhaseKind::Reduction => &mut run.reduction_seconds,
                PhaseKind::Communication => &mut run.communication_seconds,
            };
            *total += record.seconds;
        }
        run
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
    fn measured_run_sums_each_kind_and_drops_init() {
        let mut p = sample_profile();
        p.push(rec(PhaseKind::Reduction, 0.5));
        let run = p.to_measured_run();
        assert_eq!(run.threads, 4);
        assert_eq!(run.parallel_seconds, 80.0);
        assert_eq!(run.serial_constant_seconds, 2.0);
        assert_eq!(run.reduction_seconds, 3.5);
        assert_eq!(run.communication_seconds, 1.0);
        assert_eq!(run.total_seconds(), 86.5);
    }

    #[test]
    fn empty_profile_has_zero_totals() {
        let run = RunProfile::new("empty", 1).to_measured_run();
        assert_eq!(run, MeasuredRun::new(1, 0.0, 0.0, 0.0));
    }

    #[test]
    fn profile_serializes_roundtrip() {
        let p = sample_profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: RunProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
