//! A thread-safe phase profiler.
//!
//! The [`Profiler`] accumulates [`PhaseRecord`]s for one run: the phase
//! scheduler streams them in through its [`crate::RecordSink`] impl. A
//! profiler is cheap to clone-out into a [`RunProfile`] at the end of the
//! run.

use parking_lot::Mutex;

use crate::phase::{PhaseRecord, RunProfile};

/// Accumulates timed phases for a single run of a workload.
#[derive(Debug)]
pub struct Profiler {
    app: String,
    threads: usize,
    records: Mutex<Vec<PhaseRecord>>,
}

impl Profiler {
    /// Create a profiler for a run of `app` at `threads` threads.
    pub fn new(app: impl Into<String>, threads: usize) -> Self {
        Profiler { app: app.into(), threads, records: Mutex::new(Vec::new()) }
    }

    /// The thread count this profiler was created for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record a fully-formed phase record (e.g. one carrying per-thread
    /// samples from the phase scheduler).
    pub fn record_phase(&self, record: PhaseRecord) {
        self.records.lock().push(record);
    }

    /// Number of records accumulated so far.
    pub fn record_count(&self) -> usize {
        self.records.lock().len()
    }

    /// Produce the final [`RunProfile`], consuming the profiler.
    pub fn finish(self) -> RunProfile {
        RunProfile { app: self.app, threads: self.threads, records: self.records.into_inner() }
    }

    /// Produce a snapshot [`RunProfile`] without consuming the profiler.
    pub fn snapshot(&self) -> RunProfile {
        RunProfile {
            app: self.app.clone(),
            threads: self.threads,
            records: self.records.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;

    fn record(kind: PhaseKind, label: &'static str, seconds: f64, threads: usize) -> PhaseRecord {
        PhaseRecord::new(kind, label, seconds, threads)
    }

    #[test]
    fn record_phase_keeps_the_record_as_given() {
        let p = Profiler::new("test", 2);
        p.record_phase(
            record(PhaseKind::Parallel, "work", 0.5, 2).with_thread_seconds(vec![0.25, 0.5]),
        );
        let profile = p.finish();
        assert_eq!(profile.records.len(), 1);
        assert_eq!(profile.records[0].kind, PhaseKind::Parallel);
        assert_eq!(profile.records[0].threads, 2);
        assert_eq!(profile.records[0].thread_seconds, vec![0.25, 0.5]);
    }

    #[test]
    fn recorded_durations_are_stored_exactly() {
        let p = Profiler::new("test", 8);
        p.record_phase(record(PhaseKind::Reduction, "merge", 1.25, 8));
        p.record_phase(record(PhaseKind::Reduction, "merge", 0.75, 8));
        let profile = p.finish();
        assert_eq!(profile.reduction_time(), 2.0);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let p = Profiler::new("snap", 4);
        p.record_phase(record(PhaseKind::SerialConstant, "check", 0.5, 1));
        let s1 = p.snapshot();
        p.record_phase(record(PhaseKind::SerialConstant, "check", 0.5, 1));
        let s2 = p.snapshot();
        assert_eq!(s1.records.len(), 1);
        assert_eq!(s2.records.len(), 2);
    }

    #[test]
    fn profiler_is_usable_from_multiple_threads() {
        let p = Profiler::new("mt", 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        p.record_phase(record(PhaseKind::Parallel, "chunk", 0.01, 4));
                    }
                });
            }
        });
        assert_eq!(p.record_count(), 40);
    }
}
