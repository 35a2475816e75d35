//! A thread-safe phase profiler.
//!
//! The [`Profiler`] keeps every [`PhaseRecord`] of one run: the workload's
//! phase executor streams them in through its [`RecordSink`] impl, and
//! [`Profiler::finish`] hands them over as a [`RunProfile`].

use parking_lot::Mutex;

use crate::phase::{PhaseRecord, RunProfile};
use crate::stream::RecordSink;

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

    /// Produce the final [`RunProfile`], consuming the profiler.
    pub fn finish(self) -> RunProfile {
        RunProfile { app: self.app, threads: self.threads, records: self.records.into_inner() }
    }
}

impl RecordSink for Profiler {
    fn record(&self, record: PhaseRecord) {
        self.records.lock().push(record);
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
    fn record_keeps_the_record_as_given() {
        let p = Profiler::new("test", 2);
        p.record(record(PhaseKind::Parallel, "work", 0.5, 2).with_thread_seconds(vec![0.25, 0.5]));
        let profile = p.finish();
        assert_eq!(profile.app, "test");
        assert_eq!(profile.threads, 2);
        assert_eq!(profile.records.len(), 1);
        assert_eq!(profile.records[0].kind, PhaseKind::Parallel);
        assert_eq!(profile.records[0].threads, 2);
        assert_eq!(profile.records[0].thread_seconds, vec![0.25, 0.5]);
    }

    #[test]
    fn recorded_durations_are_stored_exactly() {
        let p = Profiler::new("test", 8);
        p.record(record(PhaseKind::Reduction, "merge", 1.25, 8));
        p.record(record(PhaseKind::Reduction, "merge", 0.75, 8));
        let profile = p.finish();
        assert_eq!(profile.to_measured_run().reduction_seconds, 2.0);
    }

    #[test]
    fn profiler_is_usable_from_multiple_threads() {
        let p = Profiler::new("mt", 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        p.record(record(PhaseKind::Parallel, "chunk", 0.01, 4));
                    }
                });
            }
        });
        assert_eq!(p.finish().records.len(), 40);
    }
}
