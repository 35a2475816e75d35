//! The instrumented phase executor.
//!
//! A workload's `run` is its phase loop, written out: it builds one
//! [`PhaseExec`] over the caller's [`RecordSink`] and runs every phase
//! through it. The method a workload calls fixes the phase's accounting kind —
//! [`init`](PhaseExec::init) is setup, [`parallel`](PhaseExec::parallel) and
//! [`parallel_task`](PhaseExec::parallel_task) are parallel work,
//! [`reduce`](PhaseExec::reduce) and [`reduce_with`](PhaseExec::reduce_with)
//! are the merging phase, [`serial`](PhaseExec::serial) is constant serial
//! work. Every call executes the phase with the right fork-join primitive,
//! times it — including one sample per worker thread for fork-join phases —
//! and streams a [`PhaseRecord`] into the sink.
//!
//! The workload never touches a timer or a profiler; the conventions the
//! paper's accounting depends on (what counts as parallel vs. reduction vs.
//! constant serial time) live here, once.
//!
//! ## Example
//!
//! ```
//! use mp_par::ReductionStrategy;
//! use mp_profile::Profiler;
//! use mp_workloads::exec::PhaseExec;
//!
//! // Parallel dot-product with an explicit merging phase.
//! let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
//! let profiler = Profiler::new("dot", 4);
//! let exec = PhaseExec::new(&profiler, 4);
//! let partials = exec.parallel("multiply", x.len(), |_ctx, range| {
//!     vec![range.map(|i| x[i] * x[i]).sum::<f64>()]
//! });
//! let (merged, _) = exec.reduce("merge", &partials, ReductionStrategy::TreeLog);
//! let dot = exec.serial("store", || merged[0]);
//! assert_eq!(dot, (0..64).map(|i| (i * i) as f64).sum::<f64>());
//!
//! let run = profiler.finish().to_measured_run();
//! assert!(run.parallel_seconds >= 0.0 && run.reduction_seconds >= 0.0);
//! ```

use std::time::Instant;

use mp_par::pool::{parallel_partials, ThreadCtx};
use mp_par::reduce::{reduce_elementwise, ReduceStats, ReductionStrategy};
use mp_profile::stream::RecordSink;
use mp_profile::{PhaseKind, PhaseRecord};

/// Executes and instruments the phases of one run.
pub struct PhaseExec<'a> {
    sink: &'a dyn RecordSink,
    threads: usize,
}

impl<'a> PhaseExec<'a> {
    /// An executor running every phase on `threads` worker threads (thread
    /// 0 is the caller) and streaming its records into `sink` (a
    /// [`mp_profile::NullSink`] skips the timing entirely).
    pub fn new(sink: &'a dyn RecordSink, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        PhaseExec { sink, threads }
    }

    /// The run's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn record(&self, kind: PhaseKind, label: &str, seconds: f64, threads: usize) {
        self.sink.record(PhaseRecord::new(kind, label.to_owned(), seconds, threads));
    }

    /// Run an init phase (setup excluded from the paper's accounting).
    pub fn init<T>(&self, label: &str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::Init, label, body)
    }

    /// Run a parallel phase: fork-join over chunks of `0..len` with one
    /// partial result per thread (in thread order), timing every worker
    /// individually.
    pub fn parallel<T, F>(&self, label: &str, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadCtx, std::ops::Range<usize>) -> T + Sync,
    {
        if !self.sink.is_live() {
            return parallel_partials(self.threads, len, f);
        }
        let start = Instant::now();
        let timed: Vec<(T, f64)> = parallel_partials(self.threads, len, |ctx, range| {
            let thread_start = Instant::now();
            let out = f(ctx, range);
            (out, thread_start.elapsed().as_secs_f64())
        });
        let seconds = start.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(timed.len());
        let mut samples = Vec::with_capacity(timed.len());
        for (out, sample) in timed {
            results.push(out);
            samples.push(sample);
        }
        self.sink.record(
            PhaseRecord::new(PhaseKind::Parallel, label.to_owned(), seconds, self.threads)
                .with_thread_seconds(samples),
        );
        results
    }

    /// Run a parallel phase whose kernel manages its own threads (e.g. a
    /// recursive tree build) on at most `cap` threads — MineBench's
    /// limited-parallelism kernels. The closure receives the effective thread
    /// count, `min(threads, cap)`, and the phase is timed as a whole.
    pub fn parallel_task<T>(&self, label: &str, cap: usize, body: impl FnOnce(usize) -> T) -> T {
        assert!(cap > 0, "phase `{label}` must allow at least one thread");
        let effective = self.threads.min(cap);
        if !self.sink.is_live() {
            return body(effective);
        }
        let start = Instant::now();
        let out = body(effective);
        self.record(PhaseKind::Parallel, label, start.elapsed().as_secs_f64(), effective);
        out
    }

    /// Run the merging phase over element-wise partials with the given
    /// [`ReductionStrategy`], recording the merge as reduction time.
    pub fn reduce(
        &self,
        label: &str,
        partials: &[Vec<f64>],
        strategy: ReductionStrategy,
    ) -> (Vec<f64>, ReduceStats) {
        // The serial-linear merge runs on the calling thread; the tree and
        // privatised merges fan out over the run's workers, and the record
        // reflects that.
        let threads = match strategy {
            ReductionStrategy::SerialLinear => 1,
            ReductionStrategy::TreeLog | ReductionStrategy::ParallelPrivatized => self.threads,
        };
        if !self.sink.is_live() {
            return reduce_elementwise(partials, strategy, self.threads);
        }
        let start = Instant::now();
        let out = reduce_elementwise(partials, strategy, self.threads);
        self.record(PhaseKind::Reduction, label, start.elapsed().as_secs_f64(), threads);
        out
    }

    /// Run a merging phase with a custom combine (e.g. hashed group tables);
    /// the whole closure is recorded as reduction time.
    pub fn reduce_with<T>(&self, label: &str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::Reduction, label, body)
    }

    /// Run a constant serial phase.
    pub fn serial<T>(&self, label: &str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::SerialConstant, label, body)
    }

    fn timed_serial<T>(&self, kind: PhaseKind, label: &str, body: impl FnOnce() -> T) -> T {
        if !self.sink.is_live() {
            return body();
        }
        let start = Instant::now();
        let out = body();
        self.record(kind, label, start.elapsed().as_secs_f64(), 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_profile::stream::NullSink;
    use mp_profile::Profiler;

    #[test]
    fn phases_record_with_per_thread_samples() {
        let profiler = Profiler::new("t", 4);
        let exec = PhaseExec::new(&profiler, 4);
        let partials = exec.parallel("work", 100, |_ctx, range| range.len() as f64);
        assert_eq!(partials.len(), 4);
        assert_eq!(partials.iter().sum::<f64>(), 100.0);
        let profile = profiler.finish();
        assert_eq!(profile.records.len(), 1);
        let record = &profile.records[0];
        assert_eq!(record.kind, PhaseKind::Parallel);
        assert_eq!(record.thread_seconds.len(), 4);
    }

    #[test]
    fn limited_phase_caps_the_thread_count() {
        let profiler = Profiler::new("t", 8);
        let exec = PhaseExec::new(&profiler, 8);
        exec.parallel("work", 8, |_ctx, r| r.len());
        exec.parallel_task("limited", 2, |_threads| ());
        let profile = profiler.finish();
        assert_eq!(profile.records[0].threads, 8);
        assert_eq!(profile.records[1].threads, 2, "cap of 2 must override the run's 8 threads");
        assert!(profile.records[1].thread_seconds.is_empty());
    }

    #[test]
    fn dead_sink_skips_instrumentation_but_runs_bodies() {
        let exec = PhaseExec::new(&NullSink, 2);
        let partials = exec.parallel("work", 10, |_ctx, r| r.len());
        assert_eq!(partials.iter().sum::<usize>(), 10);
        assert_eq!(exec.parallel_task("limited", 4, |threads| threads), 2);
        let (merged, _) =
            exec.reduce("merge", &[vec![1.0], vec![2.0]], ReductionStrategy::SerialLinear);
        assert_eq!(merged, vec![3.0]);
        assert_eq!(exec.serial("check", || 7), 7);
    }

    #[test]
    fn reduce_merges_and_counts() {
        let profiler = Profiler::new("t", 3);
        let exec = PhaseExec::new(&profiler, 3);
        let partials = exec.parallel("work", 30, |_ctx, range| vec![range.len() as f64]);
        exec.parallel_task("limited", 2, |_threads| ());
        let (merged, stats) = exec.reduce("merge", &partials, ReductionStrategy::SerialLinear);
        assert_eq!(merged, vec![30.0]);
        assert_eq!(stats.partials, 3);
        let sum: f64 = exec.serial("check", || merged.iter().sum());
        assert_eq!(sum, 30.0);
        let profile = profiler.finish();
        assert_eq!(profile.records.len(), 4);
        assert_eq!(profile.records[2].kind, PhaseKind::Reduction);
    }

    #[test]
    fn parallel_task_receives_effective_threads() {
        let profiler = Profiler::new("t", 8);
        let exec = PhaseExec::new(&profiler, 8);
        assert_eq!(exec.parallel_task("limited", 2, |threads| threads), 2);
        assert_eq!(exec.parallel_task("uncapped", usize::MAX, |threads| threads), 8);
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        PhaseExec::new(&NullSink, 0);
    }

    #[test]
    #[should_panic]
    fn zero_thread_cap_is_rejected() {
        PhaseExec::new(&NullSink, 2).parallel_task("build", 0, |_threads| ());
    }
}
