//! The phased-workload scheduler.
//!
//! [`PhaseScheduler::run`] drives a [`PhasedWorkload`] through its loop —
//! init once, the body until the workload breaks or its iteration limit is
//! reached, finalize once — handing the workload a [`PhaseExec`] that
//! streams every instrumented record into the caller's [`RecordSink`].

use mp_profile::stream::RecordSink;

use crate::exec::PhaseExec;

/// Loop control returned by one body iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Run another iteration (until the workload's limit).
    Continue,
    /// The workload converged; skip to finalize.
    Break,
}

/// A workload expressed as phases, executed and instrumented by
/// [`PhaseScheduler`]. The [`PhaseExec`] calls it makes are its phase
/// structure: each call's method fixes the phase's accounting kind.
///
/// The four clustering workloads implement this; anything that does makes
/// itself a drop-in scenario for the characterisation sweep, the streaming
/// parameter extraction and (through calibration) the design-space engine.
pub trait PhasedWorkload {
    /// Mutable state threaded through the run.
    type State;
    /// Final result assembled by finalize.
    type Output;

    /// Workload name, used for profiles and reports.
    fn name(&self) -> &str;

    /// Upper bound on the number of body iterations (1 for a single pass).
    fn max_iterations(&self) -> usize;

    /// Run the init phases and build the initial state.
    fn init(&self, exec: &PhaseExec<'_>) -> Self::State;

    /// Run one pass of the body. `iter` counts from zero.
    fn iteration(&self, state: &mut Self::State, exec: &PhaseExec<'_>, iter: usize) -> Control;

    /// Run the finalize phases and assemble the output.
    fn finalize(&self, state: Self::State, exec: &PhaseExec<'_>) -> Self::Output;
}

/// Outcome of a scheduled run: the workload output plus loop bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome<T> {
    /// The workload's output.
    pub output: T,
    /// Body iterations executed.
    pub iterations: usize,
    /// Whether the workload broke out before the iteration limit.
    pub converged: bool,
}

/// Executes phased workloads at a fixed thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseScheduler {
    threads: usize,
}

impl PhaseScheduler {
    /// A scheduler using `threads` worker threads (thread 0 is the caller).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        PhaseScheduler { threads }
    }

    /// The scheduler's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `workload` to completion, streaming instrumented records into
    /// `sink` (a [`mp_profile::NullSink`] skips the timing entirely).
    pub fn run<W: PhasedWorkload>(
        &self,
        workload: &W,
        sink: &dyn RecordSink,
    ) -> RunOutcome<W::Output> {
        let exec = PhaseExec::new(sink, self.threads);
        let mut state = workload.init(&exec);
        let mut iterations = 0usize;
        let mut converged = false;
        for iter in 0..workload.max_iterations() {
            let control = workload.iteration(&mut state, &exec, iter);
            iterations += 1;
            if control == Control::Break {
                converged = true;
                break;
            }
        }
        let output = workload.finalize(state, &exec);
        RunOutcome { output, iterations, converged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_profile::{NullSink, PhaseKind, Profiler, StreamingExtractor};

    /// A miniature kmeans-shaped workload: sums chunks in parallel, merges,
    /// and converges after a fixed number of iterations.
    struct MiniWorkload {
        items: usize,
        converge_after: usize,
    }

    impl PhasedWorkload for MiniWorkload {
        type State = (Vec<f64>, usize);
        type Output = f64;

        fn name(&self) -> &str {
            "mini"
        }

        fn max_iterations(&self) -> usize {
            10
        }

        fn init(&self, exec: &PhaseExec<'_>) -> Self::State {
            (exec.init("alloc", || vec![0.0; 1]), 0)
        }

        fn iteration(&self, state: &mut Self::State, exec: &PhaseExec<'_>, iter: usize) -> Control {
            let partials = exec.parallel("sum-chunks", self.items, |_ctx, range| {
                vec![range.map(|i| i as f64).sum::<f64>()]
            });
            let (merged, _stats) =
                exec.reduce("merge", &partials, mp_par::ReductionStrategy::SerialLinear);
            let done = exec.serial("check", || {
                state.0 = merged;
                state.1 = iter + 1;
                iter + 1 >= self.converge_after
            });
            if done {
                Control::Break
            } else {
                Control::Continue
            }
        }

        fn finalize(&self, state: Self::State, exec: &PhaseExec<'_>) -> Self::Output {
            exec.serial("report", || state.0[0])
        }
    }

    #[test]
    fn scheduler_runs_the_workload_loop() {
        let w = MiniWorkload { items: 100, converge_after: 3 };
        let profiler = Profiler::new(w.name(), 4);
        let outcome = PhaseScheduler::new(4).run(&w, &profiler);
        let profile = profiler.finish();
        let expect: f64 = (0..100).map(|i| i as f64).sum();
        assert_eq!(outcome.output, expect);
        assert_eq!(outcome.iterations, 3);
        assert!(outcome.converged);
        // 1 init + 3 iterations × 3 phases + 1 finalize = 11 records.
        assert_eq!(profile.records.len(), 11);
        assert_eq!(profile.app, "mini");
        assert!(profile.parallel_time() >= 0.0);
        assert!(profile.time_in(PhaseKind::Init) >= 0.0);
    }

    #[test]
    fn iteration_limit_stops_a_non_converging_workload() {
        let w = MiniWorkload { items: 10, converge_after: usize::MAX };
        let outcome = PhaseScheduler::new(2).run(&w, &NullSink);
        assert_eq!(outcome.iterations, 10);
        assert!(!outcome.converged);
    }

    #[test]
    fn results_are_thread_count_independent() {
        let w = MiniWorkload { items: 1000, converge_after: 2 };
        let base = PhaseScheduler::new(1).run(&w, &NullSink).output;
        for threads in [2usize, 3, 8, 16] {
            assert_eq!(PhaseScheduler::new(threads).run(&w, &NullSink).output, base);
        }
    }

    #[test]
    fn records_stream_into_an_extractor() {
        let w = MiniWorkload { items: 5000, converge_after: 4 };
        let extractor = StreamingExtractor::new("mini");
        for threads in [1usize, 2, 4] {
            let sink = extractor.run_sink(threads);
            PhaseScheduler::new(threads).run(&w, &sink);
        }
        assert_eq!(extractor.thread_counts(), vec![1, 2, 4]);
        let runs = extractor.measured_runs();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.parallel_seconds > 0.0));
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        PhaseScheduler::new(0);
    }
}
