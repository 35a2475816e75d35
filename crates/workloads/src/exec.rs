//! The instrumented phase executor.
//!
//! A workload's `run` is its phase loop, written out: it builds one
//! [`PhaseExec`] for the run and runs every phase through it. The method a
//! workload calls fixes the phase's accounting kind —
//! [`init`](PhaseExec::init) is setup, [`parallel`](PhaseExec::parallel) and
//! [`parallel_task`](PhaseExec::parallel_task) are parallel work,
//! [`reduce`](PhaseExec::reduce) and [`reduce_with`](PhaseExec::reduce_with)
//! are the merging phase, [`serial`](PhaseExec::serial) is constant serial
//! work. Every call executes the phase, times it — including one sample per
//! partial for parallel phases — and appends a [`PhaseRecord`] to the run's
//! log, which [`finish`](PhaseExec::finish) hands back as the run's
//! [`RunProfile`].
//!
//! A run of `P` threads forks on one [`Team`], built with the executor: the
//! caller plus `min(P, cores) − 1` persistent pool workers. Every parallel
//! phase computes `P` logical partials on it — partial `tid` over
//! `chunk_range(tid, P, n)`, whichever member runs it — and the tree and
//! privatised merges fork on it too, as does the k-d tree build of a
//! [`parallel_task`](PhaseExec::parallel_task), so no phase starts a thread
//! and `P` may exceed the host's cores. The results depend on `P` alone.
//!
//! The workload never touches a timer; the conventions the paper's
//! accounting depends on (what counts as parallel vs. reduction vs. constant
//! serial time) live here, once.
//!
//! ## Example
//!
//! ```
//! use mp_par::ReductionStrategy;
//! use mp_workloads::exec::PhaseExec;
//!
//! // Parallel dot-product with an explicit merging phase.
//! let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
//! let mut exec = PhaseExec::new("dot", 4);
//! let partials = exec.parallel("multiply", x.len(), |_ctx, range| {
//!     vec![range.map(|i| x[i] * x[i]).sum::<f64>()]
//! });
//! let merged = exec.reduce("merge", &partials, ReductionStrategy::TreeLog);
//! let dot = exec.serial("store", || merged[0]);
//! assert_eq!(dot, (0..64).map(|i| (i * i) as f64).sum::<f64>());
//!
//! let run = exec.finish().to_measured_run();
//! assert!(run.parallel_seconds >= 0.0 && run.reduction_seconds >= 0.0);
//! ```

use std::time::Instant;

use mp_model::phase::{PhaseKind, PhaseRecord, RunProfile};
use mp_par::pool::{Team, ThreadCtx};
use mp_par::reduce::{reduce_elementwise, ReductionStrategy};

/// Executes and times the phases of one run, keeping their records.
pub struct PhaseExec {
    team: Team,
    profile: RunProfile,
}

impl PhaseExec {
    /// An executor for one run of `app` at `threads` logical threads, forking
    /// on a team of `min(threads, cores)` members (the caller is one).
    pub fn new(app: &str, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        PhaseExec { team: Team::for_threads(threads), profile: RunProfile::new(app, threads) }
    }

    /// The run's thread count.
    pub fn threads(&self) -> usize {
        self.profile.threads
    }

    /// The run's records, in execution order.
    pub fn finish(self) -> RunProfile {
        self.profile
    }

    fn record(&mut self, kind: PhaseKind, label: &'static str, start: Instant, threads: usize) {
        let seconds = start.elapsed().as_secs_f64();
        self.profile.push(PhaseRecord::new(kind, label, seconds, threads));
    }

    /// Run an init phase (setup excluded from the paper's accounting).
    pub fn init<T>(&mut self, label: &'static str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::Init, label, body)
    }

    /// Run a parallel phase: one partial result per logical thread, computed
    /// over that thread's chunk of `0..len` and returned in thread order,
    /// each partial timed individually.
    pub fn parallel<T, F>(&mut self, label: &'static str, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadCtx, std::ops::Range<usize>) -> T + Sync,
    {
        let threads = self.threads();
        let start = Instant::now();
        let timed: Vec<(T, f64)> = self.team.partials(threads, len, |ctx, range| {
            let thread_start = Instant::now();
            let out = f(ctx, range);
            (out, thread_start.elapsed().as_secs_f64())
        });
        let seconds = start.elapsed().as_secs_f64();
        let (results, samples) = timed.into_iter().unzip();
        self.profile.push(
            PhaseRecord::new(PhaseKind::Parallel, label, seconds, threads)
                .with_thread_seconds(samples),
        );
        results
    }

    /// Run a parallel phase whose kernel schedules its own forks (e.g. a
    /// recursive tree build) on at most `cap` threads — MineBench's
    /// limited-parallelism kernels. The closure gets the run's team and the
    /// effective thread count, `min(threads, cap)`; the phase is timed whole.
    pub fn parallel_task<T>(
        &mut self,
        label: &'static str,
        cap: usize,
        body: impl FnOnce(&Team, usize) -> T,
    ) -> T {
        assert!(cap > 0, "phase `{label}` must allow at least one thread");
        let effective = self.threads().min(cap);
        let start = Instant::now();
        let out = body(&self.team, effective);
        self.record(PhaseKind::Parallel, label, start, effective);
        out
    }

    /// Run the merging phase over element-wise partials with the given
    /// [`ReductionStrategy`], recording the merge as reduction time.
    pub fn reduce(
        &mut self,
        label: &'static str,
        partials: &[Vec<f64>],
        strategy: ReductionStrategy,
    ) -> Vec<f64> {
        // The serial-linear merge runs on the calling thread; the tree and
        // privatised merges fan out over the run's team, and the record
        // reflects that.
        let threads = match strategy {
            ReductionStrategy::SerialLinear => 1,
            ReductionStrategy::TreeLog | ReductionStrategy::ParallelPrivatized => self.threads(),
        };
        let start = Instant::now();
        let out = reduce_elementwise(partials, strategy, &self.team);
        self.record(PhaseKind::Reduction, label, start, threads);
        out
    }

    /// Run a merging phase with a custom combine (e.g. hashed group tables);
    /// the whole closure is recorded as reduction time.
    pub fn reduce_with<T>(&mut self, label: &'static str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::Reduction, label, body)
    }

    /// Run a constant serial phase.
    pub fn serial<T>(&mut self, label: &'static str, body: impl FnOnce() -> T) -> T {
        self.timed_serial(PhaseKind::SerialConstant, label, body)
    }

    fn timed_serial<T>(
        &mut self,
        kind: PhaseKind,
        label: &'static str,
        body: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = body();
        self.record(kind, label, start, 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_with_per_thread_samples() {
        let mut exec = PhaseExec::new("t", 4);
        let partials = exec.parallel("work", 100, |_ctx, range| range.len() as f64);
        assert_eq!(partials.len(), 4);
        assert_eq!(partials.iter().sum::<f64>(), 100.0);
        let profile = exec.finish();
        assert_eq!((profile.app.as_str(), profile.threads), ("t", 4));
        assert_eq!(profile.records.len(), 1);
        let record = &profile.records[0];
        assert_eq!(record.kind, PhaseKind::Parallel);
        assert_eq!(record.thread_seconds.len(), 4);
    }

    #[test]
    fn a_run_forks_every_phase_on_one_team_of_at_most_the_cores() {
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let note = || {
            seen.lock().unwrap().insert(std::thread::current().id());
        };
        let mut exec = PhaseExec::new("t", 64);
        for strategy in [ReductionStrategy::TreeLog, ReductionStrategy::ParallelPrivatized] {
            let partials = exec.parallel("work", 640, |ctx, range| {
                note();
                vec![ctx.tid as f64, range.start as f64, range.len() as f64]
            });
            let in_tid_order: Vec<Vec<f64>> =
                (0..64).map(|tid| vec![tid as f64, (tid * 10) as f64, 10.0]).collect();
            assert_eq!(partials, in_tid_order);
            let merged = exec.reduce("merge", &partials, strategy);
            assert_eq!(merged, vec![2016.0, 20160.0, 640.0]);
            exec.reduce_with("merge-with", note);
            exec.parallel_task("task", 64, |team, threads| team.run(threads, |_| note()));
        }
        let seen = seen.into_inner().unwrap();
        assert!(seen.len() <= cores.min(64), "{} threads on {cores} cores", seen.len());
        let profile = exec.finish();
        let parallel: Vec<(&str, usize, usize)> = profile
            .records
            .iter()
            .filter(|r| r.kind == PhaseKind::Parallel)
            .map(|r| (&*r.label, r.threads, r.thread_seconds.len()))
            .collect();
        assert_eq!(
            parallel,
            [("work", 64, 64), ("task", 64, 0), ("work", 64, 64), ("task", 64, 0)]
        );
    }

    #[test]
    fn limited_phase_caps_the_thread_count() {
        let mut exec = PhaseExec::new("t", 8);
        exec.parallel("work", 8, |_ctx, r| r.len());
        exec.parallel_task("limited", 2, |_, _| ());
        let profile = exec.finish();
        assert_eq!(profile.records[0].threads, 8);
        assert_eq!(profile.records[1].threads, 2, "cap of 2 must override the run's 8 threads");
        assert!(profile.records[1].thread_seconds.is_empty());
    }

    #[test]
    fn reduce_merges_and_counts() {
        let mut exec = PhaseExec::new("t", 3);
        let partials = exec.parallel("work", 30, |_ctx, range| vec![range.len() as f64]);
        exec.parallel_task("limited", 2, |_, _| ());
        let merged = exec.reduce("merge", &partials, ReductionStrategy::SerialLinear);
        assert_eq!(merged, vec![30.0]);
        let sum: f64 = exec.serial("check", || merged.iter().sum());
        assert_eq!(sum, 30.0);
        let profile = exec.finish();
        assert_eq!(profile.records.len(), 4);
        assert_eq!(profile.records[2].kind, PhaseKind::Reduction);
    }

    #[test]
    fn parallel_task_receives_effective_threads() {
        let mut exec = PhaseExec::new("t", 8);
        assert_eq!(exec.parallel_task("limited", 2, |_, threads| threads), 2);
        assert_eq!(exec.parallel_task("uncapped", usize::MAX, |_, threads| threads), 8);
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        PhaseExec::new("t", 0);
    }

    #[test]
    #[should_panic]
    fn zero_thread_cap_is_rejected() {
        PhaseExec::new("t", 2).parallel_task("build", 0, |_, _| ());
    }
}
