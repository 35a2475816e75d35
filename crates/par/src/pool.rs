//! Fork-join execution primitives.
//!
//! Every entry point has the [`std::thread::scope`] contract: the closure may
//! borrow from the caller's stack, the caller is thread 0, the call returns
//! only when every thread has finished, and a worker's panic is re-raised on
//! the caller with its original payload.
//!
//! * [`run_scoped`], [`parallel_for`], [`parallel_partials`] spawn their
//!   threads per call. This is the primitive the clustering workloads use for
//!   their parallel phases; the per-thread *partial results* returned by
//!   [`parallel_partials`] are the inputs of the merging phase.
//! * [`ThreadPool::run_scoped`] is the same fork-join on a persistent worker
//!   set, for callers that fork often enough for thread start-up to matter:
//!   the design-space sweep engine runs every sweep on it. It holds the one
//!   lifetime-erasing `unsafe` of the workspace's fork-join code.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam::channel::{unbounded, Sender};

/// Identity of one worker inside a fork-join region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Thread index in `0..num_threads`.
    pub tid: usize,
    /// Total number of threads in the region.
    pub num_threads: usize,
}

impl ThreadCtx {
    /// The half-open sub-range of `0..len` statically assigned to this thread
    /// when `len` items are divided as evenly as possible among all threads.
    ///
    /// Threads with `tid < len % num_threads` receive one extra item, so the
    /// ranges cover `0..len` exactly and differ in length by at most one.
    pub fn chunk(&self, len: usize) -> std::ops::Range<usize> {
        chunk_range(self.tid, self.num_threads, len)
    }
}

/// The half-open range of items assigned to thread `tid` of `num_threads` when
/// `len` items are divided contiguously and as evenly as possible.
pub fn chunk_range(tid: usize, num_threads: usize, len: usize) -> std::ops::Range<usize> {
    assert!(num_threads > 0, "num_threads must be positive");
    assert!(tid < num_threads, "tid {tid} out of range for {num_threads} threads");
    let base = len / num_threads;
    let extra = len % num_threads;
    let start = tid * base + tid.min(extra);
    let size = base + usize::from(tid < extra);
    start..(start + size).min(len)
}

/// Run `f` on `num_threads` scoped threads (thread 0 runs on the calling
/// thread), passing each its [`ThreadCtx`]. Returns when every thread has
/// finished. Panics from any worker are propagated.
///
/// With `num_threads == 1` the closure runs inline with no thread spawned,
/// so single-threaded baselines are free of forking overhead.
pub fn run_scoped<F>(num_threads: usize, f: F)
where
    F: Fn(ThreadCtx) + Sync,
{
    assert!(num_threads > 0, "num_threads must be positive");
    if num_threads == 1 {
        f(ThreadCtx { tid: 0, num_threads: 1 });
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(num_threads - 1);
        for tid in 1..num_threads {
            handles.push(scope.spawn(move || f(ThreadCtx { tid, num_threads })));
        }
        f(ThreadCtx { tid: 0, num_threads });
        for h in handles {
            if let Err(panic) = h.join() {
                resume_unwind(panic);
            }
        }
    });
}

/// Statically-chunked parallel loop over `0..len`: each thread receives one
/// contiguous chunk and calls `f(ctx, range)` once.
///
/// The chunking is deterministic (identical to [`ThreadCtx::chunk`]), which
/// keeps per-thread partial results reproducible across runs — important for
/// the instrumentation experiments. Every thread calls `f` exactly once, even
/// when `len < num_threads` leaves its chunk empty, so per-thread bookkeeping
/// (one slot per tid) never depends on the data size.
pub fn parallel_for<F>(num_threads: usize, len: usize, f: F)
where
    F: Fn(ThreadCtx, std::ops::Range<usize>) + Sync,
{
    run_scoped(num_threads, |ctx| f(ctx, ctx.chunk(len)));
}

/// Fork-join map producing one *partial result* per thread: thread `tid`
/// computes `f(ctx, range)` over its chunk of `0..len` and the results are
/// returned in thread order.
///
/// This is exactly the structure whose merge cost the paper studies: after a
/// call to `parallel_partials` the caller owns `num_threads` partial results
/// that must be combined by a reduction strategy (see [`crate::reduce`]).
pub fn parallel_partials<T, F>(num_threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(ThreadCtx, std::ops::Range<usize>) -> T + Sync,
{
    assert!(num_threads > 0, "num_threads must be positive");
    let partial = |tid| {
        let ctx = ThreadCtx { tid, num_threads };
        f(ctx, ctx.chunk(len))
    };
    let partial = &partial;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..num_threads).map(|tid| scope.spawn(move || partial(tid))).collect();
        let mut partials = Vec::with_capacity(num_threads);
        partials.push(partial(0));
        for handle in handles {
            partials.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        partials
    })
}

type Panic = Box<dyn Any + Send + 'static>;

/// One unit of pool work: the closure, and the group to report its outcome
/// to once it has returned or unwound (`None` for fire-and-forget jobs).
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    join: Option<Arc<Join>>,
}

/// Completion state of one group of jobs. It lives in an `Arc` — not on the
/// waiting caller's stack — so the worker that reports the last job touches
/// nothing the caller may free on waking.
struct Join {
    state: Mutex<JoinState>,
    done: Condvar,
}

struct JoinState {
    pending: usize,
    panic: Option<Panic>,
}

impl Join {
    fn new(jobs: usize) -> Arc<Self> {
        Arc::new(Join {
            state: Mutex::new(JoinState { pending: jobs, panic: None }),
            done: Condvar::new(),
        })
    }

    // Every update below is a single store made with nothing that can panic
    // in between, so a poisoned lock still guards a valid state.
    fn lock(&self) -> std::sync::MutexGuard<'_, JoinState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Report one job of the group as finished; the first panic is kept.
    fn finish(&self, panic: Option<Panic>) {
        let mut state = self.lock();
        if state.panic.is_none() {
            state.panic = panic;
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every job of the group has finished.
    fn wait(&self) {
        let mut state = self.lock();
        while state.pending != 0 {
            state = self.done.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// A persistent worker pool.
///
/// Jobs are executed in FIFO order by whichever worker is free. A job that
/// panics is contained: its worker survives, so the pool keeps its size.
/// [`ThreadPool::run_scoped`] is the borrowing fork-join on these workers;
/// [`ThreadPool::execute`] and [`ThreadPool::execute_batch_and_wait`] take
/// `'static` jobs.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("size", &self.size).finish()
    }
}

impl ThreadPool {
    /// Create a pool with `size` worker threads (`size >= 1`).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool needs at least one worker");
        let (sender, receiver) = unbounded::<Job>();
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx = receiver.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mp-par-worker-{i}"))
                    .spawn(move || {
                        while let Ok(Job { run, join }) = rx.recv() {
                            let panic = catch_unwind(AssertUnwindSafe(run)).err();
                            // Reported only now that `run` has been consumed:
                            // a waiter released by this may free whatever the
                            // closure borrowed.
                            if let Some(join) = join {
                                join.finish(panic);
                            }
                        }
                    })
                    .expect("failed to spawn pool worker"),
            );
        }
        ThreadPool { sender: Some(sender), workers, size }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    fn submit(&self, run: Box<dyn FnOnce() + Send + 'static>, join: Option<Arc<Join>>) {
        self.sender
            .as_ref()
            .expect("the sender is only taken in drop")
            .send(Job { run, join })
            .expect("workers outlive the sender: they contain every job panic");
    }

    /// Submit a single fire-and-forget job. A panic in it is contained (the
    /// panic hook has reported it) and otherwise dropped.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(Box::new(job), None);
    }

    /// Submit `jobs` and block until every one of them has run. A job that
    /// panics counts as run.
    pub fn execute_batch_and_wait<F>(&self, jobs: Vec<F>)
    where
        F: FnOnce() + Send + 'static,
    {
        let join = Join::new(jobs.len());
        for job in jobs {
            self.submit(Box::new(job), Some(Arc::clone(&join)));
        }
        join.wait();
    }

    /// [`run_scoped`] on the pool's persistent workers: run `f` once per
    /// `tid` in `0..num_threads` — `tid` 0 on the calling thread, the rest as
    /// pool jobs — and return when every one has finished. `f` may borrow
    /// from the caller's stack. The first panic among the pool jobs is
    /// re-raised on the caller with its original payload; if the caller's own
    /// `f` unwinds, the pool jobs are still joined before the unwind leaves
    /// this frame.
    ///
    /// With `num_threads == 1` the closure runs inline and the pool is not
    /// touched. `num_threads` may exceed [`ThreadPool::size`], and other
    /// callers may be using the pool: every `tid` still runs exactly once,
    /// but not necessarily at the same time as the others, so `f` must not
    /// wait for another `tid` — and must not be running on one of this
    /// pool's own workers, which would wait for jobs queued behind itself.
    pub fn run_scoped<F>(&self, num_threads: usize, f: F)
    where
        F: Fn(ThreadCtx) + Sync,
    {
        assert!(num_threads > 0, "num_threads must be positive");
        let run = |tid| f(ThreadCtx { tid, num_threads });
        if num_threads == 1 {
            return run(0);
        }
        struct JoinOnDrop<'a>(&'a Join);
        impl Drop for JoinOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let task: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: the `'static` is a lie told to the job queue only. `task`
        // is used by exactly the `num_threads - 1` jobs submitted below, and
        // `_joined` — created before the first of them, dropped on return and
        // on unwind alike — blocks this frame until `join` has counted every
        // one of them. Only the worker loop counts a job, and only after the
        // job's closure, with the copy of `task` inside it, has been consumed
        // (a job dropped unrun would never be counted: a hang, not a dangling
        // use). So every use of `task` happens before `run`, `f` and anything
        // they borrow go away.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let join = Join::new(num_threads - 1);
        {
            let _joined = JoinOnDrop(&join);
            for tid in 1..num_threads {
                self.submit(Box::new(move || task(tid)), Some(Arc::clone(&join)));
            }
            run(0);
        }
        let panic = join.lock().panic.take();
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets the workers drain outstanding jobs and exit.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 7, 16, 1000, 1001] {
            for nt in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![0u8; len];
                for tid in 0..nt {
                    for i in chunk_range(tid, nt, len) {
                        covered[i] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "len={len} nt={nt}");
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for len in [10usize, 17, 255, 1024] {
            for nt in [2usize, 3, 5, 16] {
                let sizes: Vec<usize> = (0..nt).map(|t| chunk_range(t, nt, len).len()).collect();
                let max = *sizes.iter().max().unwrap();
                let min = *sizes.iter().min().unwrap();
                assert!(max - min <= 1, "len={len} nt={nt} sizes={sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn chunk_range_rejects_bad_tid() {
        chunk_range(4, 4, 10);
    }

    #[test]
    fn single_thread_chunk_is_the_whole_range() {
        // p = 1 edge case: thread 0 owns 0..len for any len, including 0.
        for len in [0usize, 1, 5, 1024] {
            assert_eq!(chunk_range(0, 1, len), 0..len);
            assert_eq!(ThreadCtx { tid: 0, num_threads: 1 }.chunk(len), 0..len);
        }
    }

    #[test]
    fn fewer_items_than_threads_gives_one_item_chunks_then_empty() {
        // len < num_threads edge case: the first `len` threads get exactly one
        // item each (their own index) and the rest get empty ranges — never an
        // out-of-bounds or overlapping range.
        let (len, nt) = (3usize, 16usize);
        for tid in 0..nt {
            let range = chunk_range(tid, nt, len);
            if tid < len {
                assert_eq!(range, tid..tid + 1, "tid={tid}");
            } else {
                assert!(range.is_empty(), "tid={tid} got {range:?}");
                assert!(range.start <= len && range.end <= len, "tid={tid} got {range:?}");
            }
        }
    }

    #[test]
    fn empty_range_chunks_are_empty_for_every_thread() {
        for tid in 0..8 {
            assert!(chunk_range(tid, 8, 0).is_empty());
        }
    }

    #[test]
    fn parallel_for_calls_every_thread_even_with_empty_chunks() {
        // Each thread must be called exactly once regardless of len, so
        // per-tid bookkeeping never depends on the data size.
        for len in [0usize, 3, 100] {
            let calls = AtomicUsize::new(0);
            parallel_for(16, len, |_ctx, _range| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), 16, "len={len}");
        }
    }

    #[test]
    fn run_scoped_uses_all_threads() {
        let seen = Mutex::new(Vec::new());
        run_scoped(8, |ctx| {
            assert_eq!(ctx.num_threads, 8);
            seen.lock().unwrap().push(ctx.tid);
        });
        let mut tids = seen.into_inner().unwrap();
        tids.sort_unstable();
        assert_eq!(tids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_single_thread_runs_inline() {
        let caller = std::thread::current().id();
        run_scoped(1, |ctx| {
            assert_eq!(ctx.tid, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    #[should_panic]
    fn run_scoped_rejects_zero_threads() {
        run_scoped(0, |_| {});
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_scoped(4, |ctx| {
                if ctx.tid == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn parallel_for_sums_correctly() {
        let n = 100_000usize;
        let total = AtomicU64::new(0);
        parallel_for(7, n, |_ctx, range| {
            let local: u64 = range.map(|i| i as u64).sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        let expect: u64 = (0..n as u64).sum();
        assert_eq!(total.into_inner(), expect);
    }

    #[test]
    fn parallel_for_handles_more_threads_than_items() {
        let count = AtomicUsize::new(0);
        parallel_for(16, 3, |_ctx, range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 3);
    }

    #[test]
    fn parallel_partials_preserves_thread_order() {
        let partials = parallel_partials(6, 60, |ctx, range| (ctx.tid, range.len()));
        assert_eq!(partials.len(), 6);
        for (i, (tid, len)) in partials.iter().enumerate() {
            assert_eq!(*tid, i);
            assert_eq!(*len, 10);
        }
    }

    #[test]
    fn parallel_partials_equal_sequential_fold() {
        let data: Vec<u64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let partials =
            parallel_partials(5, data.len(), |_ctx, range| data[range].iter().sum::<u64>());
        let parallel_sum: u64 = partials.iter().sum();
        let sequential: u64 = data.iter().sum();
        assert_eq!(parallel_sum, sequential);
    }

    #[test]
    fn parallel_partials_with_empty_input() {
        let partials = parallel_partials(4, 0, |_ctx, range| range.len());
        assert_eq!(partials, vec![0, 0, 0, 0]);
    }

    #[test]
    fn thread_pool_runs_jobs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.execute_batch_and_wait(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn thread_pool_drop_waits_for_outstanding_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..32 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins workers after the queue drains
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    #[should_panic]
    fn thread_pool_rejects_zero_workers() {
        ThreadPool::new(0);
    }
}
