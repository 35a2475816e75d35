//! Fork-join execution primitives.
//!
//! A [`Team`] is the workspace's one fork-join: the calling thread plus
//! persistent pool workers, sized once. [`Team::run`] has the
//! [`std::thread::scope`] contract — the closure may borrow from the
//! caller's stack, the caller runs the first logical thread, the call
//! returns only when every one has finished, and a worker's panic is
//! re-raised on the caller with its original payload — so a fork costs a
//! queue hand-off, not a thread start. The pool's private `run_scoped` holds
//! the one lifetime-erasing `unsafe` of the workspace's fork-join code.
//!
//! A team runs any number of *logical* threads on its members:
//! [`Team::partials`] computes `count` partial results, logical thread `tid`
//! over `chunk_range(tid, count, len)` whichever member runs it, so the
//! partials — the inputs of the merging phase — depend on `count` alone.
//! The sweep engine forks every sweep on its team; a workload run forks
//! every phase, tree build and merge on one.

use std::any::Any;
use std::ops::Range;
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
    pub fn chunk(&self, len: usize) -> Range<usize> {
        chunk_range(self.tid, self.num_threads, len)
    }
}

/// The half-open range of items assigned to thread `tid` of `num_threads` when
/// `len` items are divided contiguously and as evenly as possible.
pub fn chunk_range(tid: usize, num_threads: usize, len: usize) -> Range<usize> {
    assert!(num_threads > 0, "num_threads must be positive");
    assert!(tid < num_threads, "tid {tid} out of range for {num_threads} threads");
    let base = len / num_threads;
    let extra = len % num_threads;
    let start = tid * base + tid.min(extra);
    let size = base + usize::from(tid < extra);
    start..(start + size).min(len)
}

type Panic = Box<dyn Any + Send + 'static>;

/// One unit of pool work: the closure, and the group to report its outcome
/// to once it has returned or unwound.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    join: Arc<Join>,
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
/// [`ThreadPool::execute_batch_and_wait`] takes `'static` jobs; the
/// borrowing fork-join on these workers is a [`Team`]'s.
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
                            join.finish(panic);
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

    fn submit(&self, run: Box<dyn FnOnce() + Send + 'static>, join: Arc<Join>) {
        self.sender
            .as_ref()
            .expect("the sender is only taken in drop")
            .send(Job { run, join })
            .expect("workers outlive the sender: they contain every job panic");
    }

    /// Submit `jobs` and block until every one of them has run. A job that
    /// panics counts as run.
    pub fn execute_batch_and_wait<F>(&self, jobs: Vec<F>)
    where
        F: FnOnce() + Send + 'static,
    {
        let join = Join::new(jobs.len());
        for job in jobs {
            self.submit(Box::new(job), Arc::clone(&join));
        }
        join.wait();
    }

    /// The fork-join behind [`Team::run`], with its contract: `f` runs once
    /// per `tid` in `0..num_threads` (which may exceed [`ThreadPool::size`]),
    /// `tid` 0 on the calling thread and the rest as pool jobs.
    fn run_scoped<F>(&self, num_threads: usize, f: F)
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
                self.submit(Box::new(move || task(tid)), Arc::clone(&join));
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

/// A fork-join team: the calling thread plus `size - 1` persistent pool
/// workers, built once and forked on as often as its owner likes. It runs
/// `count` *logical* threads on `min(count, size)` members, a contiguous
/// block of them each, so `count` may exceed the team's size (or the host's
/// cores) without starting a thread; a team of one runs them all inline.
///
/// Several threads may fork on one team at once (a service's executors on
/// one engine), so a logical thread may run after the others: it must not
/// wait for another, nor fork on its own team, where a worker would wait
/// for work queued behind itself.
#[derive(Debug)]
pub struct Team(Option<ThreadPool>);

impl Team {
    /// A team of `size >= 1` members.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a team needs at least its caller");
        Team((size > 1).then(|| ThreadPool::new(size - 1)))
    }

    /// The team a run of `threads` logical threads forks on: one member per
    /// thread, up to the host's available parallelism.
    pub fn for_threads(threads: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Team::new(threads.min(cores))
    }

    /// Number of members, the caller included.
    pub fn size(&self) -> usize {
        self.0.as_ref().map_or(1, |pool| pool.size() + 1)
    }

    /// Run `f` once for every logical `tid` in `0..count` (its `num_threads`
    /// is `count`) and return when all have run; `f` may borrow from the
    /// caller's stack, and the caller runs the first block of tids. A worker
    /// block's panic is re-raised on the caller with its payload; every block
    /// is joined first, also when the caller's own block unwinds.
    pub fn run<F: Fn(ThreadCtx) + Sync>(&self, count: usize, f: F) {
        assert!(count > 0, "num_threads must be positive");
        let block = |member: ThreadCtx| {
            member.chunk(count).for_each(|tid| f(ThreadCtx { tid, num_threads: count }));
        };
        match &self.0 {
            Some(pool) => pool.run_scoped(count.min(self.size()), block),
            None => block(ThreadCtx { tid: 0, num_threads: 1 }),
        }
    }

    /// Fork-join map producing one *partial result* per logical thread,
    /// `f(ctx, chunk_range(tid, count, len))`, returned in `tid` order: the
    /// partials whose merge cost the paper studies (see [`crate::reduce`]).
    pub fn partials<T, F>(&self, count: usize, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadCtx, Range<usize>) -> T + Sync,
    {
        const UNLOCKED: &str = "no partial is computed under the slot lock";
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
        self.run(count, |ctx| {
            let partial = f(ctx, ctx.chunk(len));
            slots.lock().expect(UNLOCKED)[ctx.tid] = Some(partial);
        });
        let slots = slots.into_inner().expect(UNLOCKED);
        slots.into_iter().map(|slot| slot.expect("every logical thread ran")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn team_runs_every_logical_thread_once_in_blocks_on_its_members() {
        let team = Team::new(3);
        assert_eq!(team.size(), 3);
        let seen = Mutex::new(Vec::new());
        team.run(8, |ctx| {
            assert_eq!(ctx.num_threads, 8);
            seen.lock().unwrap().push((ctx.tid, std::thread::current().id()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable_by_key(|&(tid, _)| tid);
        assert_eq!(
            seen.iter().map(|&(tid, _)| tid).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        let mut threads: Vec<_> = seen.iter().map(|&(_, id)| id).collect();
        threads.dedup();
        assert!(threads.len() <= 3, "one contiguous block of tids per member: {threads:?}");
        assert_eq!(threads[0], std::thread::current().id(), "the caller runs the first block");
    }

    #[test]
    fn a_team_of_one_runs_inline_in_tid_order() {
        let caller = std::thread::current().id();
        let partials = Team::new(1).partials(6, 60, |ctx, range| {
            assert_eq!(std::thread::current().id(), caller);
            (ctx.tid, range.len())
        });
        assert_eq!(partials, (0..6).map(|tid| (tid, 10)).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_with_more_tids_than_workers_sees_every_tid_exactly_once() {
        // A team never asks for more tids than it has members; the pool's
        // fork-join still runs every one of them, tid 0 on the caller.
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        for num_threads in [2usize, 3, 9] {
            let caller = std::thread::current().id();
            let seen = Mutex::new(Vec::new());
            let total = AtomicUsize::new(0);
            pool.run_scoped(num_threads, |ctx| {
                assert_eq!(ctx.num_threads, num_threads);
                assert_eq!(
                    ctx.tid == 0,
                    std::thread::current().id() == caller,
                    "tid 0 is the caller"
                );
                seen.lock().unwrap().push(ctx.tid);
                let part: u64 = data[ctx.chunk(data.len())].iter().sum();
                total.fetch_add(part as usize, Ordering::Relaxed);
            });
            let mut tids = seen.into_inner().unwrap();
            tids.sort_unstable();
            assert_eq!(tids, (0..num_threads).collect::<Vec<_>>());
            assert_eq!(total.into_inner() as u64, data.iter().sum::<u64>());
        }
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
    #[should_panic]
    fn thread_pool_rejects_zero_workers() {
        ThreadPool::new(0);
    }
}
