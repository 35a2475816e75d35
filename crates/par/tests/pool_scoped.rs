//! `Team::run` has the `std::thread::scope` contract on persistent workers;
//! these are its edge cases (one logical thread, a failing worker, a
//! failing caller, concurrent callers), plus the pool's own panic
//! containment and `Team::partials`' payload propagation. A fork of more
//! tids than the pool has workers plus one, which no team asks for, is a
//! unit test of `pool.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mp_par::{Team, ThreadPool};

/// The message of a `panic!("...")` payload.
fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .expect("a string payload")
}

/// Count in until `size` callers have arrived, or ten seconds have passed;
/// report a met rendezvous on `met`.
fn rendezvous(arrived: &AtomicUsize, met: &AtomicUsize, size: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while arrived.load(Ordering::SeqCst) < size {
        if Instant::now() > deadline {
            return;
        }
        std::thread::yield_now();
    }
    met.fetch_add(1, Ordering::SeqCst);
}

/// Run `pool.size()` jobs that each wait until all of them have started:
/// only a pool whose every worker is live gets them all past the rendezvous.
fn pool_runs_concurrently(pool: &ThreadPool) -> bool {
    let size = pool.size();
    let arrived = Arc::new(AtomicUsize::new(0));
    let met = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<_> = (0..size)
        .map(|_| {
            let (arrived, met) = (Arc::clone(&arrived), Arc::clone(&met));
            move || rendezvous(&arrived, &met, size)
        })
        .collect();
    pool.execute_batch_and_wait(jobs);
    met.load(Ordering::SeqCst) == size
}

/// Fork one logical thread per member, each waiting until all of them have
/// started: only a team whose every member is live gets them all past.
fn team_runs_concurrently(team: &Team) -> bool {
    let size = team.size();
    let (arrived, met) = (AtomicUsize::new(0), AtomicUsize::new(0));
    team.run(size, |_| rendezvous(&arrived, &met, size));
    met.into_inner() == size
}

#[test]
fn one_thread_runs_inline_on_the_calling_thread() {
    let team = Team::new(2);
    let caller = std::thread::current().id();
    let calls = AtomicUsize::new(0);
    team.run(1, |ctx| {
        assert_eq!((ctx.tid, ctx.num_threads), (0, 1));
        assert_eq!(std::thread::current().id(), caller);
        calls.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(calls.into_inner(), 1);
}

#[test]
#[should_panic(expected = "num_threads must be positive")]
fn zero_threads_are_rejected() {
    Team::new(1).run(0, |_| {});
}

#[test]
fn a_helper_panic_is_reraised_verbatim_after_the_others_finish() {
    let team = Team::new(4);
    let finished = AtomicUsize::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        team.run(4, |ctx| {
            if ctx.tid == 2 {
                panic!("helper {} failed", ctx.tid);
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }))
    .expect_err("the helper's panic must reach the caller");
    assert_eq!(message(payload.as_ref()), "helper 2 failed");
    assert_eq!(finished.load(Ordering::SeqCst), 3, "every other tid ran to completion");

    // The team lost no member and joins the next region normally.
    assert!(team_runs_concurrently(&team));
    let again = AtomicUsize::new(0);
    team.run(4, |_| {
        again.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(again.into_inner(), 4);
}

#[test]
fn a_caller_panic_still_joins_the_helpers_before_unwinding() {
    let team = Team::new(3);
    // Helpers park until released; the releaser only fires once the caller
    // has started to panic, so the helpers are provably still running when
    // the unwind reaches the fork's frame.
    let (panicking_tx, panicking_rx) = mpsc::channel::<()>();
    let release = Arc::new(Barrier::new(3));
    let releaser = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            panicking_rx.recv().expect("the caller announces its panic");
            // Not needed to pass: it gives a join that does not wait the time
            // to return early and fail the count below.
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
        })
    };
    let panicking_tx = Mutex::new(panicking_tx);
    let finished = AtomicUsize::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        team.run(3, |ctx| {
            if ctx.tid == 0 {
                panicking_tx.lock().unwrap().send(()).unwrap();
                panic!("caller failed");
            }
            release.wait();
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }))
    .expect_err("the caller's own panic propagates");
    // `finished` is borrowed by the helpers: had `run` returned with
    // one still running, this would read < 2 (and the borrow would dangle).
    assert_eq!(finished.load(Ordering::SeqCst), 2, "no helper outlives the call");
    assert_eq!(message(payload.as_ref()), "caller failed");
    releaser.join().unwrap();
    assert!(team_runs_concurrently(&team));
}

#[test]
fn concurrent_callers_on_one_pool_both_complete() {
    // The serve shape: several executor threads, one engine team.
    let team = Team::new(3);
    let start = Barrier::new(2);
    let totals: Vec<usize> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|caller| {
                let (team, start) = (&team, &start);
                scope.spawn(move || {
                    start.wait();
                    let total = AtomicUsize::new(0);
                    for _ in 0..200 {
                        team.run(3, |ctx| {
                            total.fetch_add(caller * 1000 + ctx.tid, Ordering::Relaxed);
                        });
                    }
                    total.into_inner()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(totals, vec![200 * 3, 200 * (3000 + 3)]);
}

#[test]
fn a_panicking_job_neither_hangs_the_batch_nor_costs_the_pool_a_worker() {
    let pool = ThreadPool::new(3);
    let ran = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<_> = (0..6)
        .map(|i| {
            let ran = Arc::clone(&ran);
            move || {
                if i == 1 {
                    panic!("job {i} failed");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }
        })
        .collect();
    pool.execute_batch_and_wait(jobs);
    assert_eq!(ran.load(Ordering::SeqCst), 5);
    assert!(pool_runs_concurrently(&pool), "all {} workers survived", pool.size());
}

#[test]
fn parallel_partials_reraises_a_worker_panic_verbatim() {
    // Logical thread 0 runs on the caller, 2 in a pool worker's block (and
    // on the caller too for a team of one).
    for members in [1usize, 2] {
        let team = Team::new(members);
        for failing in [0usize, 2] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                team.partials(4, 40, |ctx, range| {
                    if ctx.tid == failing {
                        panic!("partial {} failed", ctx.tid);
                    }
                    range.len()
                })
            }))
            .expect_err("the panic must propagate");
            assert_eq!(message(payload.as_ref()), format!("partial {failing} failed"));
        }
        assert_eq!(team.partials(4, 40, |_ctx, range| range.len()), vec![10; 4], "team survives");
        assert_eq!(team.partials(4, 0, |_ctx, range| range.len()), vec![0; 4]);
    }
}
