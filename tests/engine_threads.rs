//! An engine of `n` threads starts `n − 1` OS threads: the thread that
//! sweeps is one of its `n` workers, so the engine keeps no idle one.
//!
//! The only test of its binary, so no sibling test starts or ends a thread
//! between the counts.

use merging_phases::dse::Engine;

/// Threads of this process, as listed in `/proc/self/task`.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable").count()
}

#[test]
fn an_engine_of_n_threads_starts_n_minus_one() {
    // Every engine stays alive until the end, so no exiting worker is
    // still listed when the next count is read.
    let mut engines = Vec::new();
    for threads in [1usize, 2, 4] {
        let before = live_threads();
        engines.push(Engine::new(threads));
        let started = live_threads() - before;
        assert_eq!(started, threads - 1, "Engine::new({threads}) started {started} thread(s)");
    }
    assert_eq!(engines.iter().map(Engine::threads).collect::<Vec<_>>(), [1, 2, 4]);
}
