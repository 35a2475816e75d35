//! A server runs its executors beside the thread that calls `Server::run`,
//! which is its one event loop: no accept thread and no pool of loops.
//!
//! The only test of its binary, so no sibling test starts or ends a thread
//! between the counts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use merging_phases::dse::backend::AnalyticBackend;
use mp_serve::prelude::*;

/// Threads of this process, as listed in `/proc/self/task`.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable").count()
}

#[test]
fn a_server_is_its_runner_and_its_executors() {
    // A service of one engine thread starts no engine worker.
    let service = Arc::new(SweepService::new(
        Arc::new(AnalyticBackend),
        &ServiceConfig { shards: 1, threads_per_shard: 1, ..ServiceConfig::default() },
    ));
    let server = Server::bind_with(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        service,
        ServerConfig { executors: 2 },
    )
    .unwrap();
    let endpoint = server.endpoint().clone();

    let before = live_threads();
    let runner = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();
    let started = live_threads() - before;
    assert_eq!(started, 3, "a server of two executors runs {started} thread(s)");

    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
    // The kernel wakes a joiner before it has reaped the thread, so an
    // exited thread can stay listed for a moment: read until it settles.
    let deadline = Instant::now() + Duration::from_secs(30);
    while live_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_threads(), before, "threads outlived the server");
}
