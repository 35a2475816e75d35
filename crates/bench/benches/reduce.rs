//! Merging-phase microbenchmarks (`reduce` target): the three reduction
//! strategies versus the number of partials (threads) and the number of
//! reduction elements, plus a map-reduce run through the phase executor.
//!
//! This quantifies the paper's Section II-B/V-E discussion directly: the
//! serial linear merge grows with the thread count, the tree merge grows
//! logarithmically, and the privatised parallel merge keeps the computation
//! flat at the cost of touching every partial from every thread. The
//! executor benchmark times a map-reduce through
//! `mp_workloads::exec::PhaseExec`, which times every phase and every worker
//! and keeps the run's records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mp_par::reduce::{reduce_elementwise, ReductionStrategy};
use mp_par::Team;
use mp_workloads::exec::PhaseExec;

fn make_partials(threads: usize, elements: usize) -> Vec<Vec<f64>> {
    (0..threads)
        .map(|t| (0..elements).map(|e| (t * elements + e) as f64 * 0.25).collect())
        .collect()
}

fn bench_reduction_strategies(c: &mut Criterion) {
    // The kmeans merge has C·D + C ≈ 80 elements; hop's group table is larger.
    for elements in [80usize, 2048] {
        let mut group = c.benchmark_group(format!("reduction/x={elements}"));
        for threads in [2usize, 4, 8, 16, 32] {
            let partials = make_partials(threads, elements);
            // The team a run of `threads` threads merges on.
            let team = Team::for_threads(threads);
            for strategy in ReductionStrategy::all() {
                group.bench_with_input(
                    BenchmarkId::new(strategy.name(), threads),
                    &threads,
                    |b, _| {
                        b.iter(|| {
                            reduce_elementwise(std::hint::black_box(&partials), strategy, &team)
                        });
                    },
                );
            }
        }
        group.finish();
    }
}

/// A minimal map-reduce run: per-thread element-wise partials over
/// `0..items`, merged serially, stored by a constant serial phase.
fn map_reduce(threads: usize, items: usize, elements: usize) -> Vec<f64> {
    let mut exec = PhaseExec::new("bench", threads);
    let partials = exec.parallel("map", items, |_ctx, range| {
        let mut partial = vec![0.0f64; elements];
        for i in range {
            partial[i % elements] += i as f64;
        }
        partial
    });
    let merged = exec.reduce("merge", &partials, ReductionStrategy::SerialLinear);
    exec.serial("store", || merged)
}

fn bench_executor_map_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce/executor");
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("map-reduce", threads), &threads, |b, &t| {
            b.iter(|| map_reduce(t, std::hint::black_box(100_000), 80));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reduction_strategies, bench_executor_map_reduce);
criterion_main!(benches);
