//! Merging-phase microbenchmarks (`reduce` target): the three reduction
//! strategies versus the number of partials (threads) and the number of
//! reduction elements, plus the phase scheduler's instrumented map-reduce
//! path.
//!
//! This quantifies the paper's Section II-B/V-E discussion directly: the
//! serial linear merge grows with the thread count, the tree merge grows
//! logarithmically, and the privatised parallel merge keeps the computation
//! flat at the cost of touching every partial from every thread. The
//! scheduler benchmark measures what the `mp-runtime` instrumentation layer
//! adds on top of the raw fork-join + merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mp_par::reduce::{reduce_elementwise, ReductionStrategy};
use mp_profile::{NullSink, Profiler};
use mp_runtime::{Control, PhaseExec, PhaseScheduler, PhasedWorkload};

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
            for strategy in ReductionStrategy::all() {
                group.bench_with_input(
                    BenchmarkId::new(strategy.name(), threads),
                    &threads,
                    |b, &t| {
                        b.iter(|| reduce_elementwise(std::hint::black_box(&partials), strategy, t));
                    },
                );
            }
        }
        group.finish();
    }
}

/// A minimal map-reduce phased workload: per-thread element-wise partials
/// over a slice, merged with the configured strategy.
struct MapReduce {
    items: usize,
    elements: usize,
    strategy: ReductionStrategy,
}

impl PhasedWorkload for MapReduce {
    type State = Vec<f64>;
    type Output = Vec<f64>;

    fn name(&self) -> &str {
        "bench-map-reduce"
    }

    fn max_iterations(&self) -> usize {
        1
    }

    fn init(&self, _exec: &PhaseExec<'_>) -> Vec<f64> {
        Vec::new()
    }

    fn iteration(&self, state: &mut Vec<f64>, exec: &PhaseExec<'_>, _iter: usize) -> Control {
        let elements = self.elements;
        let partials = exec.parallel("map", self.items, |_ctx, range| {
            let mut partial = vec![0.0f64; elements];
            for i in range {
                partial[i % elements] += i as f64;
            }
            partial
        });
        let (merged, _stats) = exec.reduce("merge", &partials, self.strategy);
        exec.serial("store", || *state = merged);
        Control::Break
    }

    fn finalize(&self, state: Vec<f64>, _exec: &PhaseExec<'_>) -> Vec<f64> {
        state
    }
}

fn bench_scheduler_map_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce/scheduler");
    for threads in [1usize, 4, 8] {
        let workload =
            MapReduce { items: 100_000, elements: 80, strategy: ReductionStrategy::SerialLinear };
        let scheduler = PhaseScheduler::new(threads);
        group.bench_with_input(BenchmarkId::new("instrumented", threads), &threads, |b, _| {
            b.iter(|| {
                let profiler = Profiler::new("bench", threads);
                scheduler.run(std::hint::black_box(&workload), &profiler)
            });
        });
        group.bench_with_input(BenchmarkId::new("uninstrumented", threads), &threads, |b, _| {
            b.iter(|| scheduler.run(std::hint::black_box(&workload), &NullSink));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reduction_strategies, bench_scheduler_map_reduce);
criterion_main!(benches);
