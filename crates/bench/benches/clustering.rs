//! End-to-end clustering benchmarks across thread counts.
//!
//! This is the wall-clock analogue of the paper's Figure 2(a): the speedup of
//! kmeans, fuzzy c-means and HOP as the thread count grows. Criterion reports
//! the absolute times; dividing the single-thread time by each multi-thread
//! time reproduces the scalability curve on the benchmarking host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mp_bench::figures::characterization::measured_jobs;

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= max).collect()
}

fn bench_clustering(c: &mut Criterion) {
    // The quick data sets keep a full criterion run in minutes; they keep
    // the base sets' dimensions and cluster counts.
    for job in measured_jobs(true) {
        let mut group = c.benchmark_group(format!("fig2a/{}", job.kind().name()));
        group.sample_size(10);
        for &threads in &thread_counts() {
            group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
                b.iter(|| job.run(t));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
