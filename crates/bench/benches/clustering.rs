//! End-to-end clustering benchmarks across thread counts.
//!
//! This is the wall-clock analogue of the paper's Figure 2(a): the speedup of
//! kmeans, fuzzy c-means and HOP as the thread count grows. Criterion reports
//! the absolute times; dividing the single-thread time by each multi-thread
//! time reproduces the scalability curve on the benchmarking host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mp_workloads::data::DatasetSpec;
use mp_workloads::runner::{ClusteringWorkload, WorkloadKind};

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= max).collect()
}

fn bench_clustering(c: &mut Criterion) {
    // Reduced data sets keep a full criterion run in minutes; the shapes
    // (points : clusters : dims ratios) match the paper's base data sets.
    let cluster_spec = DatasetSpec::new(6000, 9, 8, 0x5EED);
    let hop_spec = DatasetSpec::new(8000, 3, 16, 0x401);

    for kind in WorkloadKind::all() {
        let spec = match kind {
            WorkloadKind::KMeans | WorkloadKind::Fuzzy => &cluster_spec,
            WorkloadKind::Hop | WorkloadKind::KdTree => &hop_spec,
        };
        let job = ClusteringWorkload::of_kind(kind, spec.generate());
        let mut group = c.benchmark_group(format!("fig2a/{}", kind.name()));
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
