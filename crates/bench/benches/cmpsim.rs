//! Timing-simulator benchmarks: throughput of the phase-level engine as the
//! simulated core count and program length grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mp_cmpsim::{fuzzy_program, hop_program, kmeans_program, simulate, Machine, WorkloadShape};
use mp_model::params::DatasetVariant;
use mp_par::ReductionStrategy;

fn bench_simulator(c: &mut Criterion) {
    let shape = |label| WorkloadShape::from_variant(&DatasetVariant::table4(label));
    let kmeans = kmeans_program(&shape("kmeans-base"), ReductionStrategy::SerialLinear);
    let fuzzy = fuzzy_program(&shape("fuzzy-base"), ReductionStrategy::SerialLinear);
    let hop = hop_program(&shape("hop-default"), ReductionStrategy::SerialLinear, 4);

    let mut group = c.benchmark_group("cmpsim/simulate");
    for (name, program) in [("kmeans", &kmeans), ("fuzzy", &fuzzy), ("hop", &hop)] {
        for cores in [1usize, 16, 256] {
            group.bench_with_input(BenchmarkId::new(name, cores), &cores, |b, &cores| {
                let machine = Machine::table1(cores);
                b.iter(|| simulate(std::hint::black_box(program), &machine));
            });
        }
    }
    group.finish();

    // A long-running iterative program stresses the unrolled phase loop.
    let mut long = kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear);
    long.iterations = 2000;
    c.bench_function("cmpsim/simulate-2000-iterations", |b| {
        let machine = Machine::table1(16);
        b.iter(|| simulate(std::hint::black_box(&long), &machine));
    });
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
