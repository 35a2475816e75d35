//! Bit-parity regression suite for the columnar sweep path.
//!
//! The zero-allocation pipeline (prepared models, space tables, batched
//! memoisation cache, allocation-free simulator kernel) is only allowed to
//! be *faster* — every sweep must reproduce the reference per-scenario
//! evaluation bit for bit, NaN markers included, cached or not, single- or
//! multi-threaded. These tests sweep mixed analytic + cmpsim + measured
//! spaces through both paths and compare raw `f64` bit patterns.

use std::sync::Arc;

use mp_dse::fault::{FaultPlan, FaultyBackend};
use mp_dse::prelude::*;
use mp_model::calibrate::{CalibratedParams, MeasuredRun};
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;
use proptest::prelude::*;

/// The reference path: per-scenario `evaluate` with the engine's
/// fit-check-then-NaN convention, no batching, no tables, no cache.
fn reference_sweep(space: &ScenarioSpace, backend: &dyn EvalBackend) -> Vec<EvalRecord> {
    (0..space.len())
        .map(|index| {
            let scenario = space.scenario(index);
            let speedup = if scenario.design.fits(scenario.budget) {
                backend.evaluate(&scenario).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            };
            EvalRecord { index, speedup, cores: scenario.cores(), area: scenario.area() }
        })
        .collect()
}

fn assert_bit_identical(label: &str, reference: &[EvalRecord], got: &[EvalRecord]) {
    assert_eq!(reference.len(), got.len(), "{label}: record count");
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r.index, g.index, "{label}: index order");
        assert_eq!(
            r.speedup.to_bits(),
            g.speedup.to_bits(),
            "{label}: speedup bits at index {} ({} vs {})",
            r.index,
            r.speedup,
            g.speedup
        );
        assert_eq!(r.cores.to_bits(), g.cores.to_bits(), "{label}: cores at index {}", r.index);
        assert_eq!(r.area.to_bits(), g.area.to_bits(), "{label}: area at index {}", r.index);
    }
}

/// A space that mixes valid and invalid (over-budget) designs, symmetric and
/// asymmetric organisations, and parameterised growth/perf variants — the
/// shapes that exercise every branch of the columnar tables.
fn mixed_space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![64.0, 256.0])
        .clear_designs()
        .add_symmetric_grid([1.0, 3.7, 16.0, 64.0, 100.0, 300.0])
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0, 256.0])
        .with_growths(vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Superlinear(1.55),
            GrowthFunction::Measured(vec![(1.0, 0.0), (4.0, 2.0), (16.0, 40.0)]),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75)])
}

fn synthetic_calibration(name: &str, f: f64, fcon: f64, fored: f64) -> CalibratedParams {
    let s = 1.0 - f;
    let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| {
            MeasuredRun::new(
                p,
                f / p as f64,
                s * fcon,
                s * (1.0 - fcon) * (1.0 + fored * (p as f64 - 1.0)),
            )
        })
        .collect();
    CalibratedParams::fit(name, &runs).unwrap()
}

fn measured_backend() -> MeasuredBackend {
    MeasuredBackend::new(vec![
        synthetic_calibration("kmeans", 0.999, 0.6, 0.8),
        synthetic_calibration("fuzzy", 0.9999, 0.7, 0.3),
        synthetic_calibration("hop", 0.999, 0.88, 1.55),
    ])
}

fn parity_for(backend: &dyn EvalBackend, space: &ScenarioSpace, label: &str) {
    let reference = reference_sweep(space, backend);
    for threads in [1usize, 4] {
        let engine = Engine::new(threads);
        for (use_cache, batch_size) in [(false, 64), (true, 64), (true, 7), (true, 4096)] {
            let config = SweepConfig { batch_size, use_cache };
            let result = engine.sweep(space, backend, &config);
            assert_bit_identical(
                &format!("{label} threads={threads} cache={use_cache} batch={batch_size}"),
                &reference,
                &result.records,
            );
        }
        // Re-sweep: answered from memo bits where the backend memoises.
        let warm = engine.sweep(space, backend, &SweepConfig { batch_size: 64, use_cache: true });
        assert_bit_identical(&format!("{label} warm threads={threads}"), &reference, &warm.records);
    }
}

#[test]
fn analytic_columnar_path_is_bit_identical() {
    parity_for(&AnalyticBackend, &mixed_space(), "analytic");
}

#[test]
fn comm_path_is_bit_identical() {
    parity_for(&CommBackend::new(), &mixed_space(), "comm");
}

#[test]
fn cmpsim_columnar_path_is_bit_identical() {
    // Integer core sizes so the simulated machines are meaningful; small
    // operation budget keeps the suite fast.
    let space = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![16.0, 64.0])
        .clear_designs()
        .add_symmetric_grid([1.0, 2.0, 4.0, 8.0, 100.0])
        .add_asymmetric_grid([1.0, 2.0], [4.0, 16.0])
        .with_reductions(mp_par::ReductionStrategy::all().to_vec());
    let backend = SimBackend::new().with_total_ops(1e5);
    parity_for(&backend, &space, "cmpsim");
}

#[test]
fn measured_columnar_path_is_bit_identical_in_both_growth_modes() {
    let backend = measured_backend();
    let space = mixed_space().with_apps(backend.apps());
    parity_for(&backend, &space, "measured-fit");

    let exact = measured_backend().with_exact_growth();
    let space = mixed_space().with_apps(exact.apps());
    parity_for(&exact, &space, "measured-exact");
}

/// The analytic and measured backends recompute a scenario for less than a
/// probe costs, so a `use_cache: true` sweep with either — called
/// directly, through an `Arc`, or wrapped in a `FaultyBackend` — leaves the
/// engine's cache exactly as constructed (no reserve, probe, insert or
/// entry), reports every scenario as a miss, and returns the bits of a
/// `use_cache: false` sweep. Comm and the simulator memoise: on the same
/// terms their second pass hits every scenario.
#[test]
fn analytic_and_measured_backends_never_touch_the_cache() {
    let cached = SweepConfig { batch_size: 64, use_cache: true };
    let uncached = SweepConfig { use_cache: false, ..cached };
    let sim_space = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![16.0, 64.0])
        .clear_designs()
        .add_symmetric_grid([1.0, 2.0, 4.0, 8.0, 100.0])
        .add_asymmetric_grid([1.0, 2.0], [4.0, 16.0]);
    let measured = measured_backend();
    let measured_space = mixed_space().with_apps(measured.apps());
    // (backend, its space, whether it memoises)
    let backends: [(Arc<dyn EvalBackend + Send + Sync>, ScenarioSpace, bool); 4] = [
        (Arc::new(AnalyticBackend), mixed_space(), false),
        (Arc::new(measured), measured_space, false),
        (Arc::new(CommBackend::new()), mixed_space(), true),
        (Arc::new(SimBackend::new().with_total_ops(1e5)), sim_space, true),
    ];
    for (backend, space, memoises) in &backends {
        let (n, memoises) = (space.len() as u64, *memoises);
        let truth = Engine::new(1).sweep(space, backend, &uncached);
        let faulty = FaultyBackend::new(Arc::clone(backend), FaultPlan::new());
        let shapes: [(&str, &dyn EvalBackend); 3] =
            [("direct", &**backend), ("arc", backend), ("faulty", &faulty)];
        for (shape, wrapped) in shapes {
            let label = format!("{} {shape}", backend.name());
            assert_eq!(wrapped.memoise(), memoises, "{label}");
            let engine = Engine::new(2);
            let first = engine.sweep(space, wrapped, &cached);
            let second = engine.sweep(space, wrapped, &cached);
            assert_bit_identical(&format!("{label} first"), &truth.records, &first.records);
            assert_bit_identical(&format!("{label} second"), &truth.records, &second.records);
            assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, n), "{label}");
            if memoises {
                assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (n, 0), "{label}");
                assert_eq!(engine.cache().stats().entries as u64, n, "{label}");
            } else {
                assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (0, n), "{label}");
                assert_eq!(second.stats.warm_entries, 0, "{label}");
                // Both sweeps were computed by the backend; nothing else moved.
                let untouched = CacheStats { misses: 2 * n, ..EvalCache::new().stats() };
                assert_eq!(engine.cache().stats(), untouched, "{label}: untouched");
            }
        }
    }
}

#[test]
fn unknown_apps_stay_nan_through_the_columnar_path() {
    // A measured backend swept over applications it has no calibration for:
    // whole runs must come back NaN, exactly like the reference path.
    let backend = measured_backend();
    let space = mixed_space(); // table2 names but *not* the calibrated values
    let with_unknown = space.with_apps(vec![
        AppParams::table2_kmeans().with_name("unknown-app"),
        backend.apps()[0].clone(),
    ]);
    parity_for(&backend, &with_unknown, "measured-unknown");
}

/// RAII pin of the forced-scalar dispatch (un-pins on drop, panics
/// included, so a failing case cannot leak a forced state into later tests).
struct ForceScalar;

impl ForceScalar {
    fn pin() -> ForceScalar {
        mp_model::simd::set_forced_scalar(true);
        ForceScalar
    }
}

impl Drop for ForceScalar {
    fn drop(&mut self) {
        mp_model::simd::set_forced_scalar(false);
    }
}

/// Sweep `space` at 1 and 4 threads, cache off: the whole space, then one
/// sub-range that starts at the second design of the second shared-axis run
/// and stops three designs short of the end, so its first and last runs
/// begin and end in the middle of an organisation segment at offsets that
/// are not multiples of the vector width.
fn sweeps_at_both_widths(
    space: &ScenarioSpace,
    backend: &dyn EvalBackend,
) -> Vec<(SweepResult, SweepResult)> {
    let config = SweepConfig { batch_size: 64, use_cache: false };
    let handle = SweepHandle::new(space);
    [1usize, 4]
        .iter()
        .map(|&threads| {
            let engine = Engine::new(threads);
            let full = engine.sweep(space, backend, &config);
            let part = engine.sweep_range(&handle, backend, &config, mid_segment_range(space));
            (full, part)
        })
        .collect()
}

fn mid_segment_range(space: &ScenarioSpace) -> std::ops::Range<usize> {
    let start = (space.designs().len() + 1).min(space.len());
    start..space.len().saturating_sub(3).max(start)
}

/// The width-equivalence pin for one backend over one space: the
/// forced-scalar sweep, the default sweep (the AVX2 instantiation where the
/// host has it; the same baseline one where it does not, making the
/// comparison trivially true there), and the per-scenario reference must
/// agree bitwise.
fn lane_scalar_reference_parity(space: &ScenarioSpace, backend: &dyn EvalBackend, label: &str) {
    let scalar = {
        let _pin = ForceScalar::pin();
        sweeps_at_both_widths(space, backend)
    };
    let lanes = sweeps_at_both_widths(space, backend);
    let reference = reference_sweep(space, backend);
    let part = &reference[mid_segment_range(space)];
    for ((s, l), threads) in scalar.iter().zip(&lanes).zip([1usize, 4]) {
        assert_bit_identical(
            &format!("{label} lane-vs-scalar threads={threads}"),
            &s.0.records,
            &l.0.records,
        );
        assert_bit_identical(
            &format!("{label} lane-vs-reference threads={threads}"),
            &reference,
            &l.0.records,
        );
        assert_bit_identical(
            &format!("{label} scalar range-vs-reference threads={threads}"),
            part,
            &s.1.records,
        );
        assert_bit_identical(
            &format!("{label} lane range-vs-reference threads={threads}"),
            part,
            &l.1.records,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary spaces — fitting, over-budget, and NaN-poisoned designs
    /// alike — swept at the default width and at the forced-scalar one:
    /// every slot bitwise identical, NaN markers included. The `Measured`
    /// growth carries a NaN sample, so designs landing on the poisoned
    /// segment propagate NaN through the speedup arithmetic (not just the
    /// unfit-design select), at 1 and 4 threads.
    ///
    /// Every case walks the symmetric segment through all lengths 0..=9 and
    /// pairs each with a different asymmetric length (a permutation of 0..=9
    /// picked by `shift`), so both organisations are swept absent, shorter
    /// than one vector, and with every remainder.
    #[test]
    fn lane_kernels_match_forced_scalar_bitwise(
        sym_rs in proptest::collection::vec(0.5f64..400.0, 9),
        asym_larges in proptest::collection::vec(1.0f64..300.0, 9),
        asym_small in 0.5f64..4.0,
        shift in 0usize..10,
        budget in 16.0f64..512.0,
        sigma in 1.0f64..2.0,
        poison in proptest::bool::ANY,
    ) {
        let mut growths = vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Superlinear(sigma),
        ];
        if poison {
            growths.push(GrowthFunction::Measured(vec![
                (1.0, 0.0),
                (4.0, f64::NAN),
                (16.0, 40.0),
            ]));
        }
        let measured = measured_backend();
        let sim = SimBackend::new().with_total_ops(1e5);
        for sym_len in 0..=9usize {
            let asym_len = (sym_len * 7 + shift) % 10;
            // An explicit list, so a large core smaller than the small one
            // stays in as an unfit design instead of being filtered out.
            let designs: Vec<ChipSpec> = sym_rs[..sym_len]
                .iter()
                .map(|&r| ChipSpec::Symmetric { r })
                .chain(
                    asym_larges[..asym_len]
                        .iter()
                        .map(|&rl| ChipSpec::Asymmetric { r: asym_small, rl }),
                )
                .collect();
            if designs.is_empty() {
                continue;
            }
            let space = ScenarioSpace::new()
                .with_apps(AppParams::table2_all())
                .with_budgets(vec![budget])
                .with_designs(designs)
                .with_growths(growths.clone())
                .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75)]);
            lane_scalar_reference_parity(&space, &AnalyticBackend, "analytic");

            let measured_space = space.clone().with_apps(vec![
                measured.apps()[0].clone(),
                AppParams::table2_kmeans().with_name("unknown-app"),
            ]);
            lane_scalar_reference_parity(&measured_space, &measured, "measured");

            let sim_space = space
                .with_growths(vec![GrowthFunction::Linear])
                .with_perfs(vec![PerfModel::Pollack])
                .with_reductions(mp_par::ReductionStrategy::all().to_vec());
            lane_scalar_reference_parity(&sim_space, &sim, "sim");
        }
    }

    /// Hammer the cache from 8 threads with overlapping key ranges and
    /// assert nothing is lost or corrupted — including entries written while
    /// the map grows (it starts empty, so unreserved inserts grow it several
    /// times per run).
    #[test]
    fn concurrent_cache_hammering_loses_nothing(seed in 0u64..u64::MAX) {
        let cache = EvalCache::new();
        let per_thread = 1_500u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Overlapping ranges: neighbouring threads write the
                        // same keys with the same (deterministic) values.
                        let k = seed.wrapping_add(i + (t / 2) * per_thread);
                        let key = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k.rotate_left(23));
                        let value = f64::from_bits(k ^ 0x7ff8_0000_0000_0001);
                        cache.insert(key, value);
                        if i % 3 == 0 {
                            if let Some(got) = cache.peek(key) {
                                assert_eq!(got.to_bits(), value.to_bits());
                            }
                        }
                    }
                });
            }
        });
        // Every key of every thread is present with its exact bits.
        for t in 0..8u64 {
            for i in 0..per_thread {
                let k = seed.wrapping_add(i + (t / 2) * per_thread);
                let key = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k.rotate_left(23));
                let expect = k ^ 0x7ff8_0000_0000_0001;
                let got = cache.peek(key);
                prop_assert!(got.is_some(), "key of thread {} iteration {} lost", t, i);
                prop_assert_eq!(got.unwrap().to_bits(), expect);
            }
        }
    }
}
