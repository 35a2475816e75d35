//! Property-based tests of the `mp-dse` exploration engine: Pareto frontiers
//! are minimal and dominating, memoisation never changes a single bit,
//! engine sweeps reproduce the `model::explore` loops, and the
//! analytic and simulation backends agree where their assumptions overlap.

// The `proptest!` blocks below expand deeply enough to trip the default
// macro recursion limit.
#![recursion_limit = "512"]

use merging_phases::dse::prelude::*;
use merging_phases::model::explore;
use merging_phases::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = AppParams> {
    (0.9f64..=0.9999, 0.1f64..=0.9, 0.0f64..=2.0)
        .prop_map(|(f, fcon, fored)| AppParams::new("prop", f, fcon, fored, 0.0).unwrap())
}

fn arb_growth() -> impl Strategy<Value = GrowthFunction> {
    prop_oneof![
        Just(GrowthFunction::Constant),
        Just(GrowthFunction::Linear),
        Just(GrowthFunction::Logarithmic),
        Just(GrowthFunction::Superlinear(1.55)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The Pareto frontier is minimal (no frontier point dominates
    /// another) and dominates-or-equals every evaluated point, on both cost
    /// axes, for arbitrary record clouds including invalid (NaN) entries.
    #[test]
    fn pareto_frontier_is_minimal_and_dominating(
        points in proptest::collection::vec((0.1f64..1000.0, 1.0f64..512.0), 1..120),
        nans in 0usize..4,
    ) {
        let mut records: Vec<EvalRecord> = points
            .iter()
            .enumerate()
            .map(|(index, &(speedup, cores))| EvalRecord {
                index,
                speedup,
                cores,
                area: 256.0 / cores,
            })
            .collect();
        for i in 0..nans {
            records.push(EvalRecord { index: points.len() + i, speedup: f64::NAN, cores: 1.0, area: 1.0 });
        }
        for cost in [CostAxis::Cores, CostAxis::Area] {
            let frontier = merging_phases::dse::analysis::pareto_frontier(&records, cost);
            prop_assert!(!frontier.is_empty());
            // Minimal: frontier points never dominate each other.
            for a in &frontier {
                for b in &frontier {
                    if a.index != b.index {
                        prop_assert!(
                            !merging_phases::dse::analysis::dominates(a, b, cost),
                            "frontier point {} dominates {}", a.index, b.index
                        );
                    }
                }
            }
            // Dominating: every valid record is dominated-or-equal.
            for r in records.iter().filter(|r| r.is_valid()) {
                let covered = frontier.iter().any(|f| {
                    merging_phases::dse::analysis::dominates(f, r, cost)
                        || (cost.cost(f) == cost.cost(r) && f.speedup == r.speedup)
                });
                prop_assert!(covered, "record {} escapes the frontier", r.index);
            }
        }
    }

    /// (b) Memoised and un-memoised sweeps are bit-identical, as is a re-sweep
    /// answered entirely from the warm cache — on the simulator, the backend
    /// that memoises — and the analytic backend, which never does, recomputes
    /// the same bits on every pass.
    #[test]
    fn cached_and_uncached_sweeps_are_bit_identical(
        params in arb_params(),
        growth in arb_growth(),
        budget in 16.0f64..512.0,
    ) {
        let space = ScenarioSpace::new()
            .with_apps(vec![params])
            .with_budgets(vec![budget])
            .with_growths(vec![growth])
            .clear_designs()
            .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64 * 13.0))
            .add_asymmetric_grid([1.0, 4.0], [8.0, 64.0, 300.0]);
        let sim = SimBackend::new().with_total_ops(1e5);
        for backend in [&sim as &dyn EvalBackend, &AnalyticBackend] {
            let engine = Engine::new(2);
            let cold = engine.sweep(&space, backend, &SweepConfig { batch_size: 8, use_cache: false });
            let caching = engine.sweep(&space, backend, &SweepConfig { batch_size: 8, use_cache: true });
            let warm = engine.sweep(&space, backend, &SweepConfig { batch_size: 8, use_cache: true });
            let hits = if backend.memoise() { space.len() } else { 0 };
            prop_assert_eq!(warm.stats.cache_misses as usize, space.len() - hits);
            prop_assert!(warm.stats.cache_hits as usize == hits);
            for ((a, b), c) in cold.records.iter().zip(caching.records.iter()).zip(warm.records.iter()) {
                prop_assert!(a.speedup.to_bits() == b.speedup.to_bits(), "cold vs caching at {}", a.index);
                prop_assert!(a.speedup.to_bits() == c.speedup.to_bits(), "cold vs warm at {}", a.index);
            }
        }
    }

    /// (c) An engine sweep of the paper's power-of-two grid reproduces the
    /// `model::explore` loops bit-for-bit, symmetric and asymmetric.
    #[test]
    fn analytic_sweeps_match_legacy_explore(params in arb_params(), growth in arb_growth()) {
        let budget = ChipBudget::paper_default();
        let model = ExtendedModel::new(params.clone(), growth.clone(), PerfModel::Pollack);
        let sizes = budget.power_of_two_core_sizes();
        let rls: Vec<f64> =
            sizes.iter().copied().filter(|&rl| rl >= 4.0 && rl < budget.total_bce()).collect();
        let space = ScenarioSpace::new()
            .with_apps(vec![params])
            .with_budgets(vec![budget.total_bce()])
            .with_growths(vec![growth])
            .clear_designs()
            .add_symmetric_grid(sizes)
            .add_asymmetric_grid([4.0], rls);
        let swept = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());

        let symmetric = explore::symmetric_curve(&model, budget, "x").unwrap();
        let asymmetric = explore::asymmetric_curve(&model, budget, 4.0, "x").unwrap();
        let legacy: Vec<_> = symmetric.points.iter().chain(&asymmetric.points).collect();
        prop_assert_eq!(swept.records.len(), legacy.len());
        for (a, b) in swept.records.iter().zip(legacy) {
            prop_assert!(a.area == b.area && a.cores == b.cores, "index {}", a.index);
            prop_assert!(a.speedup.to_bits() == b.speedup.to_bits(), "area={}", a.area);
        }
    }

    /// (d) Where the backends' assumptions overlap — linear growth with a
    /// unit overhead coefficient, unit cores, merge tables that stay
    /// L1-resident — the analytic and simulation backends agree within 2 %.
    #[test]
    fn analytic_and_sim_backends_agree_on_small_grids(
        f in 0.99f64..=0.9999,
        fcon in 0.2f64..=0.9,
    ) {
        let app = AppParams::new("overlap", f, fcon, 1.0, 0.0).unwrap();
        let space = ScenarioSpace::new()
            .with_apps(vec![app])
            .with_budgets(vec![2.0, 4.0, 8.0, 16.0])
            .with_growths(vec![GrowthFunction::Linear])
            .clear_designs()
            .add_symmetric_grid([1.0]);
        let engine = Engine::new(1);
        let config = SweepConfig { batch_size: 16, use_cache: false };
        let analytic = engine.sweep(&space, &AnalyticBackend, &config);
        let sim_backend = SimBackend::new().with_total_ops(1e5);
        let sim = engine.sweep(&space, &sim_backend, &config);
        for (a, s) in analytic.records.iter().zip(sim.records.iter()) {
            prop_assert!(a.is_valid() && s.is_valid());
            let rel = (a.speedup - s.speedup).abs() / a.speedup;
            prop_assert!(
                rel < 0.02,
                "cores={}: analytic {} vs sim {} (rel {rel})", a.cores, a.speedup, s.speedup
            );
        }
    }
}

#[test]
fn parallel_sweep_of_a_mixed_space_is_deterministic() {
    // A deterministic cross-backend smoke test kept out of proptest to bound
    // runtime: a mixed symmetric/asymmetric space with unfit designs, swept
    // in parallel with memoisation (the simulator memoises), twice, through
    // two engines.
    let space = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![64.0, 256.0])
        .with_growths(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic])
        .clear_designs()
        .add_symmetric_grid((0..40).map(|i| 1.0 + i as f64 * 7.0))
        .add_asymmetric_grid([1.0, 2.0], [4.0, 32.0, 128.0]);
    let a = Engine::new(4);
    let b = Engine::new(1);
    let sim = SimBackend::new();
    let config = SweepConfig { batch_size: 32, use_cache: true };
    let first = a.sweep(&space, &sim, &config);
    let second = a.sweep(&space, &sim, &config);
    let reference = b.sweep(&space, &sim, &SweepConfig { batch_size: 1024, use_cache: false });
    assert_eq!(first.stats.scenarios, space.len());
    assert!(first.stats.valid < space.len(), "some designs must not fit the 64-BCE budget");
    assert_eq!(second.stats.cache_misses, 0);
    for ((x, y), z) in first.records.iter().zip(second.records.iter()).zip(reference.records.iter())
    {
        assert_eq!(x.speedup.to_bits(), y.speedup.to_bits());
        assert_eq!(x.speedup.to_bits(), z.speedup.to_bits());
    }
}

#[test]
fn comm_backend_tracks_the_paper_figure7_configuration() {
    // The comm backend on the fig7 grid must reproduce the CommModel peak
    // (46.6 at r = 8 for the non-emb/mod-con/high-ovh class).
    let class = merging_phases::model::params::AppClass {
        embarrassingly_parallel: false,
        high_constant: false,
        high_reduction_overhead: true,
    };
    let space = ScenarioSpace::new()
        .with_apps(vec![class.params()])
        .with_growths(vec![GrowthFunction::Constant])
        .clear_designs()
        .add_symmetric_grid(ChipBudget::paper_default().power_of_two_core_sizes());
    let engine = Engine::new(1);
    let result = engine.sweep(&space, &CommBackend::new(), &SweepConfig::default());
    let best = merging_phases::dse::analysis::top_k(&result.records, 1)[0];
    assert_eq!(best.area, 8.0, "peak should sit at r = 8");
    assert!((best.speedup - 46.6).abs() < 1.5, "got {}", best.speedup);
}

fn tagged_record(index: usize, run: usize, slot: usize) -> EvalRecord {
    // The payload encodes provenance so any reordering among equal keys (or
    // misattribution across runs) breaks bit-identity, not just ordering.
    EvalRecord {
        index,
        speedup: (run * 10_000 + slot) as f64,
        cores: run as f64,
        area: slot as f64,
    }
}

/// Body of (f): the Merge-Path partitioned merge is bit-identical to the
/// stable sequential k-way merge for arbitrary run shapes — empty runs,
/// single elements, heavy skew, duplicated keys across runs — at every
/// partition count.
fn check_merge_path_equals_sequential(raw: &[Vec<usize>], parts: usize) {
    let runs_owned: Vec<Vec<EvalRecord>> = raw
        .iter()
        .enumerate()
        .map(|(run, keys)| {
            let mut keys = keys.clone();
            keys.sort_unstable();
            keys.iter().enumerate().map(|(slot, &k)| tagged_record(k, run, slot)).collect()
        })
        .collect();
    let runs: Vec<&[EvalRecord]> = runs_owned.iter().map(|r| r.as_slice()).collect();
    let want = sequential_merge(&runs);
    let got = merge_runs(&runs, parts);
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "stability violated");
        assert_eq!(a.cores.to_bits(), b.cores.to_bits());
        assert_eq!(a.area.to_bits(), b.area.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (f) Merge Path vs the stable sequential reference.
    #[test]
    fn merge_path_equals_sequential_merge_for_arbitrary_runs(
        raw in proptest::collection::vec(proptest::collection::vec(0usize..400, 0..60), 0..6),
        parts in 1usize..10,
    ) {
        check_merge_path_equals_sequential(&raw, parts);
    }
}
