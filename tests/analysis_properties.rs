//! Property tests of the sweep analysis invariants, driven by
//! proptest-generated scenario spaces evaluated through the real engine
//! (not synthetic record clouds):
//!
//! * the Pareto frontier is **mutually non-dominated** and **complete** —
//!   every valid record that no other record dominates appears in the
//!   frontier (up to exact `(cost, speedup)` duplicates, of which the
//!   frontier keeps one);
//! * `top_k` is a **sorted prefix of the full ranking**: extending `k` never
//!   reorders earlier entries, and the ranking is speedup-descending with
//!   deterministic tie-breaks;
//! * `ScenarioSpace::labels` has **one label per axis value, in axis order**,
//!   and every per-axis optimum is named from those tables and is the first
//!   best record of its axis value;
//! * the fused reducers are **bit-identical to the sort-based oracles**:
//!   `Engine::reduce_range` with `TopK` / `Pareto` at 1, 2 and 4 threads and
//!   any batch size answers exactly what `top_k` / `pareto_frontier` answer
//!   over a full sweep, on spaces with duplicate designs (speedup ties) and
//!   unfit (NaN) designs; and however a record slice is split into partials,
//!   shuffled, and merged in whatever order, the answer does not move.

use merging_phases::dse::prelude::*;
use merging_phases::prelude::*;
use proptest::prelude::*;

fn arb_space() -> impl Strategy<Value = ScenarioSpace> {
    (
        proptest::collection::vec((0.9f64..=0.9999, 0.1f64..=0.9, 0.0f64..=2.0), 1..4),
        1usize..40,
        prop_oneof![Just(64.0f64), Just(256.0), Just(1024.0)],
        prop_oneof![
            Just(vec![GrowthFunction::Linear]),
            Just(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic]),
            Just(vec![GrowthFunction::Superlinear(1.55)]),
        ],
        // The stub proptest stops at 5-tuples, so the last two axes nest.
        (
            prop_oneof![
                Just(vec![PerfModel::Pollack]),
                Just(vec![PerfModel::Power(0.75), PerfModel::Pollack]),
            ],
            prop_oneof![
                Just(vec![Topology::Mesh2D]),
                Just(vec![Topology::Ideal, Topology::Mesh2D]),
            ],
        ),
    )
        .prop_map(|(app_params, sym_designs, budget, growths, (perfs, topologies))| {
            let apps: Vec<AppParams> = app_params
                .into_iter()
                .enumerate()
                .map(|(i, (f, fcon, fored))| {
                    AppParams::new(format!("app{i}"), f, fcon, fored, 0.0).unwrap()
                })
                .collect();
            // A mix of fitting and non-fitting designs, so invalid (NaN)
            // records flow through the analyses too.
            ScenarioSpace::new()
                .with_apps(apps)
                .with_budgets(vec![budget])
                .clear_designs()
                .add_symmetric_grid((0..sym_designs).map(|i| 1.0 + i as f64 * 7.0))
                .add_asymmetric_grid([1.0, 4.0], [4.0, 64.0, 512.0])
                .with_growths(growths)
                .with_perfs(perfs)
                .with_topologies(topologies)
        })
}

/// [`arb_space`] with its first `dups` symmetric designs swept twice, so
/// equal speedups (ties broken by cores, then index) reach the reducers.
fn arb_tied_space() -> impl Strategy<Value = ScenarioSpace> {
    (arb_space(), 1usize..6)
        .prop_map(|(space, dups)| space.add_symmetric_grid((0..dups).map(|i| 1.0 + i as f64 * 7.0)))
}

fn sweep(space: &ScenarioSpace) -> Vec<EvalRecord> {
    Engine::new(1).sweep(space, &AnalyticBackend, &SweepConfig::default()).records
}

/// Every field of every record, as bits: `==` on `f64` would equate `-0.0`
/// with `0.0`.
fn bits(records: &[EvalRecord]) -> Vec<(usize, u64, u64, u64)> {
    records
        .iter()
        .map(|r| (r.index, r.speedup.to_bits(), r.cores.to_bits(), r.area.to_bits()))
        .collect()
}

/// A deterministic Fisher–Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        items.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
}

/// Fold each part into its own clone of `init`, merge the partials in
/// `order`, and finish.
fn fold_parts<R: Reducer>(init: &R, parts: &[&[EvalRecord]], order: &[usize]) -> R::Output {
    let partials: Vec<R> = parts
        .iter()
        .map(|part| {
            let mut partial = init.clone();
            partial.fold(part);
            partial
        })
        .collect();
    let mut merged = init.clone();
    for &i in order {
        merged.merge(partials[i].clone());
    }
    merged.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pareto: mutual non-domination plus completeness, on both cost axes.
    #[test]
    fn pareto_front_is_mutually_nondominated_and_complete(space in arb_space()) {
        let records = sweep(&space);
        for cost in [CostAxis::Cores, CostAxis::Area] {
            let frontier = pareto_frontier(&records, cost);
            // Mutually non-dominated (and all valid).
            for a in &frontier {
                prop_assert!(a.is_valid());
                for b in &frontier {
                    if a.index != b.index {
                        prop_assert!(
                            !dominates(a, b, cost),
                            "frontier point {} dominates {} on {}", a.index, b.index, cost.name()
                        );
                    }
                }
            }
            // Complete: every valid record no other valid record dominates is
            // on the frontier, up to exact (cost, speedup) duplicates.
            let valid: Vec<&EvalRecord> = records.iter().filter(|r| r.is_valid()).collect();
            for record in &valid {
                let dominated = valid
                    .iter()
                    .any(|other| other.index != record.index && dominates(other, record, cost));
                if !dominated {
                    prop_assert!(
                        frontier.iter().any(|f| {
                            f.speedup.to_bits() == record.speedup.to_bits()
                                && cost.cost(f).to_bits() == cost.cost(record).to_bits()
                        }),
                        "non-dominated record {} (speedup {}, {} {}) missing from the {} frontier",
                        record.index, record.speedup, cost.name(), cost.cost(record), cost.name()
                    );
                }
            }
            // And conversely the frontier only contains non-dominated records.
            for f in &frontier {
                prop_assert!(
                    !valid.iter().any(|other| other.index != f.index && dominates(other, f, cost)),
                    "frontier point {} is dominated", f.index
                );
            }
        }
    }

    /// top-k: a sorted prefix of the full ranking, for every k.
    #[test]
    fn top_k_is_a_sorted_prefix_of_the_full_ranking(space in arb_space()) {
        let records = sweep(&space);
        let valid = records.iter().filter(|r| r.is_valid()).count();
        let ranking = top_k(&records, usize::MAX);
        // The full ranking holds every valid record.
        prop_assert_eq!(ranking.len(), valid);
        // Sorted: speedup descending, ties toward fewer cores then lower index.
        for pair in ranking.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(
                a.speedup > b.speedup
                    || (a.speedup == b.speedup
                        && (a.cores < b.cores || (a.cores == b.cores && a.index < b.index))),
                "ranking misordered at indices {} / {}", a.index, b.index
            );
        }
        // Prefix: every k returns exactly the first k entries of the ranking.
        for k in [0usize, 1, 2, 5, valid / 2, valid, valid + 7] {
            let top = top_k(&records, k);
            prop_assert_eq!(&top[..], &ranking[..k.min(valid)]);
        }
    }

    /// labels: one entry per axis value in axis order; `per_axis_optima`
    /// names its entries from the same tables and picks the first best.
    #[test]
    fn axis_labels_cover_every_axis_value_and_name_every_optimum(space in arb_space()) {
        let labels = space.labels();
        let names: Vec<String> = space.apps().iter().map(|app| app.name.clone()).collect();
        prop_assert_eq!(&labels.app, &names);
        let budgets: Vec<String> = space.budgets().iter().map(|b| b.to_string()).collect();
        prop_assert_eq!(&labels.budget, &budgets);
        let growths: Vec<String> = space.growths().iter().map(|g| g.label()).collect();
        prop_assert_eq!(&labels.growth, &growths);
        let perfs: Vec<String> = space.perfs().iter().map(|p| p.label()).collect();
        prop_assert_eq!(&labels.perf, &perfs);
        prop_assert_eq!(&labels.reduction, &vec!["serial-linear".to_string()]);
        let topologies: Vec<String> =
            space.topologies().iter().map(|t| format!("{t:?}")).collect();
        prop_assert_eq!(&labels.topology, &topologies);

        let records = sweep(&space);
        let optima = per_axis_optima(&space, &records);
        // (position of the axis, the record's value on it, the axis's labels)
        let axis_of = |axis: &str, index: usize| {
            let ix = space.decode(index);
            match axis {
                "app" => (0, ix.app, &labels.app),
                "budget" => (1, ix.budget, &labels.budget),
                "growth" => (2, ix.growth, &labels.growth),
                "perf" => (3, ix.perf, &labels.perf),
                "reduction" => (4, ix.reduction, &labels.reduction),
                "topology" => (5, ix.topology, &labels.topology),
                other => panic!("unknown axis {other}"),
            }
        };
        let mut order = Vec::new();
        for optimum in &optima {
            let (axis, value, table) = axis_of(&optimum.axis, optimum.record.index);
            prop_assert_eq!(&optimum.value, &table[value]);
            // The first record of that axis value that nothing beats.
            let mut best: Option<&EvalRecord> = None;
            for r in records.iter().filter(|r| r.is_valid()) {
                let same_value = axis_of(&optimum.axis, r.index).1 == value;
                if same_value && best.map_or(true, |b| r.speedup > b.speedup) {
                    best = Some(r);
                }
            }
            prop_assert_eq!(Some(&optimum.record), best);
            order.push((axis, value));
        }
        // Axis order, then value order within an axis, no duplicates.
        prop_assert!(order.windows(2).all(|pair| pair[0] < pair[1]), "order: {:?}", order);
    }

    /// The fused path: `reduce_range` at 1, 2 and 4 threads and any batch
    /// size is bit-identical to the sort-based oracle on a full sweep.
    #[test]
    fn reduce_range_is_bit_identical_to_the_sort_based_oracle(
        space in arb_tied_space(),
        batch_size in 1usize..=4096,
    ) {
        let records = sweep(&space);
        let n = records.len();
        let handle = SweepHandle::new(&space);
        let config = SweepConfig { batch_size, use_cache: false };
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(threads);
            for k in [0usize, 1, 7, n / 2, n, n + 1, usize::MAX] {
                let (top, stats) =
                    engine.reduce_range(&handle, &AnalyticBackend, &config, 0..n, TopK::new(k));
                prop_assert!(
                    bits(&top.finish()) == bits(&top_k(&records, k)),
                    "top_k({}) at {} threads, batch {}", k, threads, batch_size
                );
                prop_assert_eq!(stats.scenarios, n);
                prop_assert_eq!(stats.valid, records.iter().filter(|r| r.is_valid()).count());
            }
            for cost in [CostAxis::Cores, CostAxis::Area] {
                let pareto = Pareto::new(&space, cost);
                let (pareto, _) =
                    engine.reduce_range(&handle, &AnalyticBackend, &config, 0..n, pareto);
                prop_assert!(
                    bits(&pareto.finish()) == bits(&pareto_frontier(&records, cost)),
                    "{} frontier at {} threads, batch {}", cost.name(), threads, batch_size
                );
            }
        }
    }

    /// The merge: however the records are shuffled, cut into partials and
    /// merged, the answer is the oracle's.
    #[test]
    fn partials_merge_to_the_oracle_in_any_split_and_order(
        space in arb_tied_space(),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
        seed in 0u64..u64::MAX,
        shuffled in proptest::bool::ANY,
    ) {
        let records = sweep(&space);
        let mut pieces = records.clone();
        if shuffled {
            shuffle(&mut pieces, seed);
        }
        let mut at: Vec<usize> = cuts.iter().map(|c| (c * pieces.len() as f64) as usize).collect();
        at.push(0);
        at.push(pieces.len());
        at.sort_unstable();
        let parts: Vec<&[EvalRecord]> = at.windows(2).map(|w| &pieces[w[0]..w[1]]).collect();
        let mut order: Vec<usize> = (0..parts.len()).collect();
        shuffle(&mut order, seed.rotate_left(17));

        let valid = records.iter().filter(|r| r.is_valid()).count();
        for k in [0usize, 1, 5, valid, usize::MAX] {
            prop_assert!(
                bits(&fold_parts(&TopK::new(k), &parts, &order)) == bits(&top_k(&records, k)),
                "top_k({}) over {} partials", k, parts.len()
            );
        }
        for cost in [CostAxis::Cores, CostAxis::Area] {
            let frontier = fold_parts(&Pareto::new(&space, cost), &parts, &order);
            prop_assert!(
                bits(&frontier) == bits(&pareto_frontier(&records, cost)),
                "{} frontier over {} partials", cost.name(), parts.len()
            );
        }
    }
}
