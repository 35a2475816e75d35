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
//!   best record of its axis value.

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

fn sweep(space: &ScenarioSpace) -> Vec<EvalRecord> {
    Engine::new(1).sweep(space, &AnalyticBackend, &SweepConfig::default()).records
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
}
