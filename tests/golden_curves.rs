//! Golden-file regression tests for the paper's figure curves (Figures 3,
//! 4, 5 and 7, via `mp_model::explore::figure_curves`).
//!
//! Each figure's full curve family is serialised to JSON and compared
//! **byte-for-byte** against a checked-in snapshot under `tests/golden/`.
//! The workspace JSON printer emits every `f64` in its shortest
//! round-trippable form, so byte equality of the serialisation is exactly
//! bit equality of every speedup — any change to the models or the
//! `explore` loops that perturbs a single mantissa bit fails these tests.
//! The engine's batched path is held to the same models by
//! `tests/sweep_parity.rs`.
//!
//! ## Regenerating the snapshots
//!
//! After an *intentional* numeric change, regenerate and commit the files:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_curves
//! git diff tests/golden/   # review every changed number!
//! ```
//!
//! The regeneration path never deletes: it rewrites the four files and the
//! test passes, so a forgotten `REGEN_GOLDEN` in CI would still pin the
//! committed state on the next plain run.

use std::path::PathBuf;

use merging_phases::model::explore::{figure_curves, Figure};

fn golden_path(figure: Figure) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{figure}.json"))
}

fn check(figure: Figure) {
    let curves = figure_curves(figure).expect("paper figures always evaluate");
    let rendered = serde_json::to_string_pretty(&curves).expect("curves serialise");
    let path = golden_path(figure);
    if std::env::var("REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, rendered.as_bytes()).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `REGEN_GOLDEN=1 cargo test --test golden_curves`",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "{figure} diverged from its golden snapshot; if the change is intentional, regenerate \
         with `REGEN_GOLDEN=1 cargo test --test golden_curves` and review the diff"
    );
}

#[test]
fn fig3_scalability_curves_match_golden() {
    check(Figure::Fig3);
}

#[test]
fn fig4_symmetric_design_space_matches_golden() {
    check(Figure::Fig4);
}

#[test]
fn fig5_asymmetric_design_space_matches_golden() {
    check(Figure::Fig5);
}

#[test]
fn fig7_communication_model_matches_golden() {
    check(Figure::Fig7);
}

/// The snapshot mechanism itself: golden JSON round-trips to the exact
/// in-memory curves, so byte equality really is bit equality.
#[test]
fn golden_serialisation_round_trips_bitwise() {
    for figure in Figure::ALL {
        let curves = figure_curves(figure).expect("paper figures always evaluate");
        let rendered = serde_json::to_string_pretty(&curves).expect("curves serialise");
        let parsed: Vec<merging_phases::model::explore::Curve> =
            serde_json::from_str(&rendered).expect("golden JSON parses");
        assert_eq!(parsed.len(), curves.len());
        for (a, b) in parsed.iter().zip(curves.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.points.len(), b.points.len());
            for (p, q) in a.points.iter().zip(b.points.iter()) {
                assert_eq!(p.area.to_bits(), q.area.to_bits());
                assert_eq!(p.cores.to_bits(), q.cores.to_bits());
                assert_eq!(p.speedup.to_bits(), q.speedup.to_bits());
            }
        }
    }
}

/// The tables `repro fig3|fig4|fig5|fig7` print are the golden curve
/// families: the same labels in the same order, one column per point named
/// after the swept axis (`p=` cores, `r=` per-core area, `rl=` large-core
/// area), and bit-equal values.
#[test]
fn printed_figure_tables_are_the_golden_curves() {
    use mp_bench::figures;
    let tables = [
        (Figure::Fig3, figures::fig3_scalability_prediction()),
        (Figure::Fig4, figures::fig4_symmetric_design_space()),
        (Figure::Fig5, figures::fig5_asymmetric_design_space()),
        (Figure::Fig7, figures::fig7_communication_model()),
    ];
    for (figure, rows) in tables {
        let curves = figure_curves(figure).expect("paper figures always evaluate");
        assert_eq!(rows.len(), curves.len(), "{figure}: row count");
        for (row, curve) in rows.iter().zip(&curves) {
            assert_eq!(row.label, curve.label, "{figure}: row order");
            let axis = match figure {
                Figure::Fig3 => "p",
                Figure::Fig4 => "r",
                Figure::Fig5 => "rl",
                Figure::Fig7 if curve.label == "symmetric" => "r",
                Figure::Fig7 => "rl",
            };
            assert_eq!(row.values.len(), curve.points.len(), "{figure} {}", row.label);
            for ((column, value), point) in row.values.iter().zip(&curve.points) {
                assert_eq!(*column, format!("{axis}={}", point.area), "{figure} {}", row.label);
                assert_eq!(
                    value.to_bits(),
                    point.speedup.to_bits(),
                    "{figure} {} {column}",
                    row.label
                );
            }
        }
    }
}
