//! One module per reproduced table / figure.
//!
//! Every generator is a pure function returning `Vec<TableRow>` (plus, where
//! useful, richer structures) so it can be called from the `repro` binary, the
//! Criterion benchmarks and the integration tests alike.

use mp_model::explore::{figure_curves, Curve, Figure};
use mp_profile::TableRow;

pub mod characterization;
pub mod design_space;
pub mod scalability;
pub mod tables;

pub use characterization::{
    fig2a_scalability, fig2b_serial_growth, fig2c_real_serial_growth, fig2d_model_accuracy,
    simulated_accounting, table2_extracted_parameters,
};
pub use design_space::{
    fig4_symmetric_design_space, fig5_asymmetric_design_space, fig7_communication_model,
};
pub use scalability::fig3_scalability_prediction;
pub use tables::{
    fig6_reduction_split, table1_machine_config, table3_application_classes,
    table4_dataset_sensitivity,
};

/// The core counts used by the characterisation experiments (the paper's
/// simulations stop at 16 cores).
pub const CHARACTERIZATION_CORES: [usize; 5] = [1, 2, 4, 8, 16];

/// The rows of one paper figure: one row per curve of
/// [`figure_curves`]`(figure)`, one `"{axis}={area}"` column per point, where
/// `axis(curve)` names the curve's swept axis.
fn figure_rows(figure: Figure, axis: impl Fn(&Curve) -> &'static str) -> Vec<TableRow> {
    let curves = figure_curves(figure).expect("paper figures always evaluate");
    curves
        .iter()
        .map(|curve| {
            let axis = axis(curve);
            curve.points.iter().fold(TableRow::new(curve.label.clone()), |row, point| {
                row.with(format!("{axis}={}", point.area), point.speedup)
            })
        })
        .collect()
}
