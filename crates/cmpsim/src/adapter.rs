//! Phase-program builders for the clustering workloads.
//!
//! The programs are derived from the *algorithmic structure* of each
//! application and the shape of its data set (`N` points, `D` dimensions,
//! `C` clusters), not from measured timings, so the simulated section times
//! follow from first principles:
//!
//! * **kmeans** — per iteration, the parallel phase performs `N·C·(3D + 2)`
//!   operations (distance evaluation and best-centre selection), the merging
//!   phase reduces `C·D + C + 2` accumulator elements, and the constant serial
//!   phase recomputes the `C·D` centres and checks convergence.
//! * **fuzzy c-means** — the same structure with a heavier parallel phase
//!   (membership denominators couple every pair of clusters) and the same
//!   `C·D + C` reduction elements, which is why its parallel fraction is even
//!   closer to 1 and its reduction share of the serial time is larger.
//! * **hop** — a non-iterative pipeline: tree construction (limited
//!   parallelism, the kernel the paper identifies as hop's scalability
//!   bottleneck), kNN density estimation, hopping/chain chasing, and a
//!   group-table merge whose working set grows with the thread count
//!   (super-linear merging overhead).

use serde::{Deserialize, Serialize};

use mp_model::params::DatasetVariant;
use mp_par::ReductionStrategy;

use crate::program::{PhaseOp, PhaseProgram};

/// Shape of a clustering problem, the only input the program builders need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadShape {
    /// Number of points / particles `N`.
    pub points: usize,
    /// Number of dimensions `D`.
    pub dims: usize,
    /// Number of clusters `C` (ignored by hop).
    pub clusters: usize,
    /// Number of iterations of the iterative workloads (ignored by hop).
    pub iterations: usize,
    /// Neighbour count `k` used by hop's density estimate.
    pub neighbors: usize,
}

impl WorkloadShape {
    /// The program shape of a Table IV row: its `N`, `D` and `C`, run for
    /// 20 iterations with hop's density estimate over 12 neighbours.
    pub fn from_variant(row: &DatasetVariant) -> Self {
        WorkloadShape {
            points: row.points,
            dims: row.dims,
            clusters: row.centers,
            iterations: 20,
            neighbors: 12,
        }
    }

    /// The paper's kmeans/fuzzy base data set (Table IV's `kmeans-base`).
    pub fn kmeans_base() -> Self {
        Self::from_variant(&DatasetVariant::table4("kmeans-base"))
    }

    fn point_bytes(&self) -> usize {
        self.points * self.dims * 8
    }
}

/// Build the kmeans phase program for a data-set shape.
///
/// `reduction` selects the merge implementation (the paper's Algorithm 1 is
/// the serial linear one).
pub fn kmeans_program(shape: &WorkloadShape, reduction: ReductionStrategy) -> PhaseProgram {
    let n = shape.points as f64;
    let c = shape.clusters as f64;
    let d = shape.dims as f64;
    let elements = shape.clusters * shape.dims + shape.clusters + 2;
    PhaseProgram::new("kmeans")
        .with_body(PhaseOp::ParallelWork {
            label: "assign-and-accumulate".into(),
            ops: n * c * (3.0 * d + 2.0),
            memory_refs: n * (d + 2.0),
            working_set_bytes: shape.point_bytes(),
            max_parallelism: None,
        })
        .with_body(PhaseOp::Reduction {
            label: "merge-partials".into(),
            elements,
            ops_per_element: 1.0,
            bytes_per_element: 8,
            kind: reduction,
        })
        .with_body(PhaseOp::SerialWork {
            label: "recompute-centers".into(),
            ops: c * d * 2.0 + c + 8.0,
            memory_refs: c * d * 2.0,
            working_set_bytes: (shape.clusters * shape.dims * 8).max(64),
        })
        .with_iterations(shape.iterations)
}

/// Build the fuzzy c-means phase program for a data-set shape.
pub fn fuzzy_program(shape: &WorkloadShape, reduction: ReductionStrategy) -> PhaseProgram {
    let n = shape.points as f64;
    let c = shape.clusters as f64;
    let d = shape.dims as f64;
    let elements = shape.clusters * shape.dims + shape.clusters;
    PhaseProgram::new("fuzzy")
        .with_body(PhaseOp::ParallelWork {
            label: "memberships".into(),
            // Distances to every centre plus the pairwise membership
            // denominators and the weighted accumulation.
            ops: n * c * (3.0 * d + 2.0 * c + 8.0),
            memory_refs: n * (d + c),
            working_set_bytes: shape.point_bytes(),
            max_parallelism: None,
        })
        .with_body(PhaseOp::Reduction {
            label: "merge-partials".into(),
            elements,
            ops_per_element: 1.0,
            bytes_per_element: 8,
            kind: reduction,
        })
        .with_body(PhaseOp::SerialWork {
            label: "recompute-centers".into(),
            ops: c * d * 3.0 + c,
            memory_refs: c * d * 2.0,
            working_set_bytes: (shape.clusters * shape.dims * 8).max(64),
        })
        .with_iterations(shape.iterations)
}

/// Number of density-peak groups hop typically finds for `points` particles
/// (one per few hundred particles); used to size the group-table merge.
pub fn hop_group_estimate(points: usize) -> usize {
    (points / 256).max(16)
}

/// Build the hop phase program for a data-set shape.
///
/// `tree_build_parallelism` caps the tree-construction kernel (MineBench's
/// kernel scales to only a handful of threads; the paper attributes hop's
/// 13.5× speedup at 16 cores to exactly this).
pub fn hop_program(
    shape: &WorkloadShape,
    reduction: ReductionStrategy,
    tree_build_parallelism: usize,
) -> PhaseProgram {
    let n = shape.points as f64;
    let k = shape.neighbors as f64;
    let log_n = (shape.points as f64).log2().max(1.0);
    let groups = hop_group_estimate(shape.points);
    PhaseProgram::new("hop")
        .with_prologue(PhaseOp::ParallelWork {
            label: "build-kdtree".into(),
            ops: n * log_n,
            memory_refs: n * log_n / 4.0,
            working_set_bytes: shape.point_bytes(),
            max_parallelism: Some(tree_build_parallelism.max(1)),
        })
        .with_body(PhaseOp::ParallelWork {
            label: "density".into(),
            ops: n * k * log_n,
            memory_refs: n * k,
            working_set_bytes: shape.point_bytes(),
            max_parallelism: None,
        })
        .with_body(PhaseOp::ParallelWork {
            label: "hop-and-chase".into(),
            ops: n * k * log_n * 0.5,
            memory_refs: n * k * 0.5,
            working_set_bytes: shape.point_bytes(),
            max_parallelism: None,
        })
        .with_body(PhaseOp::Reduction {
            label: "merge-group-tables".into(),
            elements: groups,
            // A hash probe, a compare and two accumulations per entry.
            ops_per_element: 8.0,
            // A hash-table entry (key, count, mass, padding).
            bytes_per_element: 32,
            kind: reduction,
        })
        .with_body(PhaseOp::SerialWork {
            label: "filter-groups".into(),
            ops: groups as f64 * (groups as f64).log2().max(1.0),
            memory_refs: groups as f64 * 2.0,
            working_set_bytes: groups * 32,
        })
        .with_iterations(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::machine::Machine;
    use mp_model::phase::PhaseKind;

    #[test]
    fn kmeans_program_has_three_phases_per_iteration() {
        let p = kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear);
        assert_eq!(p.body.len(), 3);
        assert_eq!(p.iterations, 20);
        assert!(p.prologue.is_empty());
    }

    #[test]
    fn kmeans_serial_fraction_is_tiny_on_one_core() {
        let p = kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear);
        let report = simulate(&p, &Machine::table1(1));
        let serial_fraction = report.serial_cycles() / report.total_cycles();
        // Paper Table II: 0.015 %. Ours should be of the same order (< 0.2 %).
        assert!(serial_fraction < 0.002, "serial fraction {serial_fraction}");
        assert!(serial_fraction > 0.0);
    }

    #[test]
    fn fuzzy_has_smaller_serial_fraction_than_kmeans() {
        // Fuzzy's parallel phase is heavier per point while its merge is the
        // same size, so its serial fraction must be smaller (Table II: 0.002 %
        // vs 0.015 %).
        let shape = WorkloadShape::kmeans_base();
        let km =
            simulate(&kmeans_program(&shape, ReductionStrategy::SerialLinear), &Machine::table1(1));
        let fz =
            simulate(&fuzzy_program(&shape, ReductionStrategy::SerialLinear), &Machine::table1(1));
        let km_s = km.serial_cycles() / km.total_cycles();
        let fz_s = fz.serial_cycles() / fz.total_cycles();
        assert!(fz_s < km_s, "fuzzy {fz_s} vs kmeans {km_s}");
    }

    #[test]
    fn kmeans_and_fuzzy_scale_nearly_linearly_to_16_cores() {
        // Figure 2(a): kmeans and fuzzy exhibit speedups close to 16.
        for program in [
            kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear),
            fuzzy_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear),
        ] {
            let base = simulate(&program, &Machine::table1(1)).total_cycles();
            let at16 = simulate(&program, &Machine::table1(16)).total_cycles();
            let speedup = base / at16;
            assert!(speedup > 14.0, "{}: speedup {speedup}", program.name);
            assert!(speedup <= 16.0 + 1e-9);
        }
    }

    #[test]
    fn hop_speedup_saturates_near_thirteen() {
        // Figure 2(a): hop reaches only ≈ 13.5× at 16 cores because of the
        // tree-construction kernel.
        let program = hop_program(&hop_default(), ReductionStrategy::SerialLinear, 4);
        let base = simulate(&program, &Machine::table1(1)).total_cycles();
        let at16 = simulate(&program, &Machine::table1(16)).total_cycles();
        let speedup = base / at16;
        assert!(speedup > 11.0 && speedup < 15.5, "hop speedup {speedup}");
    }

    #[test]
    fn serial_section_grows_with_core_count() {
        // Figure 2(b): the serial-section time grows as cores are added.
        for program in [
            kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear),
            fuzzy_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear),
            hop_program(&hop_default(), ReductionStrategy::SerialLinear, 4),
        ] {
            let s1 = simulate(&program, &Machine::table1(1)).serial_cycles();
            let s16 = simulate(&program, &Machine::table1(16)).serial_cycles();
            assert!(
                s16 / s1 > 2.0,
                "{}: serial section should grow, got {}",
                program.name,
                s16 / s1
            );
        }
    }

    #[test]
    fn hop_merge_growth_is_superlinear_in_the_tail() {
        // The paper measures a super-linear merging overhead for hop because of
        // its memory-bound merge. Verify the per-thread merge cost increases
        // with the thread count (the slope steepens once the partial tables
        // outgrow the L1).
        let program = hop_program(&hop_default(), ReductionStrategy::SerialLinear, 4);
        let red = |cores: usize| {
            simulate(&program, &Machine::table1(cores)).cycles_in(PhaseKind::Reduction)
        };
        let r2 = red(2);
        let r8 = red(8);
        let r32 = red(32);
        // Per-partial cost (cost divided by thread count) should increase.
        assert!(r8 / 8.0 >= r2 / 2.0 * 0.99);
        assert!(r32 / 32.0 > r8 / 8.0, "merge cost per partial should grow");
    }

    #[test]
    fn privatized_reduction_produces_communication_phases() {
        let program =
            kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::ParallelPrivatized);
        let report = simulate(&program, &Machine::table1(16));
        assert!(report.cycles_in(PhaseKind::Communication) > 0.0);
    }

    #[test]
    fn group_estimate_is_reasonable() {
        assert_eq!(hop_group_estimate(61_440), 240);
        assert_eq!(hop_group_estimate(1000), 16);
    }

    fn hop_default() -> WorkloadShape {
        WorkloadShape::from_variant(&DatasetVariant::table4("hop-default"))
    }
}
