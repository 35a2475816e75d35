//! Interconnect topologies and their communication growth functions
//! (paper Section V-E, Eq. 8).
//!
//! For the communication-aware model the overhead of exchanging the partial
//! reduction results depends on how many communication operations the
//! interconnect can sustain concurrently and how far each message travels.
//! The paper derives the 2-D mesh expression
//!
//! ```text
//! growcomm(nc) = 2·(nc − 1)·x·(√nc − 1) / (4·√nc·(√nc − 1)) ≈ √nc / 2
//! ```
//!
//! per reduction element (`x` cancels because the single-thread baseline also
//! moves `x` elements). We implement the exact expression plus the commonly
//! compared alternatives (ring, crossbar, 2-D torus) so the topology choice can
//! be studied as an ablation.

use serde::{Deserialize, Serialize};

/// An on-chip interconnect topology used to exchange partial reduction results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// 2-D mesh with XY routing (the paper's assumption): `2·√nc·(√nc−1)` links,
    /// average hop count `√nc − 1`.
    #[default]
    Mesh2D,
    /// 2-D torus: twice the bisection links of the mesh and roughly half the
    /// average hop count, so its growth is about a quarter of the mesh's.
    Torus2D,
    /// Unidirectional ring: `nc` links, average hop count `nc / 2`.
    Ring,
    /// Ideal crossbar: every pair connected, one hop, `nc` simultaneous
    /// operations. Growth stays proportional to the per-node volume.
    Crossbar,
    /// An idealised network with unbounded bandwidth and single-cycle delivery:
    /// no communication growth at all (lower bound).
    Ideal,
}

impl Topology {
    /// Relative growth of the communication time of the merging phase when the
    /// partial results of `nc` cores are exchanged, normalised to the
    /// single-core communication time for the same reduction elements.
    ///
    /// The derivation mirrors paper Eq. 8: total traffic is `2·(nc−1)·x`
    /// element-messages (gather + broadcast), each travelling the topology's
    /// average hop count, divided by the number of link-operations the topology
    /// can perform per unit time.
    pub fn comm_growth(&self, nc: f64) -> f64 {
        let nc = nc.max(1.0);
        if nc <= 1.0 {
            return 0.0;
        }
        match self {
            Topology::Mesh2D => {
                // Exact Eq. 8: 2·(nc−1)·(√nc−1) / (4·√nc·(√nc−1)) = (nc−1)/(2·√nc).
                (nc - 1.0) / (2.0 * nc.sqrt())
            }
            Topology::Torus2D => {
                // Twice the links (wrap-around), half the average distance.
                (nc - 1.0) / (8.0 * nc.sqrt())
            }
            Topology::Ring => {
                // nc links (bidirectional: 2·nc operations), average nc/4 hops
                // for bidirectional routing; traffic 2·(nc−1).
                2.0 * (nc - 1.0) * (nc / 4.0) / (2.0 * nc)
            }
            Topology::Crossbar => {
                // nc simultaneous single-hop operations for 2·(nc−1) messages.
                2.0 * (nc - 1.0) / nc
            }
            Topology::Ideal => 0.0,
        }
    }

    /// The paper's closed-form approximation `√nc / 2` for the 2-D mesh.
    /// Exposed so the harness can report both the exact and the approximate
    /// curves (they agree to within a few percent at the core counts studied).
    pub fn mesh_approximation(nc: f64) -> f64 {
        nc.max(1.0).sqrt() / 2.0
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Mesh2D => "mesh2d",
            Topology::Torus2D => "torus2d",
            Topology::Ring => "ring",
            Topology::Crossbar => "crossbar",
            Topology::Ideal => "ideal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_has_no_growth() {
        for t in [
            Topology::Mesh2D,
            Topology::Torus2D,
            Topology::Ring,
            Topology::Crossbar,
            Topology::Ideal,
        ] {
            assert_eq!(t.comm_growth(1.0), 0.0, "{t:?}");
        }
    }

    #[test]
    fn mesh_matches_paper_approximation_at_scale() {
        // (nc−1)/(2·√nc) ≈ √nc/2 for large nc; within 10 % at 64 cores.
        for nc in [64.0, 144.0, 256.0] {
            let exact = Topology::Mesh2D.comm_growth(nc);
            let approx = Topology::mesh_approximation(nc);
            assert!((exact - approx).abs() / approx < 0.15, "nc={nc}");
        }
    }

    #[test]
    fn mesh_growth_value_at_32_cores() {
        // Used in the Fig. 7(a) hand-check: (31)/(2·√32) ≈ 2.74.
        let g = Topology::Mesh2D.comm_growth(32.0);
        assert!((g - 2.74).abs() < 0.01, "got {g}");
    }

    #[test]
    fn growth_ordering_between_topologies() {
        // Ring scales worst, then mesh, then torus; the crossbar is bounded and
        // the ideal network has no growth at all. (Crossbar vs. torus flips
        // with core count because the crossbar's growth saturates at 2 while
        // the torus keeps growing as sqrt(nc)/8, so no ordering is asserted
        // between those two.)
        for nc in [16.0, 64.0, 256.0] {
            let ring = Topology::Ring.comm_growth(nc);
            let mesh = Topology::Mesh2D.comm_growth(nc);
            let torus = Topology::Torus2D.comm_growth(nc);
            let xbar = Topology::Crossbar.comm_growth(nc);
            let ideal = Topology::Ideal.comm_growth(nc);
            assert!(ring > mesh, "nc={nc}");
            assert!(mesh > torus, "nc={nc}");
            assert!(torus > ideal, "nc={nc}");
            assert!(xbar > ideal, "nc={nc}");
        }
    }

    #[test]
    fn growth_is_monotone_in_core_count() {
        for t in [Topology::Mesh2D, Topology::Torus2D, Topology::Ring, Topology::Crossbar] {
            let mut prev = -1.0;
            for nc in 1..=256 {
                let g = t.comm_growth(nc as f64);
                assert!(g >= prev - 1e-12, "{t:?} decreased at nc={nc}");
                prev = g;
            }
        }
    }

    #[test]
    fn crossbar_growth_is_bounded() {
        // 2(nc-1)/nc < 2 for all nc.
        for nc in [2.0, 64.0, 1024.0] {
            assert!(Topology::Crossbar.comm_growth(nc) < 2.0);
        }
    }

    #[test]
    fn default_is_mesh() {
        assert_eq!(Topology::default(), Topology::Mesh2D);
    }
}
