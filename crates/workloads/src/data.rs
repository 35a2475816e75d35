//! Synthetic data-set generation.
//!
//! MineBench ships fixed input files; their essential properties for the
//! merging-phase study are only the *shape* of the data set — the number of
//! points `N`, dimensions `D` and natural clusters `C` — because the merging
//! phase operates on `C·D` accumulator elements regardless of the actual
//! coordinates. This module generates Gaussian-mixture data sets with exactly
//! those shapes (including the scaled variants of Table IV), deterministically
//! from a seed so every experiment is reproducible.

use mp_model::params::DatasetVariant;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Generator seed of the kmeans and fuzzy data sets.
const CLUSTER_SEED: u64 = 0x5EED;

/// Generator seed of the hop particle sets.
const HOP_SEED: u64 = 0x401;

/// Number of blobs hop's particles are drawn around (Table IV gives hop no
/// `C`).
pub const HOP_BLOBS: usize = 16;

/// Shape and seed of a synthetic data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Number of points `N`.
    pub points: usize,
    /// Number of dimensions `D`.
    pub dims: usize,
    /// Number of generating clusters `C` (also the ground-truth cluster count).
    pub clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Create a spec.
    pub fn new(points: usize, dims: usize, clusters: usize, seed: u64) -> Self {
        DatasetSpec { points, dims, clusters, seed }
    }

    /// The data set of a Table IV row: its `N`, `D` and `C` (for hop,
    /// [`HOP_BLOBS`] blobs), generated from the application's seed.
    pub fn from_variant(row: &DatasetVariant) -> Self {
        match row.application.as_str() {
            "hop" => DatasetSpec::new(row.points, row.dims, HOP_BLOBS, HOP_SEED),
            _ => DatasetSpec::new(row.points, row.dims, row.centers, CLUSTER_SEED),
        }
    }

    /// A small shape for unit tests and doc examples.
    pub fn tiny() -> Self {
        DatasetSpec::new(600, 4, 3, 7)
    }

    /// Generate the data set described by this spec.
    pub fn generate(&self) -> Dataset {
        Dataset::generate(*self)
    }
}

/// A dense, row-major data set of `points × dims` coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    spec: DatasetSpec,
    /// Row-major coordinates, `points * dims` values.
    values: Vec<f64>,
    /// Ground-truth generating cluster of every point.
    labels: Vec<usize>,
    /// Generating cluster centres, row-major `clusters * dims`.
    true_centers: Vec<f64>,
}

impl Dataset {
    /// Generate a Gaussian-mixture data set: `spec.clusters` centres are placed
    /// on a coarse grid in `[0, 10)^D` and each point is drawn from an
    /// isotropic Gaussian (σ = 0.5) around a uniformly chosen centre.
    pub fn generate(spec: DatasetSpec) -> Self {
        assert!(spec.points > 0, "dataset needs at least one point");
        assert!(spec.dims > 0, "dataset needs at least one dimension");
        assert!(spec.clusters > 0, "dataset needs at least one cluster");
        assert!(spec.clusters <= spec.points, "cannot have more clusters than points");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let spread = 10.0;
        let sigma = 0.5;

        let mut true_centers: Vec<f64> = Vec::with_capacity(spec.clusters * spec.dims);
        // Rejection-sample the centres so every pair is at least ~6σ apart,
        // keeping the generated mixture well separated regardless of the seed
        // (the clustering tests rely on separability). A retry cap keeps the
        // loop total even for crowded configurations, where late centres may
        // end up closer together.
        let min_separation = 6.0 * sigma;
        for c in 0..spec.clusters {
            let mut candidate = vec![0.0; spec.dims];
            for attempt in 0..100 {
                for slot in candidate.iter_mut() {
                    *slot = rng.gen_range(0.0..spread);
                }
                let well_separated = (0..c).all(|other| {
                    let dist2: f64 = (0..spec.dims)
                        .map(|d| {
                            let delta = candidate[d] - true_centers[other * spec.dims + d];
                            delta * delta
                        })
                        .sum();
                    dist2 >= min_separation * min_separation
                });
                if well_separated || attempt == 99 {
                    break;
                }
            }
            true_centers.extend_from_slice(&candidate);
        }

        let normal = rand::distributions::Uniform::new(-1.0f64, 1.0);
        let mut values = Vec::with_capacity(spec.points * spec.dims);
        let mut labels = Vec::with_capacity(spec.points);
        for i in 0..spec.points {
            // Round-robin cluster assignment: blob sizes are exactly balanced
            // and any prefix of `clusters` points covers every blob, so
            // first-k-points seeding (the MineBench kmeans behaviour) starts
            // from one point per generating cluster for every seed.
            let c = i % spec.clusters;
            labels.push(c);
            for d in 0..spec.dims {
                // Sum of three uniforms approximates a Gaussian well enough for
                // clustering inputs and avoids a dependency on rand_distr.
                let noise: f64 = (0..3).map(|_| normal.sample(&mut rng)).sum::<f64>() / 3.0;
                values.push(true_centers[c * spec.dims + d] + noise * sigma * 3.0_f64.sqrt());
            }
        }
        Dataset { spec, values, labels, true_centers }
    }

    /// The spec this data set was generated from.
    pub fn spec(&self) -> DatasetSpec {
        self.spec
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.spec.points
    }

    /// Whether the data set is empty (never true for generated sets).
    pub fn is_empty(&self) -> bool {
        self.spec.points == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.spec.dims
    }

    /// Number of generating clusters.
    pub fn clusters(&self) -> usize {
        self.spec.clusters
    }

    /// The coordinates of point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        let d = self.spec.dims;
        &self.values[i * d..(i + 1) * d]
    }

    /// All coordinates, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Ground-truth generating labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Generating centres, row-major (`clusters * dims`).
    pub fn true_centers(&self) -> &[f64] {
        &self.true_centers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::tiny().generate();
        let b = DatasetSpec::tiny().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::new(100, 3, 2, 1).generate();
        let b = DatasetSpec::new(100, 3, 2, 2).generate();
        assert_ne!(a.values(), b.values());
    }

    #[test]
    fn shapes_match_spec() {
        let spec = DatasetSpec::new(123, 7, 5, 99);
        let ds = spec.generate();
        assert_eq!(ds.len(), 123);
        assert_eq!(ds.dims(), 7);
        assert_eq!(ds.clusters(), 5);
        assert_eq!(ds.values().len(), 123 * 7);
        assert_eq!(ds.labels().len(), 123);
        assert_eq!(ds.true_centers().len(), 5 * 7);
        assert_eq!(ds.point(10).len(), 7);
    }

    #[test]
    fn points_cluster_near_their_generating_centre() {
        let ds = DatasetSpec::new(2000, 4, 4, 42).generate();
        // Each point should be closer to its own generating centre than to the
        // average distance to all centres, in the large majority of cases.
        let mut closer = 0usize;
        for i in 0..ds.len() {
            let own = ds.labels()[i];
            let own_d = distance2_to(&ds, i, &ds.true_centers()[own * 4..(own + 1) * 4]);
            let min_other = (0..ds.clusters())
                .filter(|&c| c != own)
                .map(|c| distance2_to(&ds, i, &ds.true_centers()[c * 4..(c + 1) * 4]))
                .fold(f64::MAX, f64::min);
            if own_d < min_other {
                closer += 1;
            }
        }
        assert!(closer as f64 / ds.len() as f64 > 0.9, "only {closer} points near their centre");
    }

    #[test]
    fn distance_is_zero_to_itself() {
        let ds = DatasetSpec::tiny().generate();
        for i in [0usize, 5, 100] {
            assert_eq!(distance2_to(&ds, i, ds.point(i)), 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_points_rejected() {
        DatasetSpec::new(0, 3, 1, 0).generate();
    }

    #[test]
    #[should_panic]
    fn more_clusters_than_points_rejected() {
        DatasetSpec::new(3, 2, 5, 0).generate();
    }

    /// Squared Euclidean distance between point `i` of `ds` and `coords`.
    fn distance2_to(ds: &Dataset, i: usize, coords: &[f64]) -> f64 {
        ds.point(i).iter().zip(coords).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}
