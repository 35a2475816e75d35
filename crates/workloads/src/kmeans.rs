//! Parallel k-means clustering with an explicit, instrumented merging phase.
//!
//! The phase structure mirrors MineBench's kmeans (and paper Algorithm 1):
//!
//! 1. **Init** — choose the initial centres (the first `C` points, as the
//!    MineBench code does), allocate accumulators.
//! 2. **Parallel phase** — every thread assigns its chunk of points to the
//!    nearest centre and accumulates *partial* per-cluster sums and counts.
//! 3. **Merging phase (reduction)** — the per-thread partial sums/counts are
//!    combined with the configured [`ReductionStrategy`]; this is the phase
//!    whose cost grows with the thread count.
//! 4. **Constant serial phase** — new centres are computed from the merged
//!    accumulators and convergence is checked; this work depends only on
//!    `C·D`, not on the thread count.
//!
//! Steps 2–4 repeat until the assignment change rate drops below the threshold
//! or the iteration limit is reached.

use serde::{Deserialize, Serialize};

use mp_model::phase::RunProfile;
use mp_par::pool::chunk_range;
use mp_par::reduce::ReductionStrategy;

use crate::data::Dataset;
use crate::exec::PhaseExec;

/// Configuration of a k-means run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters to fit (MineBench uses the data set's natural count).
    pub clusters: usize,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Convergence threshold: the fraction of points allowed to change cluster
    /// in the final iteration (MineBench default 0.001).
    pub threshold: f64,
    /// How the per-thread partial results are merged.
    pub reduction: ReductionStrategy,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            clusters: 8,
            max_iters: 50,
            threshold: 1e-3,
            reduction: ReductionStrategy::SerialLinear,
        }
    }
}

impl KMeansConfig {
    /// Configuration matching the data set's generating cluster count.
    pub fn for_dataset(ds: &Dataset) -> Self {
        KMeansConfig { clusters: ds.clusters(), ..Default::default() }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Final cluster centres, row-major `clusters × dims`.
    pub centers: Vec<f64>,
    /// Final cluster assignment of every point.
    pub assignments: Vec<usize>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Sum of squared distances of every point to its assigned centre.
    pub sse: f64,
}

/// The k-means workload.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

/// Find the nearest centre to `point` among `centers` (row-major, `k × d`).
/// Returns `(index, squared distance)`.
#[inline]
fn nearest_center(point: &[f64], centers: &[f64], k: usize, d: usize) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::MAX;
    for c in 0..k {
        let center = &centers[c * d..(c + 1) * d];
        let mut dist = 0.0;
        for (a, b) in point.iter().zip(center.iter()) {
            let diff = a - b;
            dist += diff * diff;
        }
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    (best, best_d)
}

impl KMeans {
    /// Create a workload with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        assert!(config.clusters > 0, "clusters must be positive");
        assert!(config.max_iters > 0, "max_iters must be positive");
        KMeans { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Run k-means on `data` with `threads` worker threads; returns the
    /// result and the run's phase records.
    pub fn run(&self, data: &Dataset, threads: usize) -> (KMeansResult, RunProfile) {
        let mut exec = PhaseExec::new("kmeans", threads);
        let n = data.len();
        let d = data.dims();
        let k = self.config.clusters.min(n);
        // Flat partial layout: [sums (k·d) | counts (k) | changed | sse].
        let partial_len = k * d + k + 2;

        // First-k-points seeding (MineBench behaviour).
        let mut centers = exec.init("init-centers", || {
            let mut c = Vec::with_capacity(k * d);
            for i in 0..k {
                c.extend_from_slice(data.point(i));
            }
            c
        });

        // Per-thread (chunked) assignment state: chunk boundaries are the
        // deterministic static chunks of the executor's fork-join, so each
        // thread compares against and replaces only its own slice across
        // iterations.
        let mut chunk_assignments: Vec<Vec<usize>> =
            (0..threads).map(|tid| vec![usize::MAX; chunk_range(tid, threads, n).len()]).collect();
        let mut iterations = 0usize;
        let mut sse = 0.0;

        for _ in 0..self.config.max_iters {
            // -------- Parallel phase: assignment + partial accumulation. -----
            let outputs = exec.parallel("assign-and-accumulate", n, |ctx, range| {
                let previous = &chunk_assignments[ctx.tid];
                let mut partial = vec![0.0f64; partial_len];
                let mut local_assign = Vec::with_capacity(range.len());
                {
                    let (sums, rest) = partial.split_at_mut(k * d);
                    let (counts, tail) = rest.split_at_mut(k);
                    for (local_idx, i) in range.enumerate() {
                        let point = data.point(i);
                        let (best, best_d) = nearest_center(point, &centers, k, d);
                        if previous[local_idx] != best {
                            tail[0] += 1.0;
                        }
                        tail[1] += best_d;
                        counts[best] += 1.0;
                        for (s, p) in sums[best * d..(best + 1) * d].iter_mut().zip(point.iter()) {
                            *s += *p;
                        }
                        local_assign.push(best);
                    }
                }
                (partial, local_assign)
            });
            let (partials, new_chunks): (Vec<Vec<f64>>, _) = outputs.into_iter().unzip();
            chunk_assignments = new_chunks;

            // -------- Merging phase: reduce the per-thread partials. ---------
            let merged = exec.reduce("merge-partials", &partials, self.config.reduction);

            // -------- Constant serial phase: recompute centres, convergence. -
            let changed_fraction = exec.serial("recompute-centers", || {
                for c in 0..k {
                    let count = merged[k * d + c];
                    if count > 0.0 {
                        for dd in 0..d {
                            centers[c * d + dd] = merged[c * d + dd] / count;
                        }
                    }
                }
                sse = merged[k * d + k + 1];
                merged[k * d + k] / n as f64
            });
            iterations += 1;

            if changed_fraction <= self.config.threshold {
                break;
            }
        }

        let result = KMeansResult {
            centers,
            assignments: chunk_assignments.into_iter().flatten().collect(),
            iterations,
            sse,
        };
        (result, exec.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DatasetSpec;
    use mp_model::phase::PhaseKind;

    fn tiny_data() -> Dataset {
        DatasetSpec::new(600, 4, 3, 7).generate()
    }

    #[test]
    fn kmeans_converges_on_separable_data() {
        let data = tiny_data();
        let km = KMeans::new(KMeansConfig::for_dataset(&data));
        let (result, _) = km.run(&data, 4);
        assert!(result.iterations <= 50);
        assert_eq!(result.centers.len(), 3 * 4);
        assert_eq!(result.assignments.len(), 600);
        // SSE per point should be bounded for well-separated Gaussians (σ≈0.5);
        // first-k-points seeding can land in a poor local optimum, so this is a
        // sanity bound rather than a tight one.
        assert!(result.sse / 600.0 < 10.0, "sse/point = {}", result.sse / 600.0);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let data = tiny_data();
        let km = KMeans::new(KMeansConfig::for_dataset(&data));
        let (r1, _) = km.run(&data, 1);
        for threads in [2usize, 3, 8] {
            let (rt, _) = km.run(&data, threads);
            assert_eq!(r1.iterations, rt.iterations, "threads={threads}");
            for (a, b) in r1.centers.iter().zip(rt.centers.iter()) {
                assert!((a - b).abs() < 1e-6, "threads={threads}");
            }
            assert_eq!(r1.assignments, rt.assignments, "threads={threads}");
        }
    }

    #[test]
    fn result_is_independent_of_reduction_strategy() {
        let data = tiny_data();
        let mut config = KMeansConfig::for_dataset(&data);
        let (baseline, _) = KMeans::new(config).run(&data, 4);
        for strategy in ReductionStrategy::all() {
            config.reduction = strategy;
            let (r, _) = KMeans::new(config).run(&data, 4);
            for (a, b) in baseline.centers.iter().zip(r.centers.iter()) {
                assert!((a - b).abs() < 1e-6, "{strategy:?}");
            }
        }
    }

    #[test]
    fn recovered_centers_match_generating_centers() {
        let data = DatasetSpec::new(3000, 3, 4, 11).generate();
        let km = KMeans::new(KMeansConfig::for_dataset(&data));
        let (result, _) = km.run(&data, 4);
        // Every generating centre should have a fitted centre within ~3σ.
        for c in 0..4 {
            let truth = &data.true_centers()[c * 3..(c + 1) * 3];
            let min_d2 = (0..4)
                .map(|f| {
                    result.centers[f * 3..(f + 1) * 3]
                        .iter()
                        .zip(truth.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .fold(f64::MAX, f64::min);
            assert!(min_d2 < 2.25, "generating centre {c} unmatched (d2={min_d2})");
        }
    }

    #[test]
    fn profiler_records_all_phase_kinds() {
        let data = tiny_data();
        let km = KMeans::new(KMeansConfig::for_dataset(&data));
        let (_, profile) = km.run(&data, 4);
        assert_eq!(profile.records[0].kind, PhaseKind::Init);
        let run = profile.to_measured_run();
        assert!(run.parallel_seconds > 0.0);
        assert!(run.reduction_seconds > 0.0);
        assert!(run.serial_constant_seconds > 0.0);
        assert!(run.parallel_seconds / run.total_seconds() > 0.5);
    }

    #[test]
    fn single_cluster_degenerates_to_mean() {
        let data = tiny_data();
        let km = KMeans::new(KMeansConfig { clusters: 1, ..KMeansConfig::default() });
        let (result, _) = km.run(&data, 2);
        let d = data.dims();
        let mut mean = vec![0.0; d];
        for i in 0..data.len() {
            for (m, v) in mean.iter_mut().zip(data.point(i).iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= data.len() as f64;
        }
        for (a, b) in result.centers.iter().zip(mean.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(result.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn more_threads_than_points_is_handled() {
        let data = DatasetSpec::new(10, 2, 2, 3).generate();
        let km = KMeans::new(KMeansConfig { clusters: 2, ..Default::default() });
        let (result, _) = km.run(&data, 16);
        assert_eq!(result.assignments.len(), 10);
    }

    #[test]
    fn sse_decreases_or_holds_between_first_and_last_iteration() {
        // Run with max_iters = 1 and max_iters = default; final SSE must not be
        // larger after more iterations (k-means monotonically improves SSE).
        let data = tiny_data();
        let one = KMeans::new(KMeansConfig { max_iters: 1, clusters: 3, ..Default::default() })
            .run(&data, 4)
            .0;
        let full = KMeans::new(KMeansConfig { clusters: 3, ..Default::default() }).run(&data, 4).0;
        assert!(full.sse <= one.sse + 1e-9);
    }

    #[test]
    fn an_unreachable_threshold_stops_at_exactly_max_iters() {
        let data = tiny_data();
        let config =
            KMeansConfig { threshold: -1.0, max_iters: 7, ..KMeansConfig::for_dataset(&data) };
        let (result, profile) = KMeans::new(config).run(&data, 2);
        assert_eq!(result.iterations, 7);
        let merges = profile.records.iter().filter(|r| r.kind == PhaseKind::Reduction).count();
        assert_eq!(merges, 7);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let data = tiny_data();
        KMeans::new(KMeansConfig::default()).run(&data, 0);
    }

    #[test]
    #[should_panic]
    fn zero_clusters_rejected() {
        KMeans::new(KMeansConfig { clusters: 0, ..Default::default() });
    }
}
