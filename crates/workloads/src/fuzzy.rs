//! Parallel fuzzy c-means clustering with an instrumented merging phase.
//!
//! Fuzzy c-means generalises k-means by assigning every point a *membership
//! degree* in every cluster instead of a hard label. The MineBench
//! implementation has the same phase structure as kmeans — a parallel
//! membership/accumulation phase followed by a merging phase over `C·D`
//! accumulator elements — which is why the paper reports an even larger
//! reduction fraction for it (`fred = 65 %` of the serial time, Table II): the
//! per-point work is heavier but the merge is identical, and the serial
//! sections are tiny.
//!
//! Phases per iteration:
//! 1. **Parallel** — each thread computes memberships of its points to all
//!    centres (fuzzifier `m = 2`) and accumulates partial weighted sums and
//!    weights.
//! 2. **Reduction** — per-thread partials are merged with the configured
//!    strategy.
//! 3. **Constant serial** — new centres are computed and the centre movement
//!    is compared against the convergence threshold.

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::exec::PhaseExec;
use mp_model::phase::RunProfile;
use mp_par::reduce::ReductionStrategy;

/// Configuration of a fuzzy c-means run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzyConfig {
    /// Number of clusters.
    pub clusters: usize,
    /// Fuzzifier exponent `m` (> 1). MineBench uses 2.0.
    pub fuzziness: f64,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Convergence threshold on the maximum centre movement between
    /// iterations.
    pub epsilon: f64,
    /// How the per-thread partial results are merged.
    pub reduction: ReductionStrategy,
}

impl Default for FuzzyConfig {
    fn default() -> Self {
        FuzzyConfig {
            clusters: 8,
            fuzziness: 2.0,
            max_iters: 50,
            epsilon: 1e-3,
            reduction: ReductionStrategy::SerialLinear,
        }
    }
}

impl FuzzyConfig {
    /// Configuration matching the data set's generating cluster count.
    pub fn for_dataset(ds: &Dataset) -> Self {
        FuzzyConfig { clusters: ds.clusters(), ..Default::default() }
    }
}

/// Result of a fuzzy c-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzyResult {
    /// Final cluster centres, row-major `clusters × dims`.
    pub centers: Vec<f64>,
    /// Hard assignment of every point (cluster of maximum membership).
    pub assignments: Vec<usize>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Final maximum centre movement (convergence measure).
    pub final_delta: f64,
}

/// The fuzzy c-means workload.
#[derive(Debug, Clone)]
pub struct FuzzyCMeans {
    config: FuzzyConfig,
}

impl FuzzyCMeans {
    /// Create a workload with the given configuration.
    pub fn new(config: FuzzyConfig) -> Self {
        assert!(config.clusters > 0, "clusters must be positive");
        assert!(config.fuzziness > 1.0, "fuzziness must exceed 1");
        assert!(config.max_iters > 0, "max_iters must be positive");
        FuzzyCMeans { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FuzzyConfig {
        &self.config
    }

    /// Run fuzzy c-means on `data` with `threads` worker threads; returns
    /// the result and the run's phase records.
    pub fn run(&self, data: &Dataset, threads: usize) -> (FuzzyResult, RunProfile) {
        let mut exec = PhaseExec::new("fuzzy", threads);
        let n = data.len();
        let d = data.dims();
        let k = self.config.clusters.min(n);
        let m = self.config.fuzziness;
        // Membership exponent for distance ratios: 2 / (m - 1).
        let ratio_exp = 2.0 / (m - 1.0);
        // Flat partial layout: [weighted sums (k·d) | weights (k)].
        let partial_len = k * d + k;

        // Spread initial centres over the first points.
        let mut centers = exec.init("init-centers", || {
            let stride = (n / k).max(1);
            let mut c = Vec::with_capacity(k * d);
            for i in 0..k {
                c.extend_from_slice(data.point((i * stride).min(n - 1)));
            }
            c
        });
        let mut iterations = 0usize;
        let mut final_delta = f64::MAX;

        for _ in 0..self.config.max_iters {
            // -------- Parallel phase: memberships + partial accumulation. ----
            let partials = exec.parallel("memberships", n, |_ctx, range| {
                let mut partial = vec![0.0f64; partial_len];
                let (sums, weights) = partial.split_at_mut(k * d);
                let mut dist2 = vec![0.0f64; k];
                for i in range {
                    let point = data.point(i);
                    let mut zero_cluster = None;
                    for (c, dc) in dist2.iter_mut().enumerate() {
                        let center = &centers[c * d..(c + 1) * d];
                        *dc = point.iter().zip(center.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                        if *dc == 0.0 {
                            zero_cluster = Some(c);
                        }
                    }
                    for c in 0..k {
                        // Membership of point i in cluster c under the
                        // standard FCM update; points coinciding with a
                        // centre get full membership there.
                        let u = match zero_cluster {
                            Some(z) => {
                                if c == z {
                                    1.0
                                } else {
                                    0.0
                                }
                            }
                            None => {
                                let mut denom = 0.0;
                                for &other in dist2.iter() {
                                    denom += (dist2[c] / other).powf(ratio_exp / 2.0);
                                }
                                1.0 / denom
                            }
                        };
                        let w = u.powf(m);
                        weights[c] += w;
                        for (s, p) in sums[c * d..(c + 1) * d].iter_mut().zip(point.iter()) {
                            *s += w * p;
                        }
                    }
                }
                partial
            });

            // -------- Merging phase. -----------------------------------------
            let merged = exec.reduce("merge-partials", &partials, self.config.reduction);

            // -------- Constant serial phase: new centres + convergence. ------
            final_delta = exec.serial("recompute-centers", || {
                let mut max_delta: f64 = 0.0;
                for c in 0..k {
                    let w = merged[k * d + c];
                    if w > 0.0 {
                        for dd in 0..d {
                            let v = merged[c * d + dd] / w;
                            max_delta = max_delta.max((v - centers[c * d + dd]).abs());
                            centers[c * d + dd] = v;
                        }
                    }
                }
                max_delta
            });
            iterations += 1;
            if final_delta <= self.config.epsilon {
                break;
            }
        }

        // Hard assignments from the final centres (one extra parallel pass).
        let chunks = exec.parallel("final-assignments", n, |_ctx, range| {
            let mut local = Vec::with_capacity(range.len());
            for i in range {
                let point = data.point(i);
                let mut best = 0usize;
                let mut best_d = f64::MAX;
                for c in 0..k {
                    let center = &centers[c * d..(c + 1) * d];
                    let dist: f64 =
                        point.iter().zip(center.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                local.push(best);
            }
            local
        });

        let result = FuzzyResult {
            centers,
            assignments: chunks.into_iter().flatten().collect(),
            iterations,
            final_delta,
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
    fn fuzzy_converges_on_separable_data() {
        let data = tiny_data();
        let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
        let (r, _) = fcm.run(&data, 4);
        assert!(r.iterations <= 50);
        assert!(r.final_delta <= 1e-3 || r.iterations == 50);
        assert_eq!(r.centers.len(), 12);
        assert_eq!(r.assignments.len(), 600);
    }

    #[test]
    fn centers_are_close_to_generating_centers() {
        let data = DatasetSpec::new(2400, 3, 4, 13).generate();
        let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
        let (r, _) = fcm.run(&data, 4);
        for c in 0..4 {
            let truth = &data.true_centers()[c * 3..(c + 1) * 3];
            let min_d2 = (0..4)
                .map(|f| {
                    r.centers[f * 3..(f + 1) * 3]
                        .iter()
                        .zip(truth.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .fold(f64::MAX, f64::min);
            assert!(min_d2 < 2.5, "generating centre {c} unmatched (d2={min_d2})");
        }
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let data = tiny_data();
        let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
        let (r1, _) = fcm.run(&data, 1);
        for threads in [2usize, 5, 8] {
            let (rt, _) = fcm.run(&data, threads);
            assert_eq!(r1.iterations, rt.iterations, "threads={threads}");
            for (a, b) in r1.centers.iter().zip(rt.centers.iter()) {
                assert!((a - b).abs() < 1e-6, "threads={threads}");
            }
        }
    }

    #[test]
    fn result_is_independent_of_reduction_strategy() {
        let data = tiny_data();
        let mut config = FuzzyConfig::for_dataset(&data);
        let (baseline, _) = FuzzyCMeans::new(config).run(&data, 4);
        for strategy in ReductionStrategy::all() {
            config.reduction = strategy;
            let (r, _) = FuzzyCMeans::new(config).run(&data, 4);
            for (a, b) in baseline.centers.iter().zip(r.centers.iter()) {
                assert!((a - b).abs() < 1e-6, "{strategy:?}");
            }
        }
    }

    #[test]
    fn profiler_records_reduction_and_parallel_phases() {
        let data = tiny_data();
        let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
        let (_, profile) = fcm.run(&data, 4);
        let run = profile.to_measured_run();
        assert!(run.parallel_seconds > 0.0);
        assert!(run.reduction_seconds > 0.0);
        assert!(run.serial_constant_seconds > 0.0);
        // Fuzzy's per-point work is heavier than kmeans', so the parallel
        // fraction should be very high.
        assert!(run.parallel_seconds / run.total_seconds() > 0.8);
    }

    #[test]
    fn fuzzy_and_kmeans_agree_on_well_separated_data() {
        // With well-separated Gaussians the hard assignments from fuzzy c-means
        // should mostly agree with the ground-truth labels.
        let data = DatasetSpec::new(1500, 3, 3, 21).generate();
        let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
        let (r, _) = fcm.run(&data, 4);
        // Build the best cluster → label mapping by majority vote.
        let mut agree = 0usize;
        for c in 0..3 {
            let mut counts = [0usize; 3];
            for i in 0..data.len() {
                if r.assignments[i] == c {
                    counts[data.labels()[i]] += 1;
                }
            }
            agree += counts.iter().copied().max().unwrap_or(0);
        }
        assert!(agree as f64 / data.len() as f64 > 0.9);
    }

    #[test]
    #[should_panic]
    fn fuzziness_must_exceed_one() {
        FuzzyCMeans::new(FuzzyConfig { fuzziness: 1.0, ..Default::default() });
    }

    #[test]
    fn an_unreachable_epsilon_stops_at_exactly_max_iters() {
        let data = tiny_data();
        let config = FuzzyConfig { epsilon: -1.0, max_iters: 4, ..FuzzyConfig::for_dataset(&data) };
        let (result, profile) = FuzzyCMeans::new(config).run(&data, 2);
        assert_eq!(result.iterations, 4);
        let merges = profile.records.iter().filter(|r| r.kind == PhaseKind::Reduction).count();
        assert_eq!(merges, 4);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let data = tiny_data();
        FuzzyCMeans::new(FuzzyConfig::default()).run(&data, 0);
    }
}
