//! HOP density-based clustering with an instrumented merging phase.
//!
//! HOP (Eisenstein & Hut) groups particles by density: every particle
//! estimates its local density from its `k` nearest neighbours, "hops" to its
//! densest neighbour, and the chains of hops terminate at local density maxima
//! that define the groups. The MineBench implementation has three parallel
//! kernels (tree construction, density estimation, hopping) followed by a
//! group-merging phase; the paper notes that
//!
//! * the *tree construction* kernel does not scale to 16 cores (which is why
//!   hop's overall speedup saturates around 13.5×), and
//! * the merging phase is dominated by memory accesses and its overhead grows
//!   *super-linearly* with the core count (`fored = 155 %`).
//!
//! This implementation reproduces that structure:
//!
//! 1. **Init** — take the particle positions.
//! 2. **Parallel (limited scaling)** — build the k-d tree; only the top
//!    recursion levels run concurrently, mirroring MineBench's limited
//!    parallelism.
//! 3. **Parallel** — per-particle density estimation via k-nearest-neighbour
//!    queries.
//! 4. **Parallel** — hop each particle to its densest neighbour and chase the
//!    chain to its root (a density peak).
//! 5. **Reduction (merging phase)** — per-thread partial group tables
//!    (root → member count, density mass) are merged into the global group
//!    table; the work grows with the number of threads *and* touches
//!    scattered memory, reproducing the super-linear growth.
//! 6. **Constant serial** — groups smaller than `min_group_size` are dropped
//!    and the surviving groups are relabelled densest-first.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use mp_profile::stream::RecordSink;
use mp_runtime::{Control, PhaseExec, PhaseScheduler, PhasedWorkload};

use crate::data::Dataset;
use crate::kdtree::KdTree;

/// Configuration of a HOP run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopConfig {
    /// Number of nearest neighbours used for the density estimate and the hop
    /// candidate set (MineBench's `nDens`/`nHop` are of this order).
    pub neighbors: usize,
    /// Groups with fewer members than this are discarded (noise suppression).
    pub min_group_size: usize,
    /// How many threads participate in the tree build (MineBench's tree kernel
    /// has limited parallelism; capping this models the same behaviour).
    pub max_tree_build_threads: usize,
}

impl Default for HopConfig {
    fn default() -> Self {
        HopConfig { neighbors: 12, min_group_size: 8, max_tree_build_threads: 4 }
    }
}

/// Result of a HOP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopResult {
    /// Group id of every particle, or `usize::MAX` for particles whose group
    /// was discarded as noise.
    pub group_of: Vec<usize>,
    /// Number of surviving groups.
    pub groups: usize,
    /// Member count of each surviving group, densest group first.
    pub group_sizes: Vec<usize>,
    /// Estimated density of every particle.
    pub densities: Vec<f64>,
}

/// The HOP workload.
#[derive(Debug, Clone)]
pub struct Hop {
    config: HopConfig,
}

impl Hop {
    /// Create a workload with the given configuration.
    pub fn new(config: HopConfig) -> Self {
        assert!(config.neighbors > 0, "neighbors must be positive");
        assert!(config.max_tree_build_threads > 0, "tree build threads must be positive");
        Hop { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HopConfig {
        &self.config
    }

    /// The phased view of this workload over `data`, ready for a
    /// [`PhaseScheduler`].
    pub fn phased<'a>(&'a self, data: &'a Dataset) -> PhasedHop<'a> {
        PhasedHop { workload: self, data }
    }

    /// Run HOP on `data` with `threads` worker threads, streaming every
    /// phase record into `sink`.
    pub fn run(&self, data: &Dataset, threads: usize, sink: &dyn RecordSink) -> HopResult {
        PhaseScheduler::new(threads).run(&self.phased(data), sink).output
    }
}

/// [`Hop`] expressed as a phased workload: four parallel kernels (the
/// tree build with limited scaling), the scattered-memory group-table merge,
/// and the constant serial group filter — a single pass through the body.
pub struct PhasedHop<'a> {
    workload: &'a Hop,
    data: &'a Dataset,
}

/// State carried from the single body pass to finalisation.
#[derive(Default)]
pub struct HopState {
    group_of: Vec<usize>,
    group_sizes: Vec<usize>,
    densities: Vec<f64>,
}

impl PhasedWorkload for PhasedHop<'_> {
    type State = HopState;
    type Output = HopResult;

    fn name(&self) -> &str {
        "hop"
    }

    fn max_iterations(&self) -> usize {
        1
    }

    fn init(&self, _exec: &PhaseExec<'_>) -> HopState {
        HopState::default()
    }

    fn iteration(&self, state: &mut HopState, exec: &PhaseExec<'_>, _iter: usize) -> Control {
        let data = self.data;
        let n = data.len();
        let k = self.workload.config.neighbors.min(n.saturating_sub(1)).max(1);

        // -------- Parallel kernel 1: tree construction (limited scaling). ----
        let tree = exec.parallel_task(
            "build-kdtree",
            self.workload.config.max_tree_build_threads,
            |build_threads| KdTree::build(data.values(), data.dims(), build_threads),
        );

        // -------- Parallel kernel 2: density estimation. ----------------------
        let densities: Vec<f64> = exec
            .parallel("density", n, |_ctx, range| {
                let mut local = Vec::with_capacity(range.len());
                for i in range {
                    let neighbors = tree.knn(data.point(i), k, Some(i));
                    // Cubic-spline-free surrogate: density ∝ k / (volume of the
                    // ball reaching the k-th neighbour). A tiny epsilon keeps
                    // coincident points finite.
                    let r2 = neighbors.last().map(|nb| nb.dist2).unwrap_or(0.0);
                    let volume = (r2.sqrt().powi(data.dims() as i32)).max(1e-12);
                    local.push(k as f64 / volume);
                }
                local
            })
            .into_iter()
            .flatten()
            .collect();

        // -------- Parallel kernel 3: hop to the densest neighbour. -----------
        let hop_to: Vec<usize> = exec
            .parallel("hop", n, |_ctx, range| {
                let mut local = Vec::with_capacity(range.len());
                for i in range {
                    let neighbors = tree.knn(data.point(i), k, Some(i));
                    // Candidate set is the particle itself plus its neighbours;
                    // hop to the candidate with the highest (density, index).
                    let mut best = i;
                    for nb in &neighbors {
                        if (densities[nb.index], nb.index) > (densities[best], best) {
                            best = nb.index;
                        }
                    }
                    local.push(best);
                }
                local
            })
            .into_iter()
            .flatten()
            .collect();

        // Chase hop chains to their roots (density peaks). Still parallel: the
        // chains are read-only.
        let roots: Vec<usize> = exec
            .parallel("chase-roots", n, |_ctx, range| {
                let mut local = Vec::with_capacity(range.len());
                for i in range {
                    let mut cur = i;
                    let mut steps = 0usize;
                    while hop_to[cur] != cur && steps <= n {
                        cur = hop_to[cur];
                        steps += 1;
                    }
                    local.push(cur);
                }
                local
            })
            .into_iter()
            .flatten()
            .collect();

        // -------- Merging phase: combine per-thread group tables. ------------
        // Each thread builds a partial table  root → (member count, density
        // mass) over its chunk; the tables are then merged serially, touching
        // one hash entry per (thread, group) pair — the scattered-memory merge
        // the paper blames for hop's super-linear overhead.
        let partial_tables: Vec<HashMap<usize, (usize, f64)>> =
            exec.parallel("partial-group-tables", n, |_ctx, range| {
                let mut table: HashMap<usize, (usize, f64)> = HashMap::new();
                for i in range {
                    let entry = table.entry(roots[i]).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += densities[i];
                }
                table
            });

        let global_table: HashMap<usize, (usize, f64)> =
            exec.reduce_with("merge-group-tables", || {
                let mut global: HashMap<usize, (usize, f64)> = HashMap::new();
                for table in &partial_tables {
                    for (&root, &(count, mass)) in table {
                        let entry = global.entry(root).or_insert((0, 0.0));
                        entry.0 += count;
                        entry.1 += mass;
                    }
                }
                global
            });

        // -------- Constant serial phase: filter and relabel groups. ----------
        let (group_ids, group_sizes) = exec.serial("filter-groups", || {
            let mut groups: Vec<(usize, usize, f64)> = global_table
                .iter()
                .filter(|(_, &(count, _))| count >= self.workload.config.min_group_size)
                .map(|(&root, &(count, mass))| (root, count, mass))
                .collect();
            // Densest (highest mass) groups first, ties broken by root id for
            // determinism.
            groups.sort_by(|a, b| {
                b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            let ids: HashMap<usize, usize> =
                groups.iter().enumerate().map(|(gid, &(root, _, _))| (root, gid)).collect();
            let sizes: Vec<usize> = groups.iter().map(|&(_, count, _)| count).collect();
            (ids, sizes)
        });

        state.group_of =
            roots.iter().map(|root| group_ids.get(root).copied().unwrap_or(usize::MAX)).collect();
        state.group_sizes = group_sizes;
        state.densities = densities;
        Control::Break
    }

    fn finalize(&self, state: HopState, _exec: &PhaseExec<'_>) -> HopResult {
        HopResult {
            group_of: state.group_of,
            groups: state.group_sizes.len(),
            group_sizes: state.group_sizes,
            densities: state.densities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DatasetSpec;
    use mp_profile::{NullSink, Profiler};

    fn blobs() -> Dataset {
        // Three well-separated blobs in 3-D.
        DatasetSpec::new(900, 3, 3, 17).generate()
    }

    #[test]
    fn hop_finds_roughly_the_generating_blobs() {
        let data = blobs();
        // The number of density peaks scales with points-per-neighbourhood
        // (n / k): hopping only reaches the k nearest neighbours, so a 300-
        // point blob fragments under the 12-neighbour default. 24 neighbours
        // smooth the density estimate enough that each blob keeps a handful
        // of peaks at most, independent of the data seed.
        let hop = Hop::new(HopConfig { neighbors: 24, ..HopConfig::default() });
        let r = hop.run(&data, 4, &NullSink);
        assert!(r.groups >= 2, "expected at least two groups, got {}", r.groups);
        assert!(r.groups <= 12, "expected few groups, got {}", r.groups);
        assert_eq!(r.group_of.len(), data.len());
        assert_eq!(r.densities.len(), data.len());
        // The surviving groups should cover most of the points.
        let covered = r.group_of.iter().filter(|&&g| g != usize::MAX).count();
        assert!(covered as f64 / data.len() as f64 > 0.8);
    }

    #[test]
    fn group_sizes_are_sorted_and_match_assignments() {
        let data = blobs();
        let r = Hop::new(HopConfig::default()).run(&data, 3, &NullSink);
        assert_eq!(r.group_sizes.len(), r.groups);
        // Sizes recomputed from assignments must match the reported sizes.
        let mut counts = vec![0usize; r.groups];
        for &g in &r.group_of {
            if g != usize::MAX {
                counts[g] += 1;
            }
        }
        assert_eq!(counts, r.group_sizes);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let data = blobs();
        let hop = Hop::new(HopConfig::default());
        let r1 = hop.run(&data, 1, &NullSink);
        for threads in [2usize, 4, 8] {
            let rt = hop.run(&data, threads, &NullSink);
            assert_eq!(r1.groups, rt.groups, "threads={threads}");
            assert_eq!(r1.group_of, rt.group_of, "threads={threads}");
        }
    }

    #[test]
    fn densities_are_positive_and_peak_inside_blobs() {
        let data = blobs();
        let r = Hop::new(HopConfig::default()).run(&data, 2, &NullSink);
        assert!(r.densities.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn min_group_size_filters_noise() {
        let data = blobs();
        let permissive = Hop::new(HopConfig { min_group_size: 1, ..Default::default() })
            .run(&data, 2, &NullSink);
        let strict = Hop::new(HopConfig { min_group_size: 50, ..Default::default() })
            .run(&data, 2, &NullSink);
        assert!(strict.groups <= permissive.groups);
    }

    #[test]
    fn profiler_records_merging_phase() {
        let data = blobs();
        let profiler = Profiler::new("hop", 4);
        Hop::new(HopConfig::default()).run(&data, 4, &profiler);
        let profile = profiler.finish();
        let run = profile.to_measured_run();
        assert!(run.parallel_seconds > 0.0);
        assert!(run.reduction_seconds > 0.0);
        assert!(run.serial_constant_seconds > 0.0);
        assert!(run.parallel_seconds / run.total_seconds() > 0.5);
    }

    #[test]
    fn hop_chains_terminate() {
        // Even on degenerate data (all points identical) the run terminates and
        // produces one group covering everything.
        let spec = DatasetSpec::new(64, 2, 1, 5);
        let data = spec.generate();
        let r = Hop::new(HopConfig { min_group_size: 1, ..Default::default() })
            .run(&data, 4, &NullSink);
        assert!(r.groups >= 1);
    }

    #[test]
    #[should_panic]
    fn zero_neighbors_rejected() {
        Hop::new(HopConfig { neighbors: 0, ..Default::default() });
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let data = blobs();
        Hop::new(HopConfig::default()).run(&data, 0, &NullSink);
    }
}
