//! A k-d tree for nearest-neighbour queries, plus the kd-tree workload.
//!
//! HOP's density estimation needs the `k` nearest neighbours of every
//! particle. MineBench's implementation builds a balanced k-d tree once and
//! queries it from all threads; the *tree construction* kernel is the part of
//! hop that the paper notes does not scale to 16 cores. This implementation
//! follows the same structure: a median-split balanced tree over point indices
//! with an optionally parallel build (sub-trees built by separate threads) and
//! read-only concurrent kNN queries.
//!
//! [`KdTreeWorkload`] exposes the tree as a standalone phased scenario — the
//! limited-scaling build, a fully-parallel all-points kNN pass producing
//! per-thread distance histograms, a merging phase over the histograms and a
//! constant serial summary — so the tree kernel can be characterised and
//! calibrated on its own, isolated from the rest of HOP.

use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use mp_par::reduce::ReductionStrategy;
use mp_profile::stream::RecordSink;
use mp_runtime::{Control, PhaseExec, PhaseScheduler, PhasedWorkload};

use crate::data::Dataset;

/// A balanced k-d tree over a borrowed point set.
#[derive(Debug)]
pub struct KdTree<'a> {
    /// Row-major coordinates of the indexed points.
    points: &'a [f64],
    dims: usize,
    nodes: Vec<Node>,
    root: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index of the point stored at this node.
    point: usize,
    /// Splitting dimension.
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// One neighbour returned by a kNN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbouring point.
    pub index: usize,
    /// Squared Euclidean distance to the query point.
    pub dist2: f64,
}

/// Max-heap ordering by distance so the heap root is the current worst
/// candidate.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist2: f64,
    index: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist2
            .partial_cmp(&other.dist2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.index.cmp(&other.index))
    }
}

impl<'a> KdTree<'a> {
    /// Build a tree over `points` (row-major, `len × dims`).
    ///
    /// `build_threads` controls how many threads participate in the build: the
    /// top `log2(build_threads)` levels of recursion spawn their right subtree
    /// on a separate scoped thread, matching the limited parallelism of the
    /// MineBench kernel.
    pub fn build(points: &'a [f64], dims: usize, build_threads: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(points.len() % dims, 0, "points length must be a multiple of dims");
        let n = points.len() / dims;
        let mut indices: Vec<usize> = (0..n).collect();
        // Pre-allocate the node arena; each recursion level fills a disjoint
        // sub-range so the parallel build can hand out non-overlapping slices.
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        let root = if n == 0 {
            None
        } else {
            nodes.resize(n, Node { point: 0, axis: 0, left: None, right: None });
            let mut builder = Builder { points, dims };
            Some(builder.build_range(&mut nodes, 0, &mut indices, 0, build_threads.max(1)))
        };
        KdTree { points, dims, nodes, root }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `k` nearest neighbours of `query` (a `dims`-long slice), sorted by
    /// increasing distance. If `exclude` is `Some(i)`, point `i` is skipped —
    /// used to exclude the query point itself when it is part of the set.
    pub fn knn(&self, query: &[f64], k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        if k == 0 || self.root.is_none() {
            return Vec::new();
        }
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        self.search(self.root, query, k, exclude, &mut heap);
        let mut out: Vec<Neighbor> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| Neighbor { index: e.index, dist2: e.dist2 })
            .collect();
        out.sort_by(|a, b| a.dist2.partial_cmp(&b.dist2).unwrap());
        out
    }

    fn point_coords(&self, idx: usize) -> &[f64] {
        &self.points[idx * self.dims..(idx + 1) * self.dims]
    }

    fn search(
        &self,
        node: Option<usize>,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let Some(node_idx) = node else { return };
        let node = self.nodes[node_idx];
        let coords = self.point_coords(node.point);
        if Some(node.point) != exclude {
            let dist2: f64 = coords.iter().zip(query.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            if heap.len() < k {
                heap.push(HeapEntry { dist2, index: node.point });
            } else if let Some(top) = heap.peek() {
                if dist2 < top.dist2 {
                    heap.pop();
                    heap.push(HeapEntry { dist2, index: node.point });
                }
            }
        }
        let diff = query[node.axis] - coords[node.axis];
        let (near, far) =
            if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        self.search(near, query, k, exclude, heap);
        let worst = heap.peek().map(|e| e.dist2).unwrap_or(f64::MAX);
        if heap.len() < k || diff * diff < worst {
            self.search(far, query, k, exclude, heap);
        }
    }
}

/// Recursive median-split builder.
struct Builder<'a> {
    points: &'a [f64],
    dims: usize,
}

impl Builder<'_> {
    /// Build the subtree for `indices`, writing its nodes into
    /// `nodes[offset .. offset + indices.len()]` and returning the arena index
    /// of the subtree root.
    fn build_range(
        &mut self,
        nodes: &mut [Node],
        offset: usize,
        indices: &mut [usize],
        depth: usize,
        threads: usize,
    ) -> usize {
        let axis = depth % self.dims;
        let mid = indices.len() / 2;
        indices.select_nth_unstable_by(mid, |&a, &b| {
            self.points[a * self.dims + axis]
                .partial_cmp(&self.points[b * self.dims + axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let point = indices[mid];
        let root_slot = offset + mid;

        let (left_indices, rest) = indices.split_at_mut(mid);
        let right_indices = &mut rest[1..];
        let (left_nodes, rest_nodes) = nodes.split_at_mut(mid);
        let right_nodes = &mut rest_nodes[1..];

        let left;
        let right;
        if threads > 1 && left_indices.len() > 256 && right_indices.len() > 256 {
            let mut right_builder = Builder { points: self.points, dims: self.dims };
            let right_offset = offset + mid + 1;
            let (l, r) = std::thread::scope(|scope| {
                let handle = scope.spawn(move || {
                    if right_indices.is_empty() {
                        None
                    } else {
                        Some(right_builder.build_range(
                            right_nodes,
                            right_offset,
                            right_indices,
                            depth + 1,
                            threads / 2,
                        ))
                    }
                });
                let l = if left_indices.is_empty() {
                    None
                } else {
                    Some(self.build_range(
                        left_nodes,
                        offset,
                        left_indices,
                        depth + 1,
                        threads - threads / 2,
                    ))
                };
                (l, handle.join().expect("kd-tree build worker panicked"))
            });
            left = l;
            right = r;
        } else {
            left = if left_indices.is_empty() {
                None
            } else {
                Some(self.build_range(left_nodes, offset, left_indices, depth + 1, 1))
            };
            right = if right_indices.is_empty() {
                None
            } else {
                Some(self.build_range(right_nodes, offset + mid + 1, right_indices, depth + 1, 1))
            };
        }

        nodes[mid] = Node { point, axis, left, right };
        // Note: `nodes` here is the *local* slice whose element `mid` is the
        // subtree root located at arena index `root_slot`.
        root_slot
    }
}

/// Configuration of a kd-tree workload run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KdTreeConfig {
    /// Neighbours per kNN query.
    pub neighbors: usize,
    /// Buckets of the kth-neighbour distance histogram (the reduction
    /// elements of the merging phase).
    pub buckets: usize,
    /// Thread cap of the tree-construction kernel (MineBench's tree build has
    /// limited parallelism).
    pub max_tree_build_threads: usize,
    /// How the per-thread histograms are merged.
    pub reduction: ReductionStrategy,
}

impl Default for KdTreeConfig {
    fn default() -> Self {
        KdTreeConfig {
            neighbors: 8,
            buckets: 64,
            max_tree_build_threads: 4,
            reduction: ReductionStrategy::SerialLinear,
        }
    }
}

/// Result of a kd-tree workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KdTreeResult {
    /// Histogram of kth-neighbour distances over all points.
    pub histogram: Vec<f64>,
    /// Mean kth-neighbour distance.
    pub mean_kth_distance: f64,
    /// Number of kNN queries executed (= number of points).
    pub queries: usize,
}

/// The kd-tree workload: build + all-points kNN characterisation.
#[derive(Debug, Clone)]
pub struct KdTreeWorkload {
    config: KdTreeConfig,
}

impl KdTreeWorkload {
    /// Create a workload with the given configuration.
    pub fn new(config: KdTreeConfig) -> Self {
        assert!(config.neighbors > 0, "neighbors must be positive");
        assert!(config.buckets > 0, "buckets must be positive");
        assert!(config.max_tree_build_threads > 0, "tree build threads must be positive");
        KdTreeWorkload { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KdTreeConfig {
        &self.config
    }

    /// The phased view of this workload over `data`, ready for a
    /// [`PhaseScheduler`].
    pub fn phased<'a>(&'a self, data: &'a Dataset) -> PhasedKdTree<'a> {
        PhasedKdTree { workload: self, data }
    }

    /// Run the workload on `data` with `threads` worker threads, streaming
    /// every phase record into `sink`.
    pub fn run(&self, data: &Dataset, threads: usize, sink: &dyn RecordSink) -> KdTreeResult {
        PhaseScheduler::new(threads).run(&self.phased(data), sink).output
    }
}

/// [`KdTreeWorkload`] expressed as a phased workload.
pub struct PhasedKdTree<'a> {
    workload: &'a KdTreeWorkload,
    data: &'a Dataset,
}

/// State of a scheduled kd-tree workload run.
#[derive(Default)]
pub struct KdTreeState {
    /// Bucket width of the distance histogram (from the data extent).
    scale: f64,
    histogram: Vec<f64>,
    mean_kth_distance: f64,
}

impl PhasedWorkload for PhasedKdTree<'_> {
    type State = KdTreeState;
    type Output = KdTreeResult;

    fn name(&self) -> &str {
        "kdtree"
    }

    fn max_iterations(&self) -> usize {
        1
    }

    fn init(&self, exec: &PhaseExec<'_>) -> KdTreeState {
        let data = self.data;
        // Histogram bucket width from the bounding-box diagonal, so bucket
        // indices are deterministic and independent of the thread count.
        let scale = exec.init("measure-extent", || {
            let d = data.dims();
            let n = data.len();
            if n == 0 {
                return 1.0;
            }
            let mut lo = vec![f64::MAX; d];
            let mut hi = vec![f64::MIN; d];
            for i in 0..n {
                for (dd, &v) in data.point(i).iter().enumerate() {
                    lo[dd] = lo[dd].min(v);
                    hi[dd] = hi[dd].max(v);
                }
            }
            let diagonal: f64 =
                lo.iter().zip(hi.iter()).map(|(a, b)| (b - a) * (b - a)).sum::<f64>().sqrt();
            (diagonal / self.workload.config.buckets as f64).max(f64::MIN_POSITIVE)
        });
        KdTreeState { scale, histogram: Vec::new(), mean_kth_distance: 0.0 }
    }

    fn iteration(&self, state: &mut KdTreeState, exec: &PhaseExec<'_>, _iter: usize) -> Control {
        let data = self.data;
        let n = data.len();
        let k = self.workload.config.neighbors.min(n.saturating_sub(1)).max(1);
        let buckets = self.workload.config.buckets;
        let scale = state.scale;

        // -------- Limited-scaling kernel: tree construction. -----------------
        let tree = exec.parallel_task(
            "build-kdtree",
            self.workload.config.max_tree_build_threads,
            |build_threads| KdTree::build(data.values(), data.dims(), build_threads),
        );

        // -------- Parallel phase: all-points kNN with per-thread histograms. -
        // Partial layout: [bucket counts (buckets) | distance sum].
        let partials = exec.parallel("knn-histogram", n, |_ctx, range| {
            let mut partial = vec![0.0f64; buckets + 1];
            for i in range {
                let neighbors = tree.knn(data.point(i), k, Some(i));
                let dist = neighbors.last().map(|nb| nb.dist2.sqrt()).unwrap_or(0.0);
                let bucket = ((dist / scale) as usize).min(buckets - 1);
                partial[bucket] += 1.0;
                partial[buckets] += dist;
            }
            partial
        });

        // -------- Merging phase: reduce the per-thread histograms. -----------
        let (merged, _stats) =
            exec.reduce("merge-histograms", &partials, self.workload.config.reduction);

        // -------- Constant serial phase: summary statistics. -----------------
        let (histogram, mean) = exec.serial("summarize", || {
            let mean = if n > 0 { merged[buckets] / n as f64 } else { 0.0 };
            (merged[..buckets].to_vec(), mean)
        });
        state.histogram = histogram;
        state.mean_kth_distance = mean;
        Control::Break
    }

    fn finalize(&self, state: KdTreeState, _exec: &PhaseExec<'_>) -> KdTreeResult {
        KdTreeResult {
            histogram: state.histogram,
            mean_kth_distance: state.mean_kth_distance,
            queries: self.data.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_profile::{NullSink, Profiler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims).map(|_| rng.gen_range(-5.0..5.0)).collect()
    }

    fn brute_force_knn(
        points: &[f64],
        dims: usize,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        let n = points.len() / dims;
        let mut all: Vec<Neighbor> = (0..n)
            .filter(|&i| Some(i) != exclude)
            .map(|i| {
                let dist2 = points[i * dims..(i + 1) * dims]
                    .iter()
                    .zip(query.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                Neighbor { index: i, dist2 }
            })
            .collect();
        all.sort_by(|a, b| a.dist2.partial_cmp(&b.dist2).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let dims = 3;
        let points = random_points(500, dims, 11);
        let tree = KdTree::build(&points, dims, 1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let got = tree.knn(&q, 8, None);
            let expect = brute_force_knn(&points, dims, &q, 8, None);
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g.dist2 - e.dist2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_excludes_the_query_point() {
        let dims = 2;
        let points = random_points(200, dims, 3);
        let tree = KdTree::build(&points, dims, 1);
        for i in [0usize, 17, 199] {
            let q = &points[i * dims..(i + 1) * dims];
            let got = tree.knn(q, 5, Some(i));
            assert!(got.iter().all(|n| n.index != i));
            let expect = brute_force_knn(&points, dims, q, 5, Some(i));
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g.dist2 - e.dist2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial_build_results() {
        let dims = 3;
        let points = random_points(3000, dims, 21);
        let serial = KdTree::build(&points, dims, 1);
        let parallel = KdTree::build(&points, dims, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..25 {
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let a = serial.knn(&q, 6, None);
            let b = parallel.knn(&q, 6, None);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.dist2 - y.dist2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn neighbours_are_sorted_by_distance() {
        let dims = 2;
        let points = random_points(300, dims, 8);
        let tree = KdTree::build(&points, dims, 2);
        let got = tree.knn(&[0.0, 0.0], 10, None);
        for w in got.windows(2) {
            assert!(w[0].dist2 <= w[1].dist2);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let points: Vec<f64> = Vec::new();
        let tree = KdTree::build(&points, 3, 4);
        assert!(tree.is_empty());
        assert!(tree.knn(&[0.0, 0.0, 0.0], 3, None).is_empty());

        let single = vec![1.0, 2.0];
        let tree = KdTree::build(&single, 2, 4);
        assert_eq!(tree.len(), 1);
        let n = tree.knn(&[0.0, 0.0], 3, None);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].index, 0);
    }

    #[test]
    fn k_larger_than_point_count_returns_all() {
        let dims = 2;
        let points = random_points(10, dims, 4);
        let tree = KdTree::build(&points, dims, 1);
        let got = tree.knn(&[0.0, 0.0], 50, None);
        assert_eq!(got.len(), 10);
    }

    #[test]
    #[should_panic]
    fn query_dimension_mismatch_panics() {
        let points = random_points(10, 3, 4);
        let tree = KdTree::build(&points, 3, 1);
        tree.knn(&[0.0, 0.0], 2, None);
    }

    #[test]
    fn workload_histogram_counts_every_point() {
        let data = crate::data::DatasetSpec::new(500, 3, 3, 23).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let r = w.run(&data, 4, &NullSink);
        assert_eq!(r.queries, 500);
        assert_eq!(r.histogram.len(), KdTreeConfig::default().buckets);
        assert_eq!(r.histogram.iter().sum::<f64>(), 500.0);
        assert!(r.mean_kth_distance > 0.0);
    }

    #[test]
    fn workload_result_is_thread_count_independent() {
        let data = crate::data::DatasetSpec::new(400, 2, 2, 9).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let base = w.run(&data, 1, &NullSink);
        for threads in [2usize, 4, 8] {
            let r = w.run(&data, threads, &NullSink);
            assert_eq!(r.histogram, base.histogram, "threads={threads}");
            assert!((r.mean_kth_distance - base.mean_kth_distance).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_records_all_phase_kinds() {
        use mp_profile::PhaseKind;
        let data = crate::data::DatasetSpec::new(600, 3, 3, 31).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let profiler = Profiler::new("kdtree", 4);
        w.run(&data, 4, &profiler);
        let profile = profiler.finish();
        let kinds: Vec<PhaseKind> = profile.records.iter().map(|r| r.kind).collect();
        for kind in [PhaseKind::Parallel, PhaseKind::Reduction, PhaseKind::SerialConstant] {
            assert!(kinds.contains(&kind), "{kind:?} missing from {kinds:?}");
        }
        assert!(profile.to_measured_run().parallel_seconds > 0.0);
    }

    #[test]
    fn workload_reduction_strategy_does_not_change_the_histogram() {
        let data = crate::data::DatasetSpec::new(300, 3, 3, 5).generate();
        let base = KdTreeWorkload::new(KdTreeConfig::default()).run(&data, 4, &NullSink);
        for strategy in ReductionStrategy::all() {
            let r = KdTreeWorkload::new(KdTreeConfig {
                reduction: strategy,
                ..KdTreeConfig::default()
            })
            .run(&data, 4, &NullSink);
            assert_eq!(r.histogram, base.histogram, "{strategy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn workload_rejects_zero_neighbors() {
        KdTreeWorkload::new(KdTreeConfig { neighbors: 0, ..KdTreeConfig::default() });
    }

    #[test]
    fn duplicate_points_are_handled() {
        let dims = 2;
        let mut points = vec![1.0, 1.0];
        for _ in 0..20 {
            points.extend_from_slice(&[1.0, 1.0]);
        }
        points.extend_from_slice(&[3.0, 3.0]);
        let tree = KdTree::build(&points, dims, 1);
        let got = tree.knn(&[1.0, 1.0], 5, None);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.dist2 == 0.0));
    }
}
