//! A k-d tree for nearest-neighbour queries, plus the kd-tree workload.
//!
//! HOP's density estimation needs the `k` nearest neighbours of every
//! particle. MineBench's implementation builds a balanced k-d tree once and
//! queries it from all threads; the *tree construction* kernel is the part of
//! hop that the paper notes does not scale to 16 cores. This implementation
//! follows the same structure: a median-split balanced tree over point indices
//! with an optionally parallel build (the top levels split on the run's
//! [`Team`], each remaining subtree built by one logical thread) and
//! read-only concurrent kNN queries.
//!
//! [`KdTreeWorkload`] runs the tree as a standalone scenario — the
//! limited-scaling build, a fully-parallel all-points kNN pass producing
//! per-thread distance histograms, a merging phase over the histograms and a
//! constant serial summary — so the tree kernel can be characterised and
//! calibrated on its own, isolated from the rest of HOP.

use std::collections::BinaryHeap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::exec::PhaseExec;
use mp_model::phase::RunProfile;
use mp_par::reduce::ReductionStrategy;
use mp_par::Team;

/// A balanced k-d tree over a borrowed point set.
#[derive(Debug)]
pub struct KdTree<'a> {
    /// Row-major coordinates of the indexed points.
    points: &'a [f64],
    dims: usize,
    nodes: Vec<Node>,
    root: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Build a tree over `points` (row-major, `len × dims`), forking on `team`.
    ///
    /// Like the MineBench kernel, it builds at most `build_threads` subtrees
    /// at once: the top levels split one level per fork, a budget of `t > 1`
    /// threads into `t − t/2` and `t/2`, and a last fork builds each subtree
    /// as one logical thread. The arena is the same for any team and budget.
    pub fn build(points: &'a [f64], dims: usize, team: &Team, build_threads: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(points.len() % dims, 0, "points length must be a multiple of dims");
        let n = points.len() / dims;
        let mut indices: Vec<usize> = (0..n).collect();
        let mut nodes = vec![Node { point: 0, axis: 0, left: None, right: None }; n];
        let builder = Builder { points, dims };
        let whole = Subtree { indices: &mut indices, nodes: &mut nodes, offset: 0, depth: 0 };
        let root = whole.root();
        // Each fork takes one level of subtrees, with their budgets, out of
        // the slots and hands back the next. Until the last fork, a subtree
        // that may not split keeps its place: a member's block is contiguous.
        let mut level = vec![(whole, build_threads.max(1))];
        while !level.is_empty() {
            let last = !level.iter().any(|(subtree, threads)| subtree.splits(*threads));
            let count = level.len();
            let slots = Mutex::new(level.into_iter().map(Some).collect::<Vec<_>>());
            let next = team.partials(count, count, |ctx, _| {
                let taken =
                    slots.lock().expect("no subtree is built under the lock")[ctx.tid].take();
                let (subtree, threads) = taken.expect("each subtree is taken once");
                if subtree.splits(threads) {
                    let [left, right] = builder.split(subtree);
                    vec![(left, threads - threads / 2), (right, threads / 2)]
                } else if !last {
                    vec![(subtree, threads)]
                } else {
                    let Subtree { indices, nodes, offset, depth } = subtree;
                    builder.build_range(indices, nodes, offset, depth);
                    Vec::new()
                }
            });
            level = next.into_iter().flatten().collect();
        }
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

/// Median-split builder.
struct Builder<'a> {
    points: &'a [f64],
    dims: usize,
}

/// The part of the tree one build step owns: the points of `indices`, whose
/// nodes go to `nodes`, the arena slots from `offset` on.
struct Subtree<'s> {
    indices: &'s mut [usize],
    nodes: &'s mut [Node],
    offset: usize,
    depth: usize,
}

impl Subtree<'_> {
    /// Arena index of the subtree's root, if it has one.
    fn root(&self) -> Option<usize> {
        (!self.indices.is_empty()).then(|| self.offset + self.indices.len() / 2)
    }

    /// Whether the subtree splits across a fork with a budget of `threads`:
    /// both of its halves must hold more than 256 points.
    fn splits(&self, threads: usize) -> bool {
        let len = self.indices.len();
        threads > 1 && len / 2 > 256 && len - len / 2 - 1 > 256
    }
}

impl Builder<'_> {
    /// Move the median of `indices` on `depth`'s axis to the middle slot,
    /// `indices[len / 2]`, and return the axis.
    fn select_median(&self, indices: &mut [usize], depth: usize) -> usize {
        let axis = depth % self.dims;
        indices.select_nth_unstable_by(indices.len() / 2, |&a, &b| {
            self.points[a * self.dims + axis]
                .partial_cmp(&self.points[b * self.dims + axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        axis
    }

    /// Write the node of `subtree`'s median point to the middle slot of its
    /// range and return the two halves around it (either may be empty).
    fn split<'s>(&self, subtree: Subtree<'s>) -> [Subtree<'s>; 2] {
        let Subtree { indices, nodes, offset, depth } = subtree;
        let axis = self.select_median(indices, depth);
        let mid = indices.len() / 2;
        let point = indices[mid];
        let (left_indices, rest) = indices.split_at_mut(mid);
        let (left_nodes, rest_nodes) = nodes.split_at_mut(mid);
        let (node, right_nodes) = rest_nodes.split_first_mut().expect("a split subtree has a root");
        let half = |indices, nodes, offset| Subtree { indices, nodes, offset, depth: depth + 1 };
        let left = half(left_indices, left_nodes, offset);
        let right = half(&mut rest[1..], right_nodes, offset + mid + 1);
        *node = Node { point, axis, left: left.root(), right: right.root() };
        [left, right]
    }

    /// Build the subtree of `indices` into `nodes` (arena slots from `offset`
    /// on) on the calling thread; return its root's slot. Plain arguments:
    /// recursing through [`Builder::split`], one call a point, built 200 000
    /// points about 25 % slower.
    fn build_range(
        &self,
        indices: &mut [usize],
        nodes: &mut [Node],
        offset: usize,
        depth: usize,
    ) -> Option<usize> {
        if indices.is_empty() {
            return None;
        }
        let axis = self.select_median(indices, depth);
        let mid = indices.len() / 2;
        let point = indices[mid];
        let (left_indices, rest) = indices.split_at_mut(mid);
        let (left_nodes, rest_nodes) = nodes.split_at_mut(mid);
        let left = self.build_range(left_indices, left_nodes, offset, depth + 1);
        let right =
            self.build_range(&mut rest[1..], &mut rest_nodes[1..], offset + mid + 1, depth + 1);
        nodes[mid] = Node { point, axis, left, right };
        Some(offset + mid)
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

    /// Run the workload on `data` with `threads` worker threads; returns the
    /// result and the run's phase records.
    pub fn run(&self, data: &Dataset, threads: usize) -> (KdTreeResult, RunProfile) {
        let mut exec = PhaseExec::new("kdtree", threads);
        let n = data.len();
        let k = self.config.neighbors.min(n.saturating_sub(1)).max(1);
        let buckets = self.config.buckets;

        // Histogram bucket width from the bounding-box diagonal, so bucket
        // indices are deterministic and independent of the thread count.
        let scale = exec.init("measure-extent", || {
            let d = data.dims();
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
            (diagonal / buckets as f64).max(f64::MIN_POSITIVE)
        });

        // -------- Limited-scaling kernel: tree construction. -----------------
        let tree = exec.parallel_task(
            "build-kdtree",
            self.config.max_tree_build_threads,
            |team, build_threads| KdTree::build(data.values(), data.dims(), team, build_threads),
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
        let merged = exec.reduce("merge-histograms", &partials, self.config.reduction);

        // -------- Constant serial phase: summary statistics. -----------------
        let (histogram, mean_kth_distance) = exec.serial("summarize", || {
            let mean = if n > 0 { merged[buckets] / n as f64 } else { 0.0 };
            (merged[..buckets].to_vec(), mean)
        });
        (KdTreeResult { histogram, mean_kth_distance, queries: n }, exec.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let tree = KdTree::build(&points, dims, &Team::new(1), 1);
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
        let tree = KdTree::build(&points, dims, &Team::new(1), 1);
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
        let teams = [Team::new(1), Team::new(2)];
        let points = random_points(3000, dims, 21);
        let serial = KdTree::build(&points, dims, &teams[0], 1);
        let parallel = KdTree::build(&points, dims, &teams[1], 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..25 {
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let a = serial.knn(&q, 6, None);
            let b = parallel.knn(&q, 6, None);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.dist2 - y.dist2).abs() < 1e-9);
            }
        }
        // Node for node the serial arena, whatever the team and budget: 514
        // points never fork (a half needs more than 256), 515 fork once.
        for n in [0usize, 1, 200, 514, 515, 3000] {
            let points = random_points(n, dims, 21 + n as u64);
            let serial = KdTree::build(&points, dims, &teams[0], 1);
            for team in &teams {
                for build_threads in [1usize, 3, 4, 8] {
                    let tree = KdTree::build(&points, dims, team, build_threads);
                    let what = format!("n={n} members={} threads={build_threads}", team.size());
                    assert_eq!((tree.root, &tree.nodes), (serial.root, &serial.nodes), "{what}");
                }
            }
        }
    }

    #[test]
    fn neighbours_are_sorted_by_distance() {
        let dims = 2;
        let points = random_points(300, dims, 8);
        let tree = KdTree::build(&points, dims, &Team::new(1), 2);
        let got = tree.knn(&[0.0, 0.0], 10, None);
        for w in got.windows(2) {
            assert!(w[0].dist2 <= w[1].dist2);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let points: Vec<f64> = Vec::new();
        let tree = KdTree::build(&points, 3, &Team::new(1), 4);
        assert!(tree.is_empty());
        assert!(tree.knn(&[0.0, 0.0, 0.0], 3, None).is_empty());

        let single = vec![1.0, 2.0];
        let tree = KdTree::build(&single, 2, &Team::new(1), 4);
        assert_eq!(tree.len(), 1);
        let n = tree.knn(&[0.0, 0.0], 3, None);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].index, 0);
    }

    #[test]
    fn k_larger_than_point_count_returns_all() {
        let dims = 2;
        let points = random_points(10, dims, 4);
        let tree = KdTree::build(&points, dims, &Team::new(1), 1);
        let got = tree.knn(&[0.0, 0.0], 50, None);
        assert_eq!(got.len(), 10);
    }

    #[test]
    #[should_panic]
    fn query_dimension_mismatch_panics() {
        let points = random_points(10, 3, 4);
        let tree = KdTree::build(&points, 3, &Team::new(1), 1);
        tree.knn(&[0.0, 0.0], 2, None);
    }

    #[test]
    fn workload_histogram_counts_every_point() {
        let data = crate::data::DatasetSpec::new(500, 3, 3, 23).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let (r, _) = w.run(&data, 4);
        assert_eq!(r.queries, 500);
        assert_eq!(r.histogram.len(), KdTreeConfig::default().buckets);
        assert_eq!(r.histogram.iter().sum::<f64>(), 500.0);
        assert!(r.mean_kth_distance > 0.0);
    }

    #[test]
    fn workload_result_is_thread_count_independent() {
        let data = crate::data::DatasetSpec::new(400, 2, 2, 9).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let (base, _) = w.run(&data, 1);
        for threads in [2usize, 4, 8] {
            let (r, _) = w.run(&data, threads);
            assert_eq!(r.histogram, base.histogram, "threads={threads}");
            assert!((r.mean_kth_distance - base.mean_kth_distance).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_records_all_phase_kinds() {
        use mp_model::phase::PhaseKind;
        let data = crate::data::DatasetSpec::new(600, 3, 3, 31).generate();
        let w = KdTreeWorkload::new(KdTreeConfig::default());
        let (_, profile) = w.run(&data, 4);
        let kinds: Vec<PhaseKind> = profile.records.iter().map(|r| r.kind).collect();
        for kind in [PhaseKind::Parallel, PhaseKind::Reduction, PhaseKind::SerialConstant] {
            assert!(kinds.contains(&kind), "{kind:?} missing from {kinds:?}");
        }
        assert!(profile.to_measured_run().parallel_seconds > 0.0);
    }

    #[test]
    fn workload_reduction_strategy_does_not_change_the_histogram() {
        let data = crate::data::DatasetSpec::new(300, 3, 3, 5).generate();
        let (base, _) = KdTreeWorkload::new(KdTreeConfig::default()).run(&data, 4);
        for strategy in ReductionStrategy::all() {
            let r = KdTreeWorkload::new(KdTreeConfig {
                reduction: strategy,
                ..KdTreeConfig::default()
            })
            .run(&data, 4)
            .0;
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
        let tree = KdTree::build(&points, dims, &Team::new(1), 1);
        let got = tree.knn(&[1.0, 1.0], 5, None);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.dist2 == 0.0));
    }
}
