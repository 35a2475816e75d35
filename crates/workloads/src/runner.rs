//! A uniform driver for running the clustering workloads across thread counts.
//!
//! The paper's characterisation experiments (Figure 2, Tables II and IV) need
//! the same procedure for every application: run it at 1, 2, 4, … threads,
//! record the phase profile of each run, and feed the set of profiles to the
//! parameter extraction. [`ClusteringWorkload`] wraps the applications behind
//! one interface — every run goes through the `mp-runtime` scheduler — and
//! [`run_sweep`] produces exactly that set of profiles, while
//! [`ClusteringWorkload::run`] streams the scheduler's records directly into
//! any [`RecordSink`] (e.g. a [`mp_profile::StreamingExtractor`]) without
//! materialising profiles at all.

use serde::{Deserialize, Serialize};

use mp_par::reduce::ReductionStrategy;
use mp_profile::stream::RecordSink;
use mp_profile::{Profiler, RunProfile};
use mp_runtime::PhaseScheduler;

use crate::data::Dataset;
use crate::fuzzy::{FuzzyCMeans, FuzzyConfig};
use crate::hop::{Hop, HopConfig};
use crate::kdtree::{KdTreeConfig, KdTreeWorkload};
use crate::kmeans::{KMeans, KMeansConfig};

/// Which clustering application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// k-means (paper Algorithm 1 structure).
    KMeans,
    /// fuzzy c-means.
    Fuzzy,
    /// HOP density-based clustering.
    Hop,
    /// The kd-tree build + all-points kNN scenario (hop's tree kernel,
    /// isolated).
    KdTree,
}

impl WorkloadKind {
    /// Short name used in profiles and reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::KMeans => "kmeans",
            WorkloadKind::Fuzzy => "fuzzy",
            WorkloadKind::Hop => "hop",
            WorkloadKind::KdTree => "kdtree",
        }
    }

    /// All kinds: the paper's three applications in paper order, then the
    /// kd-tree scenario.
    pub fn all() -> [WorkloadKind; 4] {
        [WorkloadKind::KMeans, WorkloadKind::Fuzzy, WorkloadKind::Hop, WorkloadKind::KdTree]
    }

    /// The three applications the paper characterises, in paper order.
    pub fn paper() -> [WorkloadKind; 3] {
        [WorkloadKind::KMeans, WorkloadKind::Fuzzy, WorkloadKind::Hop]
    }
}

/// A fully configured clustering job: an application, its configuration and a
/// data set.
#[derive(Debug, Clone)]
pub struct ClusteringWorkload {
    kind: WorkloadKind,
    dataset: Dataset,
    kmeans: KMeansConfig,
    fuzzy: FuzzyConfig,
    hop: HopConfig,
    kdtree: KdTreeConfig,
}

impl ClusteringWorkload {
    fn with_defaults(kind: WorkloadKind, dataset: Dataset) -> Self {
        ClusteringWorkload {
            kind,
            dataset,
            kmeans: KMeansConfig::default(),
            fuzzy: FuzzyConfig::default(),
            hop: HopConfig::default(),
            kdtree: KdTreeConfig::default(),
        }
    }

    /// A k-means job over `dataset` with the default configuration for that
    /// data set.
    pub fn kmeans(dataset: Dataset) -> Self {
        let kmeans = KMeansConfig::for_dataset(&dataset);
        ClusteringWorkload { kmeans, ..Self::with_defaults(WorkloadKind::KMeans, dataset) }
    }

    /// A fuzzy c-means job over `dataset` with the default configuration for
    /// that data set.
    pub fn fuzzy(dataset: Dataset) -> Self {
        let fuzzy = FuzzyConfig::for_dataset(&dataset);
        ClusteringWorkload { fuzzy, ..Self::with_defaults(WorkloadKind::Fuzzy, dataset) }
    }

    /// A HOP job over `dataset` with the default configuration.
    pub fn hop(dataset: Dataset) -> Self {
        Self::with_defaults(WorkloadKind::Hop, dataset)
    }

    /// A kd-tree build/query job over `dataset` with the default
    /// configuration.
    pub fn kdtree(dataset: Dataset) -> Self {
        Self::with_defaults(WorkloadKind::KdTree, dataset)
    }

    /// Build a job of `kind` over `dataset` with default configurations.
    pub fn of_kind(kind: WorkloadKind, dataset: Dataset) -> Self {
        match kind {
            WorkloadKind::KMeans => Self::kmeans(dataset),
            WorkloadKind::Fuzzy => Self::fuzzy(dataset),
            WorkloadKind::Hop => Self::hop(dataset),
            WorkloadKind::KdTree => Self::kdtree(dataset),
        }
    }

    /// The application kind.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The data set in use.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Override the reduction strategy used by the element-wise merging
    /// phases (kmeans, fuzzy, kdtree; hop's hashed merge has no strategy
    /// axis).
    pub fn with_reduction(mut self, strategy: ReductionStrategy) -> Self {
        self.kmeans.reduction = strategy;
        self.fuzzy.reduction = strategy;
        self.kdtree.reduction = strategy;
        self
    }

    /// Override the kmeans configuration.
    pub fn with_kmeans_config(mut self, config: KMeansConfig) -> Self {
        self.kmeans = config;
        self
    }

    /// Override the fuzzy configuration.
    pub fn with_fuzzy_config(mut self, config: FuzzyConfig) -> Self {
        self.fuzzy = config;
        self
    }

    /// Override the HOP configuration.
    pub fn with_hop_config(mut self, config: HopConfig) -> Self {
        self.hop = config;
        self
    }

    /// Override the kd-tree configuration.
    pub fn with_kdtree_config(mut self, config: KdTreeConfig) -> Self {
        self.kdtree = config;
        self
    }

    /// Run the job once at `threads` threads through the phase scheduler,
    /// streaming every instrumented record into `sink` (a
    /// [`mp_profile::NullSink`] runs it uninstrumented).
    pub fn run(&self, threads: usize, sink: &dyn RecordSink) {
        let scheduler = PhaseScheduler::new(threads);
        match self.kind {
            WorkloadKind::KMeans => {
                scheduler.run(&KMeans::new(self.kmeans).phased(&self.dataset), sink);
            }
            WorkloadKind::Fuzzy => {
                scheduler.run(&FuzzyCMeans::new(self.fuzzy).phased(&self.dataset), sink);
            }
            WorkloadKind::Hop => {
                scheduler.run(&Hop::new(self.hop).phased(&self.dataset), sink);
            }
            WorkloadKind::KdTree => {
                scheduler.run(&KdTreeWorkload::new(self.kdtree).phased(&self.dataset), sink);
            }
        }
    }

    /// Run the job once at `threads` threads and return its phase profile.
    pub fn run_profiled(&self, threads: usize) -> RunProfile {
        let profiler = Profiler::new(self.kind.name(), threads);
        self.run(threads, &profiler);
        profiler.finish()
    }
}

/// Run the job at every thread count in `thread_counts` and collect the
/// profiles (the input expected by `mp_profile::extract_params`).
pub fn run_sweep(workload: &ClusteringWorkload, thread_counts: &[usize]) -> Vec<RunProfile> {
    thread_counts.iter().map(|&t| workload.run_profiled(t)).collect()
}

/// The default thread sweep used by the characterisation experiments:
/// powers of two from 1 up to `max` (inclusive when `max` is a power of two).
pub fn default_thread_sweep(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut t = 1usize;
    while t <= max {
        v.push(t);
        t *= 2;
    }
    if v.last().copied() != Some(max) && max > 1 {
        v.push(max);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DatasetSpec;
    use mp_model::growth::GrowthFunction;
    use mp_profile::extract_params;

    fn tiny() -> Dataset {
        DatasetSpec::new(400, 3, 3, 19).generate()
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(WorkloadKind::KMeans.name(), "kmeans");
        assert_eq!(WorkloadKind::Fuzzy.name(), "fuzzy");
        assert_eq!(WorkloadKind::Hop.name(), "hop");
        assert_eq!(WorkloadKind::KdTree.name(), "kdtree");
        assert_eq!(WorkloadKind::all().len(), 4);
        // The paper's characterisation covers exactly the three MineBench
        // applications, in paper order.
        assert_eq!(
            WorkloadKind::paper(),
            [WorkloadKind::KMeans, WorkloadKind::Fuzzy, WorkloadKind::Hop]
        );
    }

    #[test]
    fn default_thread_sweep_is_powers_of_two() {
        assert_eq!(default_thread_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(default_thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(default_thread_sweep(1), vec![1]);
    }

    #[test]
    fn run_profiled_produces_named_profiles() {
        for kind in WorkloadKind::all() {
            let job = ClusteringWorkload::of_kind(kind, tiny());
            let profile = job.run_profiled(2);
            assert_eq!(profile.app, kind.name());
            assert_eq!(profile.threads, 2);
            assert!(profile.total_time() > 0.0, "{kind:?}");
            assert!(profile.parallel_time() > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn sweep_profiles_feed_parameter_extraction() {
        let job = ClusteringWorkload::kmeans(tiny());
        let profiles = run_sweep(&job, &[1, 2, 4]);
        assert_eq!(profiles.len(), 3);
        let params = extract_params(&profiles, &GrowthFunction::Linear).unwrap();
        assert_eq!(params.app, "kmeans");
        assert!(params.f > 0.5, "parallel fraction should dominate, got {}", params.f);
        assert!(params.fcon >= 0.0 && params.fcon <= 1.0);
        assert!(params.fred >= 0.0 && params.fred <= 1.0);
    }

    #[test]
    fn with_reduction_changes_both_iterative_configs() {
        let job = ClusteringWorkload::kmeans(tiny())
            .with_reduction(ReductionStrategy::ParallelPrivatized);
        assert_eq!(job.kmeans.reduction, ReductionStrategy::ParallelPrivatized);
        assert_eq!(job.fuzzy.reduction, ReductionStrategy::ParallelPrivatized);
    }

    #[test]
    fn config_overrides_are_applied() {
        let job = ClusteringWorkload::kmeans(tiny())
            .with_kmeans_config(KMeansConfig { max_iters: 3, ..Default::default() });
        assert_eq!(job.kmeans.max_iters, 3);
        let job = ClusteringWorkload::hop(tiny())
            .with_hop_config(HopConfig { neighbors: 5, ..Default::default() });
        assert_eq!(job.hop.neighbors, 5);
        let job = ClusteringWorkload::fuzzy(tiny())
            .with_fuzzy_config(FuzzyConfig { max_iters: 2, ..Default::default() });
        assert_eq!(job.fuzzy.max_iters, 2);
        let job = ClusteringWorkload::kdtree(tiny())
            .with_kdtree_config(crate::kdtree::KdTreeConfig { neighbors: 3, ..Default::default() });
        assert_eq!(job.kdtree.neighbors, 3);
    }

    #[test]
    fn sweep_streams_into_an_extractor_and_calibrates() {
        use mp_profile::StreamingExtractor;
        let job = ClusteringWorkload::kmeans(tiny());
        let extractor = StreamingExtractor::new(job.kind().name());
        for threads in [1usize, 2, 4] {
            job.run(threads, &extractor.run_sink(threads));
        }
        let calibrated = extractor.calibrate().unwrap();
        assert!(calibrated.app_params().f > 0.5, "f = {}", calibrated.app_params().f);
        let split = calibrated.app_params().split;
        assert!(split.fcon >= 0.0 && split.fcon <= 1.0);
        assert!((split.fcon + split.fred - 1.0).abs() < 1e-9);
    }
}
