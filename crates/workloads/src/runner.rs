//! A uniform driver for running the clustering workloads across thread counts.
//!
//! The paper's characterisation experiments (Figure 2, Tables II and IV) need
//! the same procedure for every application: run it at 1, 2, 4, … threads,
//! record the phase profile of each run, and feed the set of profiles to the
//! parameter extraction. [`ClusteringWorkload`] wraps the applications behind
//! one interface: [`ClusteringWorkload::run`] returns one run's phase
//! records, and [`run_sweep`] produces exactly that set of profiles. Each
//! profile folds into one [`mp_model::calibrate::MeasuredRun`]
//! ([`RunProfile::to_measured_run`]), the input of
//! `RunAccounting::from_runs` and `CalibratedParams::fit`.

use serde::{Deserialize, Serialize};

use mp_model::phase::RunProfile;
use mp_par::reduce::ReductionStrategy;

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
}

/// The configuration of the one application a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AppConfig {
    KMeans(KMeansConfig),
    Fuzzy(FuzzyConfig),
    Hop(HopConfig),
    KdTree(KdTreeConfig),
}

/// A fully configured clustering job: an application, its configuration and a
/// data set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringWorkload {
    config: AppConfig,
    dataset: Dataset,
}

impl ClusteringWorkload {
    /// A k-means job over `dataset` with `config`.
    pub fn kmeans(config: KMeansConfig, dataset: Dataset) -> Self {
        ClusteringWorkload { config: AppConfig::KMeans(config), dataset }
    }

    /// A fuzzy c-means job over `dataset` with `config`.
    pub fn fuzzy(config: FuzzyConfig, dataset: Dataset) -> Self {
        ClusteringWorkload { config: AppConfig::Fuzzy(config), dataset }
    }

    /// A HOP job over `dataset` with `config`.
    pub fn hop(config: HopConfig, dataset: Dataset) -> Self {
        ClusteringWorkload { config: AppConfig::Hop(config), dataset }
    }

    /// A kd-tree build/query job over `dataset` with `config`.
    pub fn kdtree(config: KdTreeConfig, dataset: Dataset) -> Self {
        ClusteringWorkload { config: AppConfig::KdTree(config), dataset }
    }

    /// A job of `kind` over `dataset` with that application's default
    /// configuration (for kmeans and fuzzy, the one for the data set's
    /// cluster count).
    pub fn of_kind(kind: WorkloadKind, dataset: Dataset) -> Self {
        match kind {
            WorkloadKind::KMeans => Self::kmeans(KMeansConfig::for_dataset(&dataset), dataset),
            WorkloadKind::Fuzzy => Self::fuzzy(FuzzyConfig::for_dataset(&dataset), dataset),
            WorkloadKind::Hop => Self::hop(HopConfig::default(), dataset),
            WorkloadKind::KdTree => Self::kdtree(KdTreeConfig::default(), dataset),
        }
    }

    /// The application kind.
    pub fn kind(&self) -> WorkloadKind {
        match self.config {
            AppConfig::KMeans(_) => WorkloadKind::KMeans,
            AppConfig::Fuzzy(_) => WorkloadKind::Fuzzy,
            AppConfig::Hop(_) => WorkloadKind::Hop,
            AppConfig::KdTree(_) => WorkloadKind::KdTree,
        }
    }

    /// The data set in use.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Override the reduction strategy of the job's element-wise merging
    /// phase (kmeans, fuzzy, kdtree; hop's hashed merge has no strategy
    /// axis, so a hop job is returned unchanged).
    pub fn with_reduction(mut self, strategy: ReductionStrategy) -> Self {
        match &mut self.config {
            AppConfig::KMeans(config) => config.reduction = strategy,
            AppConfig::Fuzzy(config) => config.reduction = strategy,
            AppConfig::KdTree(config) => config.reduction = strategy,
            AppConfig::Hop(_) => {}
        }
        self
    }

    /// Run the job once at `threads` threads and return its phase profile.
    pub fn run(&self, threads: usize) -> RunProfile {
        let data = &self.dataset;
        match self.config {
            AppConfig::KMeans(config) => KMeans::new(config).run(data, threads).1,
            AppConfig::Fuzzy(config) => FuzzyCMeans::new(config).run(data, threads).1,
            AppConfig::Hop(config) => Hop::new(config).run(data, threads).1,
            AppConfig::KdTree(config) => KdTreeWorkload::new(config).run(data, threads).1,
        }
    }
}

/// Run the job at every thread count in `thread_counts` and collect the
/// profiles, one per thread count.
pub fn run_sweep(workload: &ClusteringWorkload, thread_counts: &[usize]) -> Vec<RunProfile> {
    thread_counts.iter().map(|&t| workload.run(t)).collect()
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
    use mp_model::calibrate::RunAccounting;
    use mp_model::phase::PhaseKind;

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
    }

    #[test]
    fn default_thread_sweep_is_powers_of_two() {
        assert_eq!(default_thread_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(default_thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(default_thread_sweep(1), vec![1]);
    }

    #[test]
    fn run_produces_named_profiles() {
        for kind in WorkloadKind::all() {
            let job = ClusteringWorkload::of_kind(kind, tiny());
            let profile = job.run(2);
            assert_eq!(profile.app, kind.name());
            assert_eq!(profile.threads, 2);
            let run = profile.to_measured_run();
            assert!(run.total_seconds() > 0.0, "{kind:?}");
            assert!(run.parallel_seconds > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn sweep_profiles_feed_parameter_extraction() {
        let job = ClusteringWorkload::of_kind(WorkloadKind::KMeans, tiny());
        let profiles = run_sweep(&job, &[1, 2, 4]);
        assert_eq!(profiles.len(), 3);
        assert!(profiles.iter().all(|p| p.app == "kmeans"));
        let runs: Vec<_> = profiles.iter().map(RunProfile::to_measured_run).collect();
        let params = RunAccounting::from_runs(&runs).unwrap();
        assert!(params.f > 0.5, "parallel fraction should dominate, got {}", params.f);
        assert!(params.fcon >= 0.0 && params.fcon <= 1.0);
        assert!(params.fred >= 0.0 && params.fred <= 1.0);
    }

    #[test]
    fn with_reduction_sets_the_held_config() {
        let strategy = ReductionStrategy::ParallelPrivatized;
        for kind in WorkloadKind::all() {
            let job = ClusteringWorkload::of_kind(kind, tiny()).with_reduction(strategy);
            assert_eq!(job.kind(), kind);
            match job.config {
                AppConfig::KMeans(config) => assert_eq!(config.reduction, strategy),
                AppConfig::Fuzzy(config) => assert_eq!(config.reduction, strategy),
                AppConfig::KdTree(config) => assert_eq!(config.reduction, strategy),
                AppConfig::Hop(config) => assert_eq!(config, HopConfig::default()),
            }
        }
    }

    #[test]
    fn a_job_runs_the_config_it_was_built_with() {
        let data = tiny();
        let config = KMeansConfig { max_iters: 3, threshold: -1.0, ..KMeansConfig::default() };
        let job = ClusteringWorkload::kmeans(config, data);
        assert_eq!(job.kind(), WorkloadKind::KMeans);
        let merges = job.run(2).records.iter().filter(|r| r.kind == PhaseKind::Reduction).count();
        assert_eq!(merges, 3, "one merge per iteration of the job's own config");
    }
}
