//! The result each clustering workload computes, pinned bit for bit.
//!
//! `tests/phase_records.rs` pins which phases a run records; this suite pins
//! what the run computes. For every workload it folds each field of the
//! result — every float by its bit pattern — into an FNV-1a digest, at 1, 3,
//! 16 and 64 threads, and for the two tree-building workloads also at 8
//! threads, where the tree-build cap of 4 binds. The per-thread partial sums
//! set the float summation order, so each thread count is pinned on its own
//! (hop merges no float partials and reads the same at every count); at a
//! fixed thread count every field is deterministic. The kmeans and fuzzy
//! results are also pinned under the tree and privatised merges, at 5 and 64
//! threads. 16 and 64 are well above the core count of most hosts, so these
//! pins hold the partials to their thread count, not to the OS threads that
//! compute them.

use merging_phases::prelude::*;

fn data() -> Dataset {
    DatasetSpec::new(240, 3, 3, 0x5EC0).generate()
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, word: u64) -> Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn float(self, v: f64) -> Self {
        self.word(v.to_bits())
    }

    fn floats(self, vs: &[f64]) -> Self {
        vs.iter().fold(self.word(vs.len() as u64), |d, &v| d.float(v))
    }

    fn count(self, n: usize) -> Self {
        self.word(n as u64)
    }

    fn counts(self, ns: &[usize]) -> Self {
        ns.iter().fold(self.word(ns.len() as u64), |d, &n| d.count(n))
    }
}

/// Assert that `digest(threads)` equals the pinned digest at every pinned
/// thread count, reporting every actual digest on a mismatch.
fn assert_pinned(name: &str, pinned: &[(usize, u64)], digest: impl Fn(usize) -> u64) {
    let actual: Vec<(usize, u64)> = pinned.iter().map(|&(t, _)| (t, digest(t))).collect();
    let shown: Vec<String> = actual.iter().map(|(t, d)| format!("({t}, {d:#018x})")).collect();
    assert_eq!(actual, pinned, "{name}: actual digests [{}]", shown.join(", "));
}

fn kmeans_digest(data: &Dataset, reduction: ReductionStrategy, threads: usize) -> u64 {
    let km = KMeans::new(KMeansConfig { reduction, ..KMeansConfig::for_dataset(data) });
    let (r, _) = km.run(data, threads);
    Digest::new().floats(&r.centers).counts(&r.assignments).float(r.sse).count(r.iterations).0
}

fn fuzzy_digest(data: &Dataset, reduction: ReductionStrategy, threads: usize) -> u64 {
    let fcm = FuzzyCMeans::new(FuzzyConfig { reduction, ..FuzzyConfig::for_dataset(data) });
    let (r, _) = fcm.run(data, threads);
    Digest::new()
        .floats(&r.centers)
        .counts(&r.assignments)
        .count(r.iterations)
        .float(r.final_delta)
        .0
}

#[test]
fn kmeans_result_is_pinned() {
    let data = data();
    assert_pinned(
        "kmeans",
        &[
            (1, 0x0233_c3b3_9f56_02a4),
            (3, 0x6836_5956_b6a3_b024),
            (16, 0xe0be_0106_a712_2dfd),
            (64, 0x4a50_5bfa_07fc_9389),
        ],
        |threads| kmeans_digest(&data, ReductionStrategy::SerialLinear, threads),
    );
}

#[test]
fn kmeans_tree_and_privatised_merges_are_pinned() {
    let data = data();
    assert_pinned(
        "kmeans tree",
        &[(5, 0x629a_249b_f7dc_0f81), (64, 0x1912_5d48_28fe_421c)],
        |threads| kmeans_digest(&data, ReductionStrategy::TreeLog, threads),
    );
    assert_pinned(
        "kmeans privatised",
        &[(5, 0xe0be_0106_a712_2dfd), (64, 0x4a50_5bfa_07fc_9389)],
        |threads| kmeans_digest(&data, ReductionStrategy::ParallelPrivatized, threads),
    );
}

#[test]
fn fuzzy_result_is_pinned() {
    let data = data();
    assert_pinned(
        "fuzzy",
        &[
            (1, 0x95b7_ee31_1fa3_2967),
            (3, 0x91bd_c9a5_7182_7120),
            (16, 0x4d41_1541_5447_5a34),
            (64, 0x03a3_fd39_2194_f6e4),
        ],
        |threads| fuzzy_digest(&data, ReductionStrategy::SerialLinear, threads),
    );
}

#[test]
fn fuzzy_tree_and_privatised_merges_are_pinned() {
    let data = data();
    assert_pinned(
        "fuzzy tree",
        &[(5, 0xa96a_ddb2_9d70_69cc), (64, 0x6b8d_0586_0109_f437)],
        |threads| fuzzy_digest(&data, ReductionStrategy::TreeLog, threads),
    );
    assert_pinned(
        "fuzzy privatised",
        &[(5, 0xd51b_2d94_87ef_c314), (64, 0x03a3_fd39_2194_f6e4)],
        |threads| fuzzy_digest(&data, ReductionStrategy::ParallelPrivatized, threads),
    );
}

#[test]
fn hop_result_is_pinned() {
    let data = data();
    let hop = Hop::new(HopConfig::default());
    assert_pinned(
        "hop",
        &[
            (1, 0x58a5_5727_c1ff_2a7f),
            (3, 0x58a5_5727_c1ff_2a7f),
            (8, 0x58a5_5727_c1ff_2a7f),
            (16, 0x58a5_5727_c1ff_2a7f),
            (64, 0x58a5_5727_c1ff_2a7f),
        ],
        |threads| {
            let (r, _) = hop.run(&data, threads);
            Digest::new()
                .counts(&r.group_of)
                .count(r.groups)
                .counts(&r.group_sizes)
                .floats(&r.densities)
                .0
        },
    );
}

#[test]
fn kdtree_result_is_pinned() {
    let data = data();
    let w = KdTreeWorkload::new(KdTreeConfig::default());
    assert_pinned(
        "kdtree",
        &[
            (1, 0x5f56_50e5_181d_3e2f),
            (3, 0x46b0_b4f5_b430_c7a9),
            (8, 0x46b0_b4f5_b430_c7a9),
            (16, 0xb87f_7d77_16eb_02db),
            (64, 0x85d3_316a_d410_7815),
        ],
        |threads| {
            let (r, _) = w.run(&data, threads);
            Digest::new().floats(&r.histogram).float(r.mean_kth_distance).count(r.queries).0
        },
    );
}
