//! Growth functions for the reduction overhead (`grow()` in paper Eq. 4/5).
//!
//! The paper's key observation is that the work in the merging phase is not
//! constant: with `p` threads there are `p` partial results to merge, so the
//! reduction time grows with the thread count. The *shape* of the growth
//! depends on how the merge is implemented:
//!
//! * serial accumulation over all partials → **linear** growth,
//! * pairwise tree combination → **logarithmic** growth,
//! * privatised parallel merge → **constant** computation (growth comes only
//!   from communication; see [`crate::comm`]),
//! * hop's merging phase, dominated by memory accesses, grows **super-linearly**
//!   in the paper's measurements.
//!
//! By construction every growth function satisfies `grow(1) = 0`, so the
//! single-thread execution is the baseline and the overhead is purely the extra
//! work caused by scaling.

use serde::{Deserialize, Serialize};

/// Growth of the reduction *overhead* as a function of the number of threads
/// participating in the merging phase.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum GrowthFunction {
    /// No growth: the merging phase costs the same regardless of thread count.
    /// This degenerates the extended model to plain Amdahl/Hill–Marty.
    Constant,
    /// Linear growth, `grow(p) = p - 1`: a serial loop over per-thread partial
    /// results (the kmeans merging loop of paper Algorithm 1).
    #[default]
    Linear,
    /// Logarithmic growth, `grow(p) = log2(p)`: a balanced combining tree.
    Logarithmic,
    /// Super-linear growth, `grow(p) = (p - 1)^exponent` with `exponent >= 1`:
    /// the paper observes this for hop, attributing it to memory accesses in the
    /// merging phase (Section V-A, `fored = 155 %`).
    Superlinear(
        /// Exponent of the super-linear growth (1.0 reduces to `Linear`).
        f64,
    ),
    /// Piecewise-linear interpolation over measured `(threads, growth)` points.
    /// Used when the growth has been measured empirically (e.g. extracted from
    /// the simulator) rather than assumed. Points must be sorted by thread
    /// count; queries outside the range are clamped/extrapolated linearly from
    /// the last segment.
    Measured(
        /// Measured `(threads, grow(threads))` samples, sorted by thread count.
        Vec<(f64, f64)>,
    ),
}

impl GrowthFunction {
    /// Evaluate the growth at `threads` participating threads.
    ///
    /// `threads` may be fractional because the analytical designs allow
    /// non-integer core counts (e.g. 256 BCE / 6 BCE cores); the growth
    /// functions are smooth in that argument. Thread counts below one are
    /// clamped to one (no overhead).
    pub fn eval(&self, threads: f64) -> f64 {
        let p = threads.max(1.0);
        match self {
            GrowthFunction::Constant => 0.0,
            GrowthFunction::Linear => p - 1.0,
            GrowthFunction::Logarithmic => p.log2(),
            GrowthFunction::Superlinear(exp) => (p - 1.0).powf(*exp),
            GrowthFunction::Measured(points) => interpolate(points, p),
        }
    }

    /// A short, human-readable name for reports and plot legends.
    pub fn name(&self) -> &'static str {
        match self {
            GrowthFunction::Constant => "constant",
            GrowthFunction::Linear => "linear",
            GrowthFunction::Logarithmic => "log",
            GrowthFunction::Superlinear(_) => "superlinear",
            GrowthFunction::Measured(_) => "measured",
        }
    }

    /// Like [`GrowthFunction::name`], but parameterised variants carry their
    /// parameters, so distinct growth functions always label distinctly:
    /// `"superlinear(1.55)"`, and for measured curves the point count plus a
    /// short content fingerprint, e.g. `"measured(4pts#1a2b3c4d)"`.
    pub fn label(&self) -> String {
        match self {
            GrowthFunction::Superlinear(exp) => format!("superlinear({exp})"),
            GrowthFunction::Measured(points) => {
                // Labels end up in persisted exports (sweep CSV/JSON), so the
                // fingerprint must be stable across toolchains — hence the
                // workspace [`crate::fingerprint::Fnv64`], not std's hasher.
                let mut hasher = crate::fingerprint::Fnv64::new();
                for (x, y) in points {
                    hasher.write_f64(*x);
                    hasher.write_f64(*y);
                }
                format!("measured({}pts#{:08x})", points.len(), hasher.finish() as u32)
            }
            other => other.name().to_string(),
        }
    }
}

/// Piecewise-linear interpolation with linear extrapolation beyond the last
/// sample and clamping before the first one.
fn interpolate(points: &[(f64, f64)], x: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if points.len() == 1 || x <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x <= x1 {
            if (x1 - x0).abs() < f64::EPSILON {
                return y1;
            }
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    // Extrapolate from the last segment.
    let (x0, y0) = points[points.len() - 2];
    let (x1, y1) = points[points.len() - 1];
    if (x1 - x0).abs() < f64::EPSILON {
        y1
    } else {
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_has_no_overhead() {
        for g in [
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.4),
        ] {
            assert_eq!(g.eval(1.0), 0.0, "{g:?}");
        }
    }

    #[test]
    fn linear_growth_counts_extra_partials() {
        let g = GrowthFunction::Linear;
        assert_eq!(g.eval(2.0), 1.0);
        assert_eq!(g.eval(16.0), 15.0);
        assert_eq!(g.eval(256.0), 255.0);
    }

    #[test]
    fn log_growth_matches_tree_depth() {
        let g = GrowthFunction::Logarithmic;
        assert!((g.eval(2.0) - 1.0).abs() < 1e-12);
        assert!((g.eval(16.0) - 4.0).abs() < 1e-12);
        assert!((g.eval(256.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn superlinear_exponent_one_is_linear() {
        let a = GrowthFunction::Superlinear(1.0);
        let b = GrowthFunction::Linear;
        for p in [1.0, 2.0, 7.0, 64.0] {
            assert!((a.eval(p) - b.eval(p)).abs() < 1e-12);
        }
    }

    #[test]
    fn superlinear_grows_faster_than_linear() {
        let a = GrowthFunction::Superlinear(1.3);
        let b = GrowthFunction::Linear;
        for p in [4.0, 16.0, 64.0, 256.0] {
            assert!(a.eval(p) > b.eval(p));
        }
    }

    #[test]
    fn growth_is_monotone_nondecreasing() {
        for g in [
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.55),
        ] {
            let mut prev = -1.0;
            for p in 1..=256 {
                let v = g.eval(p as f64);
                assert!(v >= prev, "{g:?} decreased at p={p}");
                prev = v;
            }
        }
    }

    #[test]
    fn sub_one_thread_counts_clamp() {
        assert_eq!(GrowthFunction::Linear.eval(0.5), 0.0);
        assert_eq!(GrowthFunction::Logarithmic.eval(0.0), 0.0);
    }

    #[test]
    fn measured_interpolates_between_points() {
        let g = GrowthFunction::Measured(vec![(1.0, 0.0), (4.0, 3.0), (8.0, 9.0)]);
        assert_eq!(g.eval(1.0), 0.0);
        assert_eq!(g.eval(4.0), 3.0);
        assert!((g.eval(2.5) - 1.5).abs() < 1e-12);
        assert!((g.eval(6.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn measured_extrapolates_beyond_last_point() {
        let g = GrowthFunction::Measured(vec![(1.0, 0.0), (2.0, 1.0), (4.0, 3.0)]);
        // Last segment slope is 1 per thread.
        assert!((g.eval(8.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn measured_degenerate_inputs() {
        assert_eq!(GrowthFunction::Measured(vec![]).eval(10.0), 0.0);
        assert_eq!(GrowthFunction::Measured(vec![(1.0, 0.5)]).eval(10.0), 0.5);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(GrowthFunction::Linear.name(), "linear");
        assert_eq!(GrowthFunction::Logarithmic.name(), "log");
        assert_eq!(GrowthFunction::Constant.name(), "constant");
    }

    #[test]
    fn default_is_linear() {
        assert_eq!(GrowthFunction::default(), GrowthFunction::Linear);
    }
}
