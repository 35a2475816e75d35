//! Shared CLI argument validation for the `repro` subcommands.
//!
//! Every count-valued flag goes through [`parse_count`], which rejects the
//! values `usize::parse` would happily accept but the commands cannot
//! honour: zero (an engine with no threads, a report of no rows), numbers
//! large enough to be typos (a million worker threads), and anything
//! non-numeric — each with a message naming the flag and the accepted range.

/// Ceiling for thread/shard/client counts: far above any real machine, low
/// enough to catch `--threads 1000000` typos before they spawn a machine-
/// crushing number of OS threads.
pub const MAX_PARALLEL: usize = 4096;

/// Ceiling for report sizes (`--top`) and per-request chunk sizes.
pub const MAX_COUNT: usize = 100_000_000;

/// Parse a count-valued flag, requiring `min ..= max`.
pub fn parse_count(flag: &str, value: &str, min: usize, max: usize) -> Result<usize, String> {
    let parsed: usize =
        value.parse().map_err(|_| format!("{flag} needs an integer, got `{value}`"))?;
    if parsed < min {
        return Err(format!("{flag} must be at least {min}, got {parsed}"));
    }
    if parsed > max {
        return Err(format!("{flag} must be at most {max}, got {parsed}"));
    }
    Ok(parsed)
}

/// Parse a worker/shard/client count: `1 ..= MAX_PARALLEL`.
pub fn parse_parallelism(flag: &str, value: &str) -> Result<usize, String> {
    parse_count(flag, value, 1, MAX_PARALLEL)
}

/// Construct an evaluation backend by its CLI name — the single mapping
/// shared by the `dse`, `serve` and `load` subcommands. `load` verifies
/// server responses against a local reference sweep, so the reference and
/// the server **must** build their backends identically; one constructor
/// makes divergence impossible. The `measured` backend is parameterised by
/// the deterministic synthetic catalogue calibrations
/// ([`crate::dse_cmd::synthetic_calibrations`]).
pub fn backend_by_name(
    name: &str,
) -> Result<std::sync::Arc<dyn mp_dse::backend::EvalBackend + Send + Sync>, String> {
    use mp_dse::backend::{AnalyticBackend, CommBackend, MeasuredBackend, SimBackend};
    match name {
        "analytic" => Ok(std::sync::Arc::new(AnalyticBackend)),
        "comm" => Ok(std::sync::Arc::new(CommBackend::new())),
        "sim" => Ok(std::sync::Arc::new(SimBackend::new())),
        "measured" => {
            Ok(std::sync::Arc::new(MeasuredBackend::new(crate::dse_cmd::synthetic_calibrations())))
        }
        other => {
            Err(format!("unknown backend `{other}` (expected analytic, comm, sim or measured)"))
        }
    }
}

/// Bitwise record-list equality: the same length, and every record's
/// index, speedup, cores and area bits equal. The one parity verdict of
/// `dse`'s re-run check, `load`'s differential check and `job --verify`.
pub fn records_identical(a: &[mp_dse::EvalRecord], b: &[mp_dse::EvalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.index == y.index
                && x.speedup.to_bits() == y.speedup.to_bits()
                && x.cores.to_bits() == y.cores.to_bits()
                && x.area.to_bits() == y.area.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_identical_compares_every_field_and_the_lengths() {
        let record = |index: usize| mp_dse::EvalRecord {
            index,
            speedup: 1.5 + index as f64,
            cores: 16.0,
            area: 256.0,
        };
        let first: Vec<_> = (0..4).map(record).collect();
        assert!(records_identical(&first, &first.clone()));
        let mut cores = first.clone();
        cores[2].cores = f64::from_bits(cores[2].cores.to_bits() ^ 1);
        assert!(!records_identical(&first, &cores), "records differing only in cores");
        let mut area = first.clone();
        area[3].area = 128.0;
        assert!(!records_identical(&first, &area), "records differing only in area");
        assert!(!records_identical(&first, &first[..3]), "a shorter second pass");
        assert!(!records_identical(&first[..3], &first), "a longer second pass");
        assert!(records_identical(&[], &[]));
    }

    #[test]
    fn rejects_zero_overflow_and_garbage_with_named_messages() {
        let zero = parse_parallelism("--threads", "0").unwrap_err();
        assert!(zero.contains("--threads") && zero.contains("at least 1"), "{zero}");
        let huge = parse_parallelism("--threads", "1000000").unwrap_err();
        assert!(huge.contains("at most 4096"), "{huge}");
        let overflow = parse_parallelism("--threads", "18446744073709551616").unwrap_err();
        assert!(overflow.contains("integer"), "{overflow}");
        let garbage = parse_count("--top", "ten", 1, MAX_COUNT).unwrap_err();
        assert!(garbage.contains("--top") && garbage.contains("`ten`"), "{garbage}");
        assert_eq!(parse_parallelism("--threads", "8"), Ok(8));
        assert_eq!(parse_count("--top", "1", 1, MAX_COUNT), Ok(1));
    }
}
