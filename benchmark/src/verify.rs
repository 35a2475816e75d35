//! The correctness gate: a reference computed through the slow per-scenario
//! path, and a digest every measured answer is compared against.

use mp_dse::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-64 digest of a record list over `(index, speedup bits, cores bits,
/// area bits)`. Each field runs down its own FNV-1a lane, one 64-bit word
/// per step, so the four multiplies of a record are independent; the lanes
/// are folded at the end. Order- and bit-sensitive: `-0.0`, a different NaN
/// payload or two swapped records all change it.
pub fn digest(records: &[EvalRecord]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    for record in records {
        let words = [
            record.index as u64,
            record.speedup.to_bits(),
            record.cores.to_bits(),
            record.area.to_bits(),
        ];
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        }
    }
    lanes
        .iter()
        .fold(FNV_OFFSET ^ records.len() as u64, |h, lane| (h ^ lane).wrapping_mul(FNV_PRIME))
}

/// FNV-64 digest of a byte string, eight bytes per step.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    for &byte in chunks.remainder() {
        hash = (hash ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What every answer over one space must equal, bit for bit.
pub struct Reference {
    pub records: Vec<EvalRecord>,
    pub digest: u64,
}

impl Reference {
    /// Evaluate `space` one scenario at a time through
    /// [`EvalBackend::evaluate`] and the scenario's own geometry — none of
    /// the table columns, batch kernels or lane code a sweep runs through.
    pub fn compute(space: &ScenarioSpace, backend: &dyn EvalBackend) -> Reference {
        let records: Vec<EvalRecord> = (0..space.len())
            .map(|index| {
                let scenario = space.scenario(index);
                let speedup = if scenario.design.fits(scenario.budget) {
                    backend.evaluate(&scenario).unwrap_or(f64::NAN)
                } else {
                    f64::NAN
                };
                EvalRecord { index, speedup, cores: scenario.cores(), area: scenario.area() }
            })
            .collect();
        let digest = digest(&records);
        Reference { records, digest }
    }

    /// Whether `records` is exactly the reference's record list.
    pub fn matches(&self, records: &[EvalRecord]) -> bool {
        records.len() == self.records.len() && digest(records) == self.digest
    }
}

/// Whether two record lists agree bit for bit (used for the short `top_k`
/// and `pareto` answers, where `==` on floats would call two NaNs unequal
/// and `-0.0` equal to `0.0`).
pub fn same_records(a: &[EvalRecord], b: &[EvalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.index == y.index
                && x.speedup.to_bits() == y.speedup.to_bits()
                && x.cores.to_bits() == y.cores.to_bits()
                && x.area.to_bits() == y.area.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, speedup: f64) -> EvalRecord {
        EvalRecord { index, speedup, cores: 16.0, area: 4.0 }
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_order_and_bits() {
        let records = [record(0, 1.5), record(1, f64::NAN), record(2, 0.0)];
        // Pinned: a changed digest function would silently accept stale
        // expectations recorded elsewhere.
        assert_eq!(digest(&records), 0x13ba_fc36_9326_855d);
        assert_eq!(digest(&[]), 0x230c_a16e_2163_8695);
        let base = digest(&records);
        let swapped = [records[1], records[0], records[2]];
        assert_ne!(digest(&swapped), base);
        let negative_zero = [records[0], records[1], record(2, -0.0)];
        assert_ne!(digest(&negative_zero), base);
        let other_nan = [records[0], record(1, f64::from_bits(f64::NAN.to_bits() | 1)), records[2]];
        assert_ne!(digest(&other_nan), base);
        assert_ne!(digest(&records[..2]), base);
    }

    #[test]
    fn byte_digest_covers_the_tail_and_the_length() {
        assert_ne!(digest_bytes(b"12345678"), digest_bytes(b"123456789"));
        assert_ne!(digest_bytes(b"123456789"), digest_bytes(b"12345678A"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
        assert_eq!(digest_bytes(b"abcdefghij"), digest_bytes(b"abcdefghij"));
    }

    #[test]
    fn reference_matches_an_engine_sweep_and_rejects_a_flipped_bit() {
        let space = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..40).map(|i| 1.0 + i as f64 * 7.0))
            .add_asymmetric_grid([1.0, 4.0], [8.0, 512.0]);
        let reference = Reference::compute(&space, &AnalyticBackend);
        let mut swept = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        assert!(swept.records.iter().any(|r| !r.is_valid()), "the grid includes unfit designs");
        assert!(reference.matches(&swept.records));
        assert!(same_records(&reference.records, &swept.records));
        let bits = swept.records[3].speedup.to_bits();
        swept.records[3].speedup = f64::from_bits(bits ^ 1);
        assert!(!reference.matches(&swept.records));
        assert!(!same_records(&reference.records, &swept.records));
    }
}
