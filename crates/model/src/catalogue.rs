//! Fingerprint-keyed registry of calibrated application parameter sets.
//!
//! A [`CatalogueRegistry`] gives every [`CalibratedParams`] a stable,
//! content-derived identifier — its [`CalibratedParams::fingerprint`] — so
//! that long-lived services and their clients can address calibrations by id
//! instead of shipping whole parameter sets back and forth. Two calibrations
//! with identical content always share an id (registration deduplicates), and
//! an id never changes meaning: it is a pure function of the calibration's
//! parameters, growth fit and measured multipliers.

use crate::calibrate::CalibratedParams;

/// An id-addressable collection of calibrations.
///
/// Ids are the 64-bit content fingerprints of the entries, rendered as fixed
/// 16-digit lower-case hex where a string form is needed (wire protocols,
/// reports) — see [`CatalogueRegistry::format_id`] / `parse_id`.
#[derive(Debug, Clone, Default)]
pub struct CatalogueRegistry {
    entries: Vec<CalibratedParams>,
}

impl CatalogueRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CatalogueRegistry { entries: Vec::new() }
    }

    /// A registry seeded with `calibrations` (deduplicated by fingerprint).
    pub fn from_calibrations(calibrations: impl IntoIterator<Item = CalibratedParams>) -> Self {
        let mut registry = CatalogueRegistry::new();
        for calibration in calibrations {
            registry.register(calibration);
        }
        registry
    }

    /// Register a calibration and return its id. Re-registering identical
    /// content is a no-op returning the existing id.
    pub fn register(&mut self, calibration: CalibratedParams) -> u64 {
        let id = calibration.fingerprint();
        if self.get(id).is_none() {
            self.entries.push(calibration);
        }
        id
    }

    /// Look up a calibration by id.
    pub fn get(&self, id: u64) -> Option<&CalibratedParams> {
        self.entries.iter().find(|c| c.fingerprint() == id)
    }

    /// Every registered calibration, in registration order.
    pub fn entries(&self) -> &[CalibratedParams] {
        &self.entries
    }

    /// The ids of every entry, in registration order.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.iter().map(|c| c.fingerprint()).collect()
    }

    /// Number of registered calibrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render an id in its canonical string form (16 hex digits). JSON
    /// numbers are `f64`-backed in this workspace's serialisation, so 64-bit
    /// ids always travel as strings.
    pub fn format_id(id: u64) -> String {
        format!("{id:016x}")
    }

    /// Parse an id previously rendered by [`CatalogueRegistry::format_id`].
    pub fn parse_id(id: &str) -> Option<u64> {
        (id.len() == 16).then(|| u64::from_str_radix(id, 16).ok()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::MeasuredRun;

    fn calibration(name: &str, f: f64) -> CalibratedParams {
        let s = 1.0 - f;
        let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8]
            .iter()
            .map(|&p| {
                MeasuredRun::new(p, f / p as f64, s * 0.5, s * 0.5 * (1.0 + 0.4 * (p as f64 - 1.0)))
            })
            .collect();
        CalibratedParams::fit(name, &runs).unwrap()
    }

    #[test]
    fn registration_is_id_stable_and_deduplicating() {
        let mut registry = CatalogueRegistry::new();
        let a = calibration("alpha", 0.99);
        let id = registry.register(a.clone());
        assert_eq!(registry.register(a.clone()), id);
        assert_eq!(registry.len(), 1);
        assert_eq!(id, a.fingerprint());
        assert_eq!(registry.get(id).unwrap().app_params().name, "alpha");
        assert!(registry.get(id ^ 1).is_none());
    }

    #[test]
    fn distinct_content_gets_distinct_ids() {
        let registry = CatalogueRegistry::from_calibrations([
            calibration("alpha", 0.99),
            calibration("beta", 0.95),
        ]);
        let ids = registry.ids();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn id_strings_round_trip() {
        let id = calibration("alpha", 0.99).fingerprint();
        let text = CatalogueRegistry::format_id(id);
        assert_eq!(text.len(), 16);
        assert_eq!(CatalogueRegistry::parse_id(&text), Some(id));
        assert_eq!(CatalogueRegistry::parse_id("zz"), None);
        assert_eq!(CatalogueRegistry::parse_id("nothexnothexnot!"), None);
    }
}
