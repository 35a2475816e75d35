//! Memoising evaluation cache: one hash map behind one reader-writer lock.
//!
//! Keys are the 128-bit canonical scenario fingerprints of
//! [`crate::scenario::Scenario::canonical_key`]; values are the raw bit
//! patterns of the evaluated speedup, so cached and uncached sweeps are
//! **bit-identical** by construction (`NaN` markers for invalid scenarios
//! round-trip too).
//!
//! ## Structure
//!
//! One `HashMap<(u64, u64), u64>` behind one `RwLock`. A sweep talks to it
//! once per batch, not once per key: [`EvalCache::get_batch`] probes a whole
//! batch under one read lock and [`EvalCache::insert_batch`] back-fills one
//! under one write lock. The key words are already FNV-64 outputs, so the
//! map's hasher only folds them together. [`EvalCache::reserve`] pre-sizes
//! the map so a sweep of known size (the engine reserves `space.len()` up
//! front) never grows mid-run.
//!
//! The cache serialises to JSON (hex-encoded keys and value bits) so a sweep
//! can warm-start from a previous process — see [`EvalCache::save_json`] /
//! [`EvalCache::load_json`] — and to a length-prefixed, CRC-guarded binary
//! **segment** format ([`EvalCache::save_segment`] /
//! [`EvalCache::load_segment`]) sized for the checkpoint spills of durable
//! sweep jobs: a 214k-entry segment is ~5 MB and reloads in milliseconds
//! where the JSON path re-parses hex strings. Both loaders validate the
//! whole document before inserting anything and report a typed
//! [`CacheLoadError`]; a corrupt or torn file degrades to a cold cache,
//! never a panic or a half-populated cache.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use mp_obs::metrics::{Counter, Registry};

type Map = HashMap<(u64, u64), u64, KeyHash>;

/// The map's hasher. Both key words are FNV-64 outputs already, so hashing
/// them again would buy nothing: a key hashes to its first word rotated by
/// half a word, XOR its second, which keeps well-mixed bits at both ends.
/// Like any unkeyed hash it does not resist keys crafted to collide; the
/// engine's keys are fingerprints it computes itself (or reloads from
/// segments it saved), not words a client sends.
#[derive(Default)]
struct KeyHash;

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

/// State of one [`KeyHash`] hash: a `(u64, u64)` key arrives as two words.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(u64::from(byte)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A memoisation cache for scenario evaluations, shared by a sweep's
/// workers.
pub struct EvalCache {
    map: RwLock<Map>,
    /// Its registry's `cache_hits` and `cache_misses`, which the engine
    /// bumps once per batch: scenarios served from the cache, and scenarios
    /// the backend computed. The cache itself only reads them.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// Entries stored, and write-locked sections that grew the map: an
    /// engine's cache counts them once, on its registry's `cache_inserts`
    /// and `cache_migrations`.
    inserts: Arc<Counter>,
    migrations: Arc<Counter>,
}

/// Snapshot of a cache's warm-start state — see [`EvalCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Entries the map holds before it next grows.
    pub capacity: usize,
    /// Scenarios served from the cache since construction (`cache_hits`).
    pub hits: u64,
    /// Scenarios the backend computed since construction, whether or not
    /// the sweep went through the cache (`cache_misses`).
    pub misses: u64,
    /// Entries stored (single and batched) since construction.
    pub inserts: u64,
    /// Map growths since construction.
    pub migrations: u64,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache::registered_in(&Registry::new())
    }

    /// An empty cache on `registry`'s `cache_hits`, `cache_misses`,
    /// `cache_inserts` and `cache_migrations` series — an engine's cache.
    pub(crate) fn registered_in(registry: &Registry) -> Self {
        EvalCache {
            map: RwLock::new(Map::default()),
            hits: registry.counter("cache_hits"),
            misses: registry.counter("cache_misses"),
            inserts: registry.counter("cache_inserts"),
            migrations: registry.counter("cache_migrations"),
        }
    }

    /// An empty cache pre-sized for `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        let cache = EvalCache::new();
        cache.reserve(entries);
        cache
    }

    /// Run `f` on the map under the write lock, counting a map growth if it
    /// grew.
    fn write(&self, f: impl FnOnce(&mut Map)) {
        let mut map = self.map.write();
        let capacity = map.capacity();
        f(&mut map);
        if map.capacity() > capacity {
            self.migrations.inc();
        }
    }

    /// Pre-size the map so `entries` entries **in total** fit without
    /// growing: large sweeps reserve their scenario count up front and the
    /// hot loop then never rehashes mid-run. Unlike `HashMap::reserve`, the
    /// entries already cached count towards `entries`, so re-reserving a
    /// warm cache for the sweep that filled it is a no-op.
    pub fn reserve(&self, entries: usize) {
        self.write(|map| map.reserve(entries.saturating_sub(map.len())));
    }

    /// Entries the map holds before it next grows.
    pub fn capacity(&self) -> usize {
        self.map.read().capacity()
    }

    /// Probe a whole batch: hits fill `speedups`, misses mark `holes`
    /// (slots whose key is absent are left untouched otherwise). Returns the
    /// number of misses. Equivalent to a per-key [`EvalCache::peek`] loop,
    /// but the batch takes the read lock once: per key, the lock word would
    /// bounce between every sweep worker once per scenario. Panics if the
    /// slices differ in length.
    pub fn get_batch(
        &self,
        keys: &[(u64, u64)],
        speedups: &mut [f64],
        holes: &mut [bool],
    ) -> usize {
        assert_eq!(keys.len(), speedups.len(), "one speedup slot per key");
        assert_eq!(keys.len(), holes.len(), "one hole flag per key");
        let mut missing = 0usize;
        let map = self.map.read();
        for ((key, speedup), hole) in keys.iter().zip(speedups).zip(holes) {
            match map.get(key) {
                Some(&bits) => *speedup = f64::from_bits(bits),
                None => {
                    *hole = true;
                    missing += 1;
                }
            }
        }
        missing
    }

    /// Look up one cached speedup.
    pub fn peek(&self, key: (u64, u64)) -> Option<f64> {
        self.map.read().get(&key).copied().map(f64::from_bits)
    }

    /// Store an evaluated speedup (bit pattern preserved, NaNs included).
    pub fn insert(&self, key: (u64, u64), speedup: f64) {
        self.inserts.inc();
        self.write(|map| {
            map.insert(key, speedup.to_bits());
        });
    }

    /// Store a batch of evaluated speedups. Equivalent to calling
    /// [`EvalCache::insert`] per entry, but the whole batch takes the write
    /// lock once: on the sweep's cold back-fill path that is one
    /// synchronisation per batch instead of one per scenario. Panics if the
    /// slices differ in length.
    pub fn insert_batch(&self, keys: &[(u64, u64)], speedups: &[f64]) {
        assert_eq!(keys.len(), speedups.len(), "one speedup per key");
        self.inserts.add(keys.len() as u64);
        self.write(|map| {
            for (&key, &speedup) in keys.iter().zip(speedups) {
                map.insert(key, speedup.to_bits());
            }
        });
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries stored (single and batched) since construction. Counts
    /// insert *calls*; overwrites of duplicate keys are not
    /// distinguished.
    pub fn inserts(&self) -> u64 {
        self.inserts.value()
    }

    /// Map growths since construction: write-locked sections (an insert, a
    /// batch, a reserve or a load) that grew the map.
    pub fn migrations(&self) -> u64 {
        self.migrations.value()
    }

    /// One consistent-enough snapshot of the cache's warm-start state:
    /// entry/capacity footprint plus its registry's four cache series — the
    /// same values the `metrics` verb exports. Cheap to take (one read lock
    /// plus counter reads) and safe concurrently with sweeps — the counters
    /// may lag in-flight batches, which is fine for the service stats and
    /// hit-rate reporting this feeds.
    pub fn stats(&self) -> CacheStats {
        let (entries, capacity) = {
            let map = self.map.read();
            (map.len(), map.capacity())
        };
        CacheStats {
            entries,
            capacity,
            hits: self.hits.value(),
            misses: self.misses.value(),
            inserts: self.inserts(),
            migrations: self.migrations(),
        }
    }

    /// The version tag stamped into persisted caches: the mp-dse crate
    /// version. Bumping the workspace version invalidates every persisted
    /// cache, so stale files cannot replay results an older build produced.
    pub fn format_version() -> String {
        format!("mp-dse-cache/{}", env!("CARGO_PKG_VERSION"))
    }

    /// Serialise every entry as JSON: a `[version, entries]` pair where the
    /// entries are `[key_hi, key_lo, value_bits]` hex-string triplets (hex so
    /// no `f64` precision is lost in transit).
    pub fn save_json(&self) -> String {
        let entries: Vec<(String, String, String)> = self
            .sorted_entries()
            .into_iter()
            .map(|((hi, lo), bits)| {
                (format!("{hi:016x}"), format!("{lo:016x}"), format!("{bits:016x}"))
            })
            .collect();
        serde_json::to_string(&(Self::format_version(), entries))
            .expect("cache entries always serialise")
    }

    /// Load entries previously produced by [`EvalCache::save_json`] into this
    /// cache (existing entries are kept; duplicates are overwritten).
    ///
    /// # Errors
    /// Returns [`CacheLoadError::VersionMismatch`] when the file was
    /// persisted by a different build lineage (it must not replay its
    /// results), or [`CacheLoadError::Malformed`] describing the first bad
    /// entry. The whole document is validated before anything is inserted,
    /// so a partially corrupt file leaves the cache untouched instead of
    /// half-loaded.
    pub fn load_json(&self, json: &str) -> Result<usize, CacheLoadError> {
        let (version, entries): (String, Vec<(String, String, String)>) =
            serde_json::from_str(json).map_err(|e| CacheLoadError::Malformed(e.to_string()))?;
        Self::check_version(&version)?;
        let mut parsed = Vec::with_capacity(entries.len());
        for (hi, lo, bits) in entries {
            let field = |s: &str| {
                u64::from_str_radix(s, 16)
                    .map_err(|e| CacheLoadError::Malformed(format!("bad hex `{s}`: {e}")))
            };
            parsed.push(((field(&hi)?, field(&lo)?), field(&bits)?));
        }
        self.insert_validated(&parsed);
        Ok(parsed.len())
    }

    /// Serialise every entry in the binary **segment** format: the compact,
    /// checksummed form the durable-job checkpoints spill every K windows
    /// (24 bytes per entry instead of ~60 of JSON hex, no parse on reload).
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// magic   8 bytes   b"MPSEGV1\0"
    /// vlen    u32       length of the version string
    /// version vlen      `EvalCache::format_version()` bytes
    /// count   u64       entry count N
    /// entries 24 × N    key_hi u64 | key_lo u64 | value_bits u64
    /// crc     u32       CRC-32 (IEEE) of every preceding byte
    /// ```
    ///
    /// Entries are sorted, so equal cache contents serialise to equal bytes.
    pub fn save_segment(&self) -> Vec<u8> {
        let entries = self.sorted_entries();
        let version = Self::format_version();
        let mut bytes =
            Vec::with_capacity(SEGMENT_MAGIC.len() + 12 + version.len() + entries.len() * 24 + 4);
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&(version.len() as u32).to_le_bytes());
        bytes.extend_from_slice(version.as_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for ((hi, lo), value) in entries {
            bytes.extend_from_slice(&hi.to_le_bytes());
            bytes.extend_from_slice(&lo.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Load a segment previously produced by [`EvalCache::save_segment`]
    /// (existing entries are kept; duplicates are overwritten).
    ///
    /// # Errors
    /// A file truncated at **any** byte boundary — the torn write a crash
    /// mid-spill leaves behind — is reported as [`CacheLoadError::Truncated`]
    /// (the length prefix claims more than is present) or
    /// [`CacheLoadError::Checksum`] (the CRC no longer covers what it
    /// guards); flipped bytes fail the CRC; foreign files fail the magic;
    /// stale files fail the version check. Nothing is inserted on any error.
    pub fn load_segment(&self, bytes: &[u8]) -> Result<usize, CacheLoadError> {
        let truncated =
            |expected: usize| CacheLoadError::Truncated { expected, actual: bytes.len() };
        let header = SEGMENT_MAGIC.len() + 4;
        if bytes.len() < header {
            return Err(truncated(header));
        }
        if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(CacheLoadError::Malformed("not a cache segment (bad magic)".to_string()));
        }
        let vlen = u32::from_le_bytes(
            bytes[SEGMENT_MAGIC.len()..header].try_into().expect("4 bytes sliced"),
        ) as usize;
        // Guard the arithmetic below against absurd prefixes before using
        // them as lengths.
        if vlen > 1024 {
            return Err(CacheLoadError::Malformed(format!("implausible version length {vlen}")));
        }
        if bytes.len() < header + vlen + 8 {
            return Err(truncated(header + vlen + 8));
        }
        let version = std::str::from_utf8(&bytes[header..header + vlen])
            .map_err(|_| CacheLoadError::Malformed("version string is not UTF-8".to_string()))?;
        Self::check_version(version)?;
        let count = u64::from_le_bytes(
            bytes[header + vlen..header + vlen + 8].try_into().expect("8 bytes sliced"),
        );
        let body = header + vlen + 8;
        let expected = body
            .checked_add((count as usize).checked_mul(24).ok_or_else(|| {
                CacheLoadError::Malformed(format!("implausible entry count {count}"))
            })?)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| CacheLoadError::Malformed(format!("implausible entry count {count}")))?;
        if bytes.len() < expected {
            return Err(truncated(expected));
        }
        if bytes.len() > expected {
            return Err(CacheLoadError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - expected
            )));
        }
        let stored = u32::from_le_bytes(bytes[expected - 4..].try_into().expect("4 bytes sliced"));
        let computed = crc32(&bytes[..expected - 4]);
        if stored != computed {
            return Err(CacheLoadError::Checksum { stored, computed });
        }
        let mut parsed = Vec::with_capacity(count as usize);
        for chunk in bytes[body..expected - 4].chunks_exact(24) {
            let word = |i: usize| {
                u64::from_le_bytes(chunk[i * 8..(i + 1) * 8].try_into().expect("8 bytes sliced"))
            };
            parsed.push(((word(0), word(1)), word(2)));
        }
        self.insert_validated(&parsed);
        Ok(parsed.len())
    }

    fn check_version(version: &str) -> Result<(), CacheLoadError> {
        if version == Self::format_version() {
            Ok(())
        } else {
            Err(CacheLoadError::VersionMismatch {
                found: version.to_string(),
                expected: Self::format_version(),
            })
        }
    }

    /// Every entry, sorted by key: equal contents give equal order whatever
    /// the map's iteration order (shared head of both savers).
    fn sorted_entries(&self) -> Vec<((u64, u64), u64)> {
        let mut entries: Vec<_> = self.map.read().iter().map(|(&key, &bits)| (key, bits)).collect();
        entries.sort_unstable();
        entries
    }

    /// Bulk-insert fully validated entries (shared tail of both loaders).
    fn insert_validated(&self, entries: &[((u64, u64), u64)]) {
        self.write(|map| {
            map.reserve(entries.len().saturating_sub(map.len()));
            map.extend(entries.iter().copied());
        });
    }
}

/// Magic prefix of the binary segment format ([`EvalCache::save_segment`]).
const SEGMENT_MAGIC: &[u8; 8] = b"MPSEGV1\0";

/// Why a persisted cache (JSON or binary segment) was refused. Every
/// variant means "start cold", never "panic": loaders validate the whole
/// file before touching the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoadError {
    /// The document or segment could not be parsed (bad JSON, bad magic,
    /// non-hex fields, trailing bytes).
    Malformed(String),
    /// The file was persisted by a different build lineage and must not
    /// replay its results.
    VersionMismatch {
        /// The version tag found in the file.
        found: String,
        /// This build's [`EvalCache::format_version`].
        expected: String,
    },
    /// The segment is shorter than its own header and length prefix claim —
    /// the torn write a crash mid-spill leaves behind.
    Truncated {
        /// Bytes the header claims the segment holds.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The CRC-32 guard does not cover the bytes present.
    Checksum {
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum of the bytes actually read.
        computed: u32,
    },
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Malformed(reason) => write!(f, "malformed cache file: {reason}"),
            CacheLoadError::VersionMismatch { found, expected } => {
                write!(f, "cache version `{found}` does not match this build (`{expected}`)")
            }
            CacheLoadError::Truncated { expected, actual } => {
                write!(f, "cache segment truncated: {actual} of {expected} bytes present")
            }
            CacheLoadError::Checksum { stored, computed } => write!(
                f,
                "cache segment checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

impl std::error::Error for CacheLoadError {}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the guard under
/// the binary cache segments and the durable-job checkpoint manifests.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_round_trips_bitwise() {
        let cache = EvalCache::new();
        cache.insert((9, 9), f64::NAN);
        let got = cache.peek((9, 9)).unwrap();
        assert_eq!(got.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn overwriting_a_key_keeps_one_entry() {
        let cache = EvalCache::new();
        cache.insert((5, 6), 1.0);
        cache.insert((5, 6), 2.0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek((5, 6)), Some(2.0));
    }

    #[test]
    fn growth_keeps_every_entry() {
        let cache = EvalCache::new();
        // Many growths past the empty map, with keys whose first words share
        // their low bits.
        let n = 40_000u64;
        for i in 0..n {
            cache.insert((i * 32, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i as f64);
        }
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            let got =
                cache.peek((i * 32, i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).unwrap_or(f64::NAN);
            assert_eq!(got.to_bits(), (i as f64).to_bits(), "entry {i} lost in growth");
        }
    }

    #[test]
    fn reserve_presizes_and_prevents_growth() {
        let cache = EvalCache::new();
        cache.reserve(100_000);
        let capacity = cache.capacity();
        assert!(capacity >= 100_000, "got {capacity}");
        for i in 0..100_000u64 {
            cache.insert((i, i * 31), i as f64);
        }
        assert_eq!(cache.capacity(), capacity, "a reserved cache must not grow mid-run");
        assert_eq!(cache.len(), 100_000);
    }

    #[test]
    fn reserve_counts_entries_in_total() {
        let n = 1_000u64;
        let cache = EvalCache::new();
        for i in 0..n {
            cache.insert((i, i * 31), i as f64);
        }
        let capacity = cache.capacity();
        assert!(capacity < 2 * n as usize, "n more entries would not fit: {capacity}");
        cache.reserve(n as usize);
        assert_eq!(cache.capacity(), capacity, "the n cached entries already fit");
        cache.reserve(2 * n as usize);
        let reserved = cache.capacity();
        for i in n..2 * n {
            cache.insert((i, i * 31), i as f64);
        }
        assert_eq!(cache.capacity(), reserved, "2n entries in total fit without growing");
        assert_eq!(cache.len(), 2 * n as usize);
    }

    #[test]
    fn json_round_trip_preserves_bits() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 0.1 + 0.2);
        cache.insert((u64::MAX, 7), f64::NAN);
        cache.insert((3, 4), -0.0);
        let json = cache.save_json();

        let restored = EvalCache::new();
        assert_eq!(restored.load_json(&json).unwrap(), 3);
        assert_eq!(restored.peek((1, 2)).unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(restored.peek((u64::MAX, 7)).unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(restored.peek((3, 4)).unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn partially_malformed_json_loads_nothing() {
        let cache = EvalCache::new();
        // First entry valid, second has non-hex value bits.
        let json = format!(
            r#"["{}",[["0000000000000001","0000000000000002","3ff0000000000000"],["0000000000000003","0000000000000004","zzzz"]]]"#,
            EvalCache::format_version()
        );
        assert!(cache.load_json(&json).is_err());
        assert!(cache.is_empty(), "a failed load must not half-populate the cache");
    }

    #[test]
    fn mismatched_version_loads_nothing() {
        let source = EvalCache::new();
        source.insert((1, 2), 3.5);
        let stale = source.save_json().replace(&EvalCache::format_version(), "mp-dse-cache/0.0.0");
        let cache = EvalCache::new();
        let err = cache.load_json(&stale).unwrap_err();
        assert!(matches!(err, CacheLoadError::VersionMismatch { .. }), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
        assert!(cache.is_empty());
    }

    #[test]
    fn segment_round_trip_preserves_bits_and_matches_json() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 0.1 + 0.2);
        cache.insert((u64::MAX, 7), f64::NAN);
        cache.insert((3, 4), -0.0);
        let segment = cache.save_segment();

        let restored = EvalCache::new();
        assert_eq!(restored.load_segment(&segment).unwrap(), 3);
        assert_eq!(restored.peek((1, 2)).unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(restored.peek((u64::MAX, 7)).unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(restored.peek((3, 4)).unwrap().to_bits(), (-0.0f64).to_bits());
        // The two persistence formats describe the same contents.
        assert_eq!(restored.save_json(), cache.save_json());
        assert_eq!(restored.save_segment(), segment, "segment bytes are deterministic");
    }

    #[test]
    fn segment_truncated_at_any_byte_loads_nothing() {
        let cache = EvalCache::new();
        for i in 0..50u64 {
            cache.insert((i, i * 31), i as f64);
        }
        let segment = cache.save_segment();
        for cut in 0..segment.len() {
            let torn = EvalCache::new();
            let err = torn.load_segment(&segment[..cut]);
            assert!(err.is_err(), "truncation at byte {cut} of {} must fail", segment.len());
            assert!(torn.is_empty(), "truncation at byte {cut} must not half-load");
        }
    }

    #[test]
    fn segment_corruption_and_foreign_files_are_typed_errors() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 3.5);
        let segment = cache.save_segment();

        // A flipped payload byte (inside the last entry, before the CRC
        // trailer) fails the CRC.
        let mut flipped = segment.clone();
        let cut = flipped.len() - 10;
        flipped[cut] ^= 0x40;
        let target = EvalCache::new();
        assert!(matches!(
            target.load_segment(&flipped).unwrap_err(),
            CacheLoadError::Checksum { .. }
        ));
        assert!(target.is_empty());

        // Trailing garbage is rejected, not silently ignored.
        let mut padded = segment.clone();
        padded.extend_from_slice(b"junk");
        assert!(matches!(target.load_segment(&padded).unwrap_err(), CacheLoadError::Malformed(_)));

        // A foreign file fails the magic check.
        assert!(matches!(
            target.load_segment(b"this is not a segment at all").unwrap_err(),
            CacheLoadError::Malformed(_)
        ));
        // An empty file is a truncation, not a panic.
        assert!(matches!(target.load_segment(b"").unwrap_err(), CacheLoadError::Truncated { .. }));
        assert!(target.is_empty());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_is_deterministic() {
        let a = EvalCache::new();
        let b = EvalCache::new();
        for i in 0..100u64 {
            a.insert((i * 31, i), i as f64);
            b.insert(((99 - i) * 31, 99 - i), (99 - i) as f64);
        }
        assert_eq!(a.save_json(), b.save_json());
    }

    #[test]
    fn batched_probes_answer_like_a_peek_loop() {
        let key = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i * 31 + 1);
        let stored: Vec<(u64, u64)> = (0..200).map(key).collect();
        let absent: Vec<(u64, u64)> = (1_000..1_200).map(key).collect();
        let mixed: Vec<(u64, u64)> =
            stored.iter().zip(&absent).flat_map(|(&hit, &miss)| [hit, miss, hit]).collect();
        let cache = EvalCache::new();
        for (i, &key) in stored.iter().enumerate() {
            cache.insert(key, i as f64);
        }
        for (keys, expected_missing) in [(&stored, 0), (&absent, absent.len()), (&mixed, 200)] {
            let mut speedups = vec![f64::NAN; keys.len()];
            let mut holes = vec![false; keys.len()];
            let missing = cache.get_batch(keys, &mut speedups, &mut holes);
            assert_eq!(missing, expected_missing);
            for (i, &key) in keys.iter().enumerate() {
                let got = cache.peek(key);
                assert_eq!(holes[i], got.is_none());
                if let Some(value) = got {
                    assert_eq!(speedups[i].to_bits(), value.to_bits());
                }
            }
        }
        // Probing counts nothing: hits and misses are the engine's to count.
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
    }

    #[test]
    fn len_counts_distinct_keys_across_concurrent_growth_and_overwrites() {
        // Eight threads insert overlapping windows of one key sequence into
        // an unreserved cache, so the map grows while other threads wait to
        // insert and half of all inserts overwrite.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 6_000;
        const STRIDE: u64 = PER_THREAD / 2;
        let key = |i: u64| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cache = EvalCache::new();
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in t * STRIDE..t * STRIDE + PER_THREAD {
                        cache.insert(key(i), i as f64);
                    }
                });
            }
        });
        let distinct = ((THREADS - 1) * STRIDE + PER_THREAD) as usize;
        assert!(cache.migrations() >= 1, "the map must have grown");
        assert_eq!(cache.len(), distinct, "the count survives growth and overwrite");
        assert_eq!(cache.stats().entries, distinct);
        assert!(!cache.is_empty());
        let restored = EvalCache::new();
        assert_eq!(restored.load_segment(&cache.save_segment()).unwrap(), distinct);
        assert_eq!(restored.len(), distinct);
    }

    #[test]
    fn concurrent_inserts_and_probes_stay_consistent() {
        let cache = EvalCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (i * 7 + t * 101, i.rotate_left(17) ^ t);
                        cache.insert(key, (i + t) as f64);
                        if let Some(v) = cache.peek(key) {
                            // A probe may race a concurrent overwrite of the
                            // same key by another thread, but a present value
                            // is always one that was inserted for this key.
                            assert!((0.0..3_000.0).contains(&v));
                        }
                    }
                });
            }
        });
        // Every thread's final inserts are all present afterwards.
        for t in 0..8u64 {
            for i in 0..2_000u64 {
                let key = (i * 7 + t * 101, i.rotate_left(17) ^ t);
                assert!(cache.peek(key).is_some(), "t={t} i={i}");
            }
        }
    }
}
