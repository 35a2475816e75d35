//! Property-based tests of the durable-job persistence formats: the
//! checksummed job manifest and the binary cache segment. The invariants
//! under test are the ones recovery leans on — round-trips are lossless
//! (bit-for-bit, NaNs included), and *any* torn write (truncation at every
//! byte boundary) or flipped byte is detected and reported as an error,
//! never a panic and never a silently half-true record.

// The `proptest!` blocks below expand deeply enough to trip the default
// macro recursion limit.
#![recursion_limit = "512"]

use merging_phases::dse::prelude::*;
use merging_phases::prelude::*;
use mp_dse::engine::space_fingerprint;
use mp_serve::prelude::*;
use proptest::prelude::*;

/// Small spaces (a few hundred scenarios at most) keep the every-byte
/// truncation sweep quadratic-but-cheap.
fn arb_space() -> impl Strategy<Value = ScenarioSpace> {
    (1usize..20, 1usize..=3).prop_map(|(points, apps)| {
        ScenarioSpace::new()
            .with_apps(AppParams::table2_all().into_iter().take(apps).collect::<Vec<_>>())
            .clear_designs()
            .add_symmetric_grid((0..points).map(|i| 1.0 + i as f64 * 0.5))
    })
}

fn arb_state() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("queued"),
        Just("running"),
        Just("suspended"),
        Just("cancelling"),
        Just("cancelled"),
        Just("completed"),
        Just("failed"),
    ]
}

/// Build a fully valid manifest over `space`: the range is an arbitrary
/// (possibly empty) slice of the space, the completed set an arbitrary
/// subset of its windows.
fn build_manifest(
    space: ScenarioSpace,
    cut_a: usize,
    cut_b: usize,
    window: usize,
    done: &[bool],
    state: &str,
    reason: String,
) -> Manifest {
    let (start, end) = {
        let (a, b) = (cut_a % (space.len() + 1), cut_b % (space.len() + 1));
        (a.min(b), a.max(b))
    };
    let total = (end - start).div_ceil(window);
    let completed: Vec<usize> =
        (0..total).filter(|&ordinal| done.get(ordinal).copied().unwrap_or(false)).collect();
    Manifest {
        version: MANIFEST_VERSION.to_string(),
        id: "j00042".to_string(),
        fingerprint: format!("{:016x}", space_fingerprint(&space)),
        start,
        end,
        window,
        checkpoint_every: 4,
        state: state.to_string(),
        reason,
        retries: done.len() as u64,
        checkpoints: completed.len() as u64,
        completed,
        space,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Manifest round-trip is lossless for arbitrary spaces, ranges
    /// (including empty), windows and completed subsets (none / some /
    /// all), in every lifecycle state.
    #[test]
    fn manifest_round_trips_bit_for_bit(
        space in arb_space(),
        cut_a in 0usize..10_000,
        cut_b in 0usize..10_000,
        window in 1usize..96,
        done in proptest::collection::vec(proptest::bool::ANY, 0..64),
        state in arb_state(),
    ) {
        let reason = if state == "failed" { "window 3 failed".to_string() } else { String::new() };
        let manifest = build_manifest(space, cut_a, cut_b, window, &done, state, reason);
        let bytes = manifest.to_bytes();
        let back = Manifest::from_bytes(&bytes).expect("a freshly written manifest parses");
        // Field-level equality plus byte-level: re-serialising the parsed
        // manifest reproduces the file exactly.
        prop_assert_eq!(&back.completed, &manifest.completed);
        prop_assert_eq!(&back.state, &manifest.state);
        prop_assert_eq!((back.start, back.end, back.window), (manifest.start, manifest.end, manifest.window));
        prop_assert_eq!(back.space.len(), manifest.space.len());
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// (b) Torn writes never survive: a manifest truncated at ANY byte
    /// boundary is a descriptive error, and a manifest with any single
    /// byte flipped either errors or (when the flip is semantically
    /// neutral, e.g. hex case in the checksum header) parses back to the
    /// identical manifest. Nothing panics.
    #[test]
    fn torn_or_flipped_manifests_are_always_detected(
        space in arb_space(),
        window in 1usize..64,
        done in proptest::collection::vec(proptest::bool::ANY, 0..32),
        mask in 1u8..=255,
    ) {
        let manifest =
            build_manifest(space, 0, 10_000, window, &done, "running", String::new());
        let bytes = manifest.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                Manifest::from_bytes(&bytes[..cut]).is_err(),
                "truncation at byte {cut}/{} must not parse", bytes.len()
            );
        }
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= mask;
            match Manifest::from_bytes(&torn) {
                Err(_) => {}
                Ok(back) => prop_assert!(
                    back.to_bytes() == bytes,
                    "flip at byte {} parsed to a DIFFERENT manifest", i
                ),
            }
        }
    }
}

/// An arbitrary cache payload: raw `u64` bit patterns (so NaNs with
/// arbitrary payloads occur), with extra NaN/infinity entries mixed in.
fn arb_entries() -> impl Strategy<Value = Vec<((u64, u64), u64)>> {
    proptest::collection::vec(
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            prop_oneof![
                0u64..u64::MAX,
                Just(f64::NAN.to_bits()),
                Just(f64::INFINITY.to_bits()),
                Just((-f64::NAN).to_bits()),
                Just(0u64),
            ],
        )
            .prop_map(|(hi, lo, bits)| ((hi, lo), bits)),
        0..160,
    )
}

fn filled(entries: &[((u64, u64), u64)]) -> EvalCache {
    let cache = EvalCache::new();
    for &(key, bits) in entries {
        cache.insert(key, f64::from_bits(bits));
    }
    cache
}

/// The de-duplicated (last write wins) expectation for `entries`.
fn expected(entries: &[((u64, u64), u64)]) -> Vec<((u64, u64), u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &(key, bits) in entries {
        map.insert(key, bits);
    }
    map.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (c) The binary segment and the JSON spill carry exactly the same
    /// information: loading either into a fresh cache reproduces every
    /// entry bit-for-bit (NaN payloads included), and the two loaded
    /// caches re-serialise to identical segments.
    #[test]
    fn segment_and_json_spills_are_bit_equivalent(entries in arb_entries()) {
        let cache = filled(&entries);
        let want = expected(&entries);
        prop_assert_eq!(cache.len(), want.len());

        let from_segment = EvalCache::new();
        let n = from_segment.load_segment(&cache.save_segment()).expect("own segment loads");
        prop_assert_eq!(n, want.len());
        let from_json = EvalCache::new();
        let m = from_json.load_json(&cache.save_json()).expect("own JSON loads");
        prop_assert_eq!(m, want.len());

        for &(key, bits) in &want {
            let a = from_segment.peek(key).expect("segment kept the key");
            let b = from_json.peek(key).expect("JSON kept the key");
            prop_assert!(a.to_bits() == bits, "segment bits for {:?}", key);
            prop_assert!(b.to_bits() == bits, "JSON bits for {:?}", key);
        }
        // Same contents ⇒ same canonical bytes (segments sort entries).
        prop_assert_eq!(from_segment.save_segment(), from_json.save_segment());
    }

    /// (d) A segment truncated at ANY byte boundary (and any single
    /// flipped byte) is rejected and loads nothing — the cache under
    /// restore stays exactly as it was.
    #[test]
    fn torn_segments_load_nothing(
        entries in arb_entries(),
        mask in 1u8..=255,
    ) {
        let bytes = filled(&entries).save_segment();
        for cut in 0..bytes.len() {
            let target = EvalCache::new();
            prop_assert!(
                target.load_segment(&bytes[..cut]).is_err(),
                "truncation at byte {cut}/{} must not load", bytes.len()
            );
            prop_assert!(target.is_empty(), "rejected segment must insert nothing");
        }
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= mask;
            let target = EvalCache::new();
            if target.load_segment(&torn).is_err() {
                prop_assert!(target.is_empty(), "rejected segment must insert nothing");
            }
            // A flip the CRC theoretically can't catch doesn't exist for a
            // single byte (8-bit burst), but the property we need is only
            // "no panic, no partial load" — asserted above.
        }
    }
}
