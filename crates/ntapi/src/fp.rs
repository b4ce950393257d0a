//! False-positive precompute for the counter-based query engine (§5.2,
//! Fig. 4 and Fig. 17).
//!
//! The data-plane `distinct`/`reduce` store a hashed *digest* of the key in
//! a cuckoo slot instead of the full key.  Two distinct keys collide — a
//! false positive — when they share a digest **and** at least one candidate
//! bucket, so a packet of one key could match the stored digest of the
//! other.  Because the tester's header space is enumerable, every such pair
//! is found before the task starts; one key of each colliding pair is
//! diverted to the *exact key matching* table, making the engine
//! false-positive-free.
//!
//! [`compute_fp_indices`] implements the precompute over a flat
//! [`KeySpace`] in three streaming phases: `HashConfig::packed_keys` hashes
//! each key exactly once into a `digest << 32 | index` sort key and a
//! first-bucket array; one `sort_unstable` over those 8-byte keys groups
//! the space by digest (index order inside a group falls out of the low
//! half); a sequential walk over the sorted keys then resolves each digest
//! group of two or more.  There is one grouping path for every digest
//! width and space size, no hash map and no per-key allocation.
//! [`compute_fp_entries`] is the row-cloning compatibility wrapper.  The
//! Fig. 17 experiment measures the diverted-entry count against the flow
//! count, array size and digest width.

// `HashConfig` moved to `ht-ir` (it is carried by the IR's `FpConfig` and
// consumed by every backend); re-exported here under its original path,
// alongside the flat key-space representation.
pub use ht_ir::{HashConfig, KeySpace};

/// Computes the exact-key-matching entries for a key space, returned as
/// sorted indices into `space`: for every pair of distinct keys with equal
/// digests and overlapping candidate buckets, one key is diverted to the
/// exact table.
///
/// `O(n log n)` in the sort of the packed keys and `O(n)` expected in the
/// scan (false-positive pairs are rare by construction, so the kept set of
/// a group is tiny).  Sorted packed keys put each digest group in index
/// order, so the greedy within-group scan diverts the later key of each
/// dangerous pair — the same set the original per-group hash-map
/// formulation produced.  Both candidate buckets of a group's keys differ
/// by the one `HashConfig::alt_offset` of their shared digest, which is
/// therefore computed per group of two or more, not per key.
///
/// # Panics
/// If `cfg.digest_bits > 32` or the space holds more than `u32::MAX` keys:
/// the packed sort key has 32 bits for each (asserted by
/// `HashConfig::packed_keys`).  `compile_with` rejects such a hash
/// configuration with a typed error before it gets here.
pub fn compute_fp_indices(space: &KeySpace, cfg: &HashConfig) -> Vec<usize> {
    let n = space.len();
    ht_asic::sim::metrics::record_fp_keys(n as u64);

    // Asserts `digest_bits <= 32 && n <= u32::MAX`.
    let (mut keys, h1) = cfg.packed_keys(space);
    keys.sort_unstable();

    let mut diverted: Vec<usize> = Vec::new();
    let mut buckets: Vec<u32> = Vec::new();
    let mut kept: Vec<u32> = Vec::new();
    let mut g = 0;
    while g < n {
        let digest = keys[g] >> 32;
        let mut end = g + 1;
        while end < n && keys[end] >> 32 == digest {
            end += 1;
        }
        if end - g >= 2 {
            // Gather the group's first buckets up front: the loads are
            // independent, so their cache misses overlap instead of
            // serialising behind the collision checks.
            buckets.clear();
            buckets.extend(keys[g..end].iter().map(|&k| h1[k as u32 as usize]));
            // Within a digest group, a pair is dangerous when their
            // candidate bucket sets {h1, h1 ^ off} intersect, i.e. when
            // their first buckets are equal or `off` apart.  Greedily
            // divert the later key of each dangerous pair (the paper:
            // "puts either tcp.dp=80 or tcp.dp=81 in the exact key
            // matching table").
            let off = cfg.alt_offset(digest) as u32;
            kept.clear();
            for (&k, &b1) in keys[g..end].iter().zip(&buckets) {
                if kept.iter().any(|&k1| b1 == k1 || b1 ^ off == k1) {
                    diverted.push(k as u32 as usize);
                } else {
                    kept.push(b1);
                }
            }
        }
        g = end;
    }
    diverted.sort_unstable();
    diverted
}

/// Compatibility wrapper over [`compute_fp_indices`] for row-based callers:
/// clones the diverted keys out of the space.
pub fn compute_fp_entries(space: &[Vec<u64>], cfg: &HashConfig) -> Vec<Vec<u64>> {
    if space.is_empty() {
        return Vec::new();
    }
    let flat = KeySpace::from_rows(space);
    compute_fp_indices(&flat, cfg).into_iter().map(|i| flat.key(i).to_vec()).collect()
}

/// True when `key` would be ambiguous against `other` under `cfg` — the
/// property the precompute guarantees never survives into the cuckoo path.
pub fn is_false_positive_pair(a: &[u64], b: &[u64], cfg: &HashConfig) -> bool {
    a != b
        && cfg.digest(a) == cfg.digest(b)
        && (cfg.h1(a) == cfg.h1(b)
            || cfg.h1(a) == cfg.h2(b)
            || cfg.h2(a) == cfg.h1(b)
            || cfg.h2(a) == cfg.h2(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn space(n: u64) -> Vec<Vec<u64>> {
        (0..n).map(|i| vec![i, 80]).collect()
    }

    #[test]
    fn small_spaces_have_no_false_positives() {
        let cfg = HashConfig { array_bits: 16, digest_bits: 16 };
        // 1000 keys over a 2^16 × 2^16 (bucket × digest) space: collision
        // probability per pair ≈ 4/2^28 — effectively zero.
        let entries = compute_fp_entries(&space(1_000), &cfg);
        assert!(entries.is_empty(), "unexpected fp entries: {}", entries.len());
    }

    #[test]
    fn large_spaces_yield_few_entries() {
        let cfg = HashConfig { array_bits: 16, digest_bits: 16 };
        let n = 200_000;
        let entries = compute_fp_entries(&space(n), &cfg);
        // Expected pairs ≈ C(n,2) · 4 / (2^16 · 2^16) ≈ 18.6 for n = 200k.
        assert!(!entries.is_empty(), "expected a handful of collisions");
        assert!(entries.len() < 200, "too many entries: {}", entries.len());
    }

    #[test]
    fn wider_digest_reduces_entries() {
        let n = 300_000;
        let narrow = compute_fp_entries(&space(n), &HashConfig { array_bits: 16, digest_bits: 16 });
        let wide = compute_fp_entries(&space(n), &HashConfig { array_bits: 16, digest_bits: 32 });
        assert!(wide.len() < narrow.len().max(1), "wide {} narrow {}", wide.len(), narrow.len());
    }

    /// The precompute by definition, sharing no code with the packed-key
    /// path: keys grouped by scalar digest in index order, the later key of
    /// each pair with intersecting `{h1, h2}` diverted.
    fn reference_indices(space: &KeySpace, cfg: &HashConfig) -> Vec<usize> {
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, k) in space.iter().enumerate() {
            groups.entry(cfg.triple(k).0).or_default().push(i);
        }
        let mut diverted = Vec::new();
        for group in groups.values() {
            let mut kept: Vec<(u64, u64)> = Vec::new();
            for &i in group {
                let (_, h1, h2) = cfg.triple(space.key(i));
                if kept.iter().any(|&(k1, k2)| h1 == k1 || h1 == k2 || h2 == k1 || h2 == k2) {
                    diverted.push(i);
                } else {
                    kept.push((h1, h2));
                }
            }
        }
        diverted.sort_unstable();
        diverted
    }

    #[test]
    fn indices_match_reference_on_colliding_rows() {
        // A narrow digest over many buckets, and a wide digest over a tiny
        // bucket array (so the rare shared digests still collide).
        // Pseudorandom keys, not sequential: FNV over sequential values is
        // nearly injective in its low ~21 bits, so sequential spaces
        // produce no wide-digest collisions.
        let mut x = 0x243f_6a88_85a3_08d3u64; // splitmix64 stream
        let mut flat = KeySpace::new(2);
        for _ in 0..40_000 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            flat.push(&[z ^ (z >> 31), 80]);
        }
        for cfg in [
            HashConfig { array_bits: 10, digest_bits: 8 },
            HashConfig { array_bits: 4, digest_bits: 21 },
        ] {
            let idx = compute_fp_indices(&flat, &cfg);
            assert!(!idx.is_empty(), "want collisions for {cfg:?}");
            assert_eq!(idx, reference_indices(&flat, &cfg), "{cfg:?}");
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "indices sorted & distinct");
            let entries = compute_fp_entries(&flat.to_rows(), &cfg);
            assert!(entries.iter().map(Vec::as_slice).eq(idx.iter().map(|&i| flat.key(i))));
        }
    }

    proptest! {
        /// Index-for-index equality with the reference over every `n mod 8`
        /// tail, zero-width keys, and spaces with duplicate keys (a
        /// duplicate shares digest and buckets with its twin, so it is
        /// diverted).
        #[test]
        fn indices_match_reference(
            words in prop::collection::vec(0u64..50, 3 * 600),
            n in 0usize..600,
            width in prop::sample::select(vec![0usize, 1, 2, 3]),
            digest_bits in prop::sample::select(vec![1u32, 4, 8, 16, 20, 21, 24, 32]),
            array_bits in prop::sample::select(vec![1u32, 4, 10, 16]),
        ) {
            let mut space = KeySpace::new(width);
            for i in 0..n {
                space.push(&words[i * width..(i + 1) * width]);
            }
            let cfg = HashConfig { array_bits, digest_bits };
            prop_assert_eq!(compute_fp_indices(&space, &cfg), reference_indices(&space, &cfg));
        }
    }

    #[test]
    #[should_panic(expected = "32-bit digest")]
    fn digest_wider_than_the_packed_key_panics() {
        compute_fp_indices(&KeySpace::new(1), &HashConfig { array_bits: 16, digest_bits: 33 });
    }

    #[test]
    fn empty_space_yields_nothing() {
        let cfg = HashConfig::default();
        assert!(compute_fp_entries(&[], &cfg).is_empty());
        assert!(compute_fp_indices(&KeySpace::new(0), &cfg).is_empty());
    }

    #[test]
    fn diverted_keys_really_collide_with_a_kept_key() {
        let cfg = HashConfig { array_bits: 10, digest_bits: 8 }; // tiny → lots of collisions
        let s = space(2_000);
        let entries = compute_fp_entries(&s, &cfg);
        assert!(!entries.is_empty());
        for e in entries.iter().take(20) {
            let collides = s.iter().any(|k| is_false_positive_pair(e, k, &cfg));
            assert!(collides, "diverted key {e:?} collides with nothing");
        }
    }

    #[test]
    fn after_diversion_no_fp_pair_survives() {
        let cfg = HashConfig { array_bits: 10, digest_bits: 8 };
        let s = space(2_000);
        let entries = compute_fp_entries(&s, &cfg);
        let diverted: std::collections::HashSet<&Vec<u64>> = entries.iter().collect();
        let kept: Vec<&Vec<u64>> = s.iter().filter(|k| !diverted.contains(k)).collect();
        // Group kept keys by digest and verify pairwise within groups.
        let mut by_digest: HashMap<u64, Vec<&Vec<u64>>> = HashMap::new();
        for k in kept {
            by_digest.entry(cfg.digest(k)).or_default().push(k);
        }
        for group in by_digest.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    assert!(!is_false_positive_pair(a, b, &cfg), "surviving fp pair {a:?} / {b:?}");
                }
            }
        }
    }
}
