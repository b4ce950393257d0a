//! Hash configuration of the counter-based query engine (§5.2).
//!
//! [`HashConfig`] is carried by the IR (`FpConfig`) because every backend
//! needs it: the sim builder programs the cuckoo externs from it, the P4
//! backend sizes its register arrays from it, and the compiler's
//! false-positive precompute (`ht-ntapi`'s `fp` module) enumerates
//! colliding key pairs with it.

use crate::KeySpace;
use ht_asic::hash::{crc32_words_x8, hash_words, Crc32Fold, HashAlgo};

/// Hash configuration of one compiled query's cuckoo engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashConfig {
    /// Each of the two cuckoo arrays has `2^array_bits` slots.
    pub array_bits: u32,
    /// Stored digest width in bits (16 or 32 in the paper's Fig. 17).
    pub digest_bits: u32,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig { array_bits: 16, digest_bits: 16 }
    }
}

impl HashConfig {
    /// First cuckoo bucket of a key.
    pub fn h1(&self, key: &[u64]) -> u64 {
        hash_words(HashAlgo::Crc32, key) & ((1 << self.array_bits) - 1)
    }

    /// Second cuckoo bucket of a key: partial-key cuckoo hashing,
    /// `h2 = h1 XOR H(digest)` (Cuckoo Filter, the paper's reference \[70\]).  Storing
    /// only the digest still lets an eviction compute the alternate bucket,
    /// which full-key cuckoo hashing could not do on the data plane.
    ///
    /// Invariant: `h2(key) == alt_bucket(h1(key), digest(key))` — this is
    /// the relation the data plane relies on during evictions, and
    /// [`triple`](Self::triple) preserves it while hashing the key only
    /// once.
    pub fn h2(&self, key: &[u64]) -> u64 {
        self.triple(key).2
    }

    /// Computes `(digest, h1, h2)` of a key in one pass.
    ///
    /// `digest`, `h1`, and `h2` called separately walk the key bytes five
    /// times (`h2` recomputes both of the others internally); the
    /// false-positive precompute hashes millions of keys, so this fuses
    /// the FNV-1a digest and the CRC-32 bucket into a single byte walk
    /// and derives `h2` from the invariant
    /// `h2 = alt_bucket(h1, digest)` — one extra 8-byte CRC-32C over the
    /// digest instead of a third pass over the key.
    pub fn triple(&self, key: &[u64]) -> (u64, u64, u64) {
        let mut crc = Crc32Fold::ieee();
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for w in key {
            let bytes = w.to_be_bytes();
            crc.fold8(bytes);
            for b in bytes {
                fnv ^= u64::from(b);
                fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let digest = fnv & ((1u64 << self.digest_bits) - 1);
        let h1 = u64::from(crc.finish()) & ((1 << self.array_bits) - 1);
        (digest, h1, self.alt_bucket(h1, digest))
    }

    /// Calls `emit(digest, h1)` for every key of a space in index order:
    /// the one hashing loop behind [`triple_batch`](Self::triple_batch) and
    /// [`packed_keys`](Self::packed_keys).
    ///
    /// Eight keys at a time go through the interleaved CRC fold
    /// ([`Crc32FoldX8`](ht_asic::hash::Crc32FoldX8)) with their eight
    /// FNV-1a accumulators advancing in lockstep per key word, so the CRC
    /// table loads and the digest multiply latency overlap across lanes
    /// instead of serialising per key; the `n mod 8` tail is scalar.
    #[inline]
    fn for_each_digest_h1(&self, space: &KeySpace, mut emit: impl FnMut(u64, u64)) {
        let n = space.len();
        let digest_mask = (1u64 << self.digest_bits) - 1;
        let h1_mask = (1u64 << self.array_bits) - 1;
        let width = space.width();
        let mut i = 0;
        while i + 8 <= n {
            let keys: [&[u64]; 8] = std::array::from_fn(|l| space.key(i + l));
            let crcs = crc32_words_x8(keys);
            let mut fnv = [0xcbf2_9ce4_8422_2325u64; 8];
            for w in 0..width {
                for (lane, key) in keys.iter().enumerate() {
                    for b in key[w].to_be_bytes() {
                        fnv[lane] ^= u64::from(b);
                        fnv[lane] = fnv[lane].wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            for lane in 0..8 {
                emit(fnv[lane] & digest_mask, u64::from(crcs[lane]) & h1_mask);
            }
            i += 8;
        }
        for j in i..n {
            let key = space.key(j);
            emit(self.digest(key), self.h1(key));
        }
    }

    /// [`triple`](Self::triple) over every key of a space; identical
    /// output to mapping `triple` over `space.iter()`, hashed eight keys
    /// at a time.
    ///
    /// Its one caller is the benchmark's hashing kernel
    /// (`ir.triple_batch_ns_per_key`); the false-positive precompute sorts
    /// [`packed_keys`](Self::packed_keys) and derives `h2` per digest
    /// group instead.
    pub fn triple_batch(&self, space: &KeySpace) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::with_capacity(space.len());
        self.for_each_digest_h1(space, |digest, h1| {
            out.push((digest, h1, self.alt_bucket(h1, digest)));
        });
        out
    }

    /// The false-positive precompute's streaming hash pass: one sort key
    /// `digest << 32 | index` per key, plus every key's first bucket `h1`
    /// by index.
    ///
    /// Sorting the keys groups the space by digest with index order inside
    /// each group, and a group's second buckets are `h1 ^ alt_offset(digest)`
    /// ([`alt_offset`](Self::alt_offset)), so no per-key `h2` is computed or
    /// stored: 12 bytes per key instead of `triple_batch`'s 24.
    ///
    /// # Panics
    /// If `digest_bits > 32` or the space holds more than `u32::MAX` keys —
    /// either would not fit its half of the packed key.
    pub fn packed_keys(&self, space: &KeySpace) -> (Vec<u64>, Vec<u32>) {
        assert!(
            self.digest_bits <= 32 && space.len() <= u32::MAX as usize,
            "packed sort keys hold a 32-bit digest and a 32-bit index"
        );
        let mut keys = Vec::with_capacity(space.len());
        let mut h1s = Vec::with_capacity(space.len());
        self.for_each_digest_h1(space, |digest, h1| {
            keys.push(digest << 32 | h1s.len() as u64);
            h1s.push(h1 as u32);
        });
        (keys, h1s)
    }

    /// The alternate bucket of a stored `(bucket, digest)` pair — usable
    /// during eviction without knowing the full key.
    pub fn alt_bucket(&self, bucket: u64, digest: u64) -> u64 {
        let mask = (1u64 << self.array_bits) - 1;
        let off = hash_words(HashAlgo::Crc32c, &[digest]) & mask;
        // A zero offset would make h2 == h1 (one candidate bucket); force a
        // non-zero offset the way cuckoo-filter implementations do.
        (bucket ^ off.max(1)) & mask
    }

    /// The XOR distance between a digest's two candidate buckets:
    /// `alt_bucket(b, digest) == b ^ alt_offset(digest)` for every bucket
    /// `b < 2^array_bits`.  It depends on the digest alone, so the
    /// false-positive precompute computes it once per digest group.
    pub fn alt_offset(&self, digest: u64) -> u64 {
        let mask = (1u64 << self.array_bits) - 1;
        (hash_words(HashAlgo::Crc32c, &[digest]) & mask).max(1)
    }

    /// Stored digest of a key.
    ///
    /// Must be *independent* of the bucket hashes: CRCs over the same data
    /// are linear maps, so deriving the digest from the same polynomial
    /// (even with a different seed or prefix) makes every same-digest pair
    /// also share a bucket, defeating the scheme.  Real deployments use a
    /// CRC with a custom polynomial; the reproduction stands in FNV-1a,
    /// which is non-linear in the key bytes.
    pub fn digest(&self, key: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in key {
            for b in w.to_be_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h & ((1u64 << self.digest_bits) - 1)
    }

    /// Memory of one exact-match entry in bits: full key + action.
    pub fn exact_entry_bits(&self, key_fields: usize) -> u64 {
        key_fields as u64 * 32 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_independent_of_buckets() {
        let cfg = HashConfig::default();
        let k = vec![1234u64, 80];
        assert_ne!(cfg.digest(&k), cfg.h1(&k));
        assert!(cfg.digest(&k) < 1 << 16);
        assert!(cfg.h1(&k) < 1 << 16);
        assert_ne!(cfg.h1(&k), cfg.h2(&k));
    }

    #[test]
    fn triple_agrees_with_individual_hashes() {
        for cfg in [
            HashConfig::default(),
            HashConfig { array_bits: 14, digest_bits: 32 },
            HashConfig { array_bits: 20, digest_bits: 8 },
        ] {
            for key in [vec![], vec![7u64], vec![1234, 80], vec![u64::MAX, 0, 42]] {
                let (d, h1, h2) = cfg.triple(&key);
                assert_eq!(d, cfg.digest(&key));
                assert_eq!(h1, cfg.h1(&key));
                assert_eq!(h2, cfg.h2(&key));
                assert_eq!(h2, cfg.alt_bucket(h1, d), "h2 = alt_bucket(h1, digest)");
            }
        }
    }

    #[test]
    fn triple_batch_matches_scalar_triple() {
        // 19 keys: two full x8 blocks plus a 3-key scalar tail.
        for cfg in [HashConfig::default(), HashConfig { array_bits: 14, digest_bits: 10 }] {
            let mut space = KeySpace::new(2);
            for i in 0..19u64 {
                space.push(&[i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 80 + i]);
            }
            let batch = cfg.triple_batch(&space);
            let scalar: Vec<_> = space.iter().map(|k| cfg.triple(k)).collect();
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    fn packed_keys_match_scalar_hashes() {
        // 19 keys: two full x8 blocks plus a 3-key scalar tail.
        for cfg in [HashConfig::default(), HashConfig { array_bits: 32, digest_bits: 32 }] {
            let mut space = KeySpace::new(2);
            for i in 0..19u64 {
                space.push(&[i.wrapping_mul(0x9e37_79b9_7f4a_7c15), 80 + i]);
            }
            let (keys, h1s) = cfg.packed_keys(&space);
            for (i, k) in space.iter().enumerate() {
                assert_eq!(keys[i], cfg.digest(k) << 32 | i as u64);
                assert_eq!(u64::from(h1s[i]), cfg.h1(k));
            }
        }
    }

    #[test]
    fn alt_bucket_is_xor_with_alt_offset() {
        for array_bits in [1, 4, 10, 16, 32] {
            let cfg = HashConfig { array_bits, digest_bits: 16 };
            let mask = (1u64 << array_bits) - 1;
            for digest in 0..200u64 {
                for b in [0, 1, 0x5555_5555, u64::MAX] {
                    let b = b & mask;
                    assert_eq!(cfg.alt_bucket(b, digest), b ^ cfg.alt_offset(digest));
                }
            }
        }
    }

    #[test]
    fn triple_batch_handles_tiny_spaces() {
        let cfg = HashConfig::default();
        for n in 0..8u64 {
            let mut space = KeySpace::new(1);
            for i in 0..n {
                space.push(&[i]);
            }
            let batch = cfg.triple_batch(&space);
            let scalar: Vec<_> = space.iter().map(|k| cfg.triple(k)).collect();
            assert_eq!(batch, scalar);
        }
    }
}
