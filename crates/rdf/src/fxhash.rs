//! A minimal FxHash-style hasher.
//!
//! The S3PG data transformation is dominated by hash-map operations over
//! interned `u32` symbols (entity-to-type maps, node lookups). The default
//! SipHash hasher is needlessly slow for such short keys; the multiply-xor
//! scheme used by `rustc-hash` is the standard remedy. To keep the workspace
//! dependency-free we implement the same algorithm locally.
//!
//! HashDoS resistance is irrelevant here: all keys are internally generated
//! symbols, never attacker-controlled strings.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher: `rustc-hash`'s `FxHasher`, with MurmurHash3's
/// `fmix64` avalanche applied by [`Hasher::finish`]. A plain Fx hash's
/// low bits, which pick a `HashMap`'s bucket, depend only on the low bits
/// of the last words written, so strings that differ before a shared
/// tail (IRIs with a common suffix) or floats with zero low mantissa bits
/// would crowd into a few buckets.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut set = FxHashSet::default();
        for i in 0..10_000u32 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
        for i in 0..10_000u32 {
            assert!(set.contains(&i));
        }
    }

    #[test]
    fn string_keys_roundtrip() {
        let mut map = FxHashMap::default();
        map.insert("http://example.org/a".to_string(), 1);
        map.insert("http://example.org/b".to_string(), 2);
        assert_eq!(map.get("http://example.org/a"), Some(&1));
        assert_eq!(map.get("http://example.org/b"), Some(&2));
        assert_eq!(map.get("http://example.org/c"), None);
    }

    #[test]
    fn hasher_is_deterministic() {
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"same bytes");
        h2.write(b"same bytes");
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn keys_with_a_shared_tail_spread_over_buckets() {
        // The skew graph's 2,400 source IRIs differ only before the
        // terminator byte `str` hashing writes last, and a `HashMap`
        // picks its bucket from a hash's low bits. Without the finalizer
        // these keys hash to 32 distinct low-12-bit values.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..2_400 {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(format!("http://skew.test/s{i}").as_str(), &mut h);
            buckets.insert(h.finish() & 0xfff);
        }
        assert!(buckets.len() >= 1_500, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn unaligned_tail_is_hashed() {
        // Two inputs differing only in the final (non-8-byte-aligned) chunk
        // must produce different hashes.
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"12345678abc");
        h2.write(b"12345678abd");
        assert_ne!(h1.finish(), h2.finish());
    }
}
