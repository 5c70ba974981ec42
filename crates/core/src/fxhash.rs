//! A multiply–rotate hasher for the run-time memos that are only probed
//! and counted, never iterated.
//!
//! Std's default SipHash resists collision attacks, which a simulator's
//! own keys never mount, and costs tens of nanoseconds per small key. The
//! FxHash rule (as in rustc) folds each word into the state with a rotate,
//! an xor and one multiply. A product's low bits see only the factors'
//! low bits, though, and hashbrown indexes buckets by the hash's low bits
//! and tags slots with its top 7. So `finish` folds the high half down,
//! multiplies once more and folds again: keys whose differences all sit
//! in their high bits, such as the bits of whole-numbered `f64`s, still
//! spread over buckets and tags.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of FxHash (rustc's `FxHasher`).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `HashMap`/`HashSet` hasher state: see the module docs.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// FxHash over 64-bit words.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = (self.hash ^ self.hash >> 32).wrapping_mul(K);
        h ^ h >> 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn whole_numbered_floats_spread_over_buckets_and_tags() {
        // Sensor steps 180..=340 as f64 bits: their low 43 bits are all 0.
        let build = FxBuildHasher::default();
        let hashes: Vec<u64> =
            (180..=340).map(|k| build.hash_one(f64::from(k).to_bits())).collect();
        let distinct = |bits: fn(u64) -> u64| {
            hashes.iter().map(|&h| bits(h)).collect::<std::collections::HashSet<_>>().len()
        };
        // 161 keys into 256 buckets and 128 tags: a fair spread fills most.
        assert!(distinct(|h| h & 0xff) > 80, "low byte");
        assert!(distinct(|h| h >> 57) > 60, "top 7 bits");
    }

    #[test]
    fn equal_keys_hash_equal_and_field_order_matters() {
        let build = FxBuildHasher::default();
        assert_eq!(build.hash_one((1usize, 2u64)), build.hash_one((1usize, 2u64)));
        assert_ne!(build.hash_one((1usize, 2u64)), build.hash_one((2usize, 1u64)));
    }
}
