//! A fixed, fast hasher for maps keyed by integers the simulator makes.
//!
//! Tables keyed by a minted id (pids, object ids, VAS handles) are
//! [`crate::IdTable`]s, which hash nothing. `IdMap` is only for integer
//! keys that are not minted ids and are too sparse to index: today the
//! MMU's host walk cache, keyed by (page-table root frame, 2 MiB range).
//! Such keys need no protection against adversarial input. SipHash, the
//! `HashMap` default, is built for that protection and shows up in host
//! profiles at one lookup per simulated access. [`IdHasher`] is one
//! multiply and one shift per `u64` word, and it is fixed: a map's
//! iteration order does not depend on a per-process random seed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for keys made of integer words.
///
/// Word-sized writes cost one multiply each. Other writes fall back to
/// one multiply per byte, so string keys should stay on the default
/// hasher.
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

/// A `HashMap` keyed by integer words, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((1u64, 2u64)), hash_of((1u64, 2u64)));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // The table picks buckets from the low bits and its tag from the
        // top 7: consecutive ids must differ in both.
        let low: std::collections::HashSet<u64> = (0..1024u64).map(|i| hash_of(i) & 1023).collect();
        assert!(
            low.len() > 600,
            "only {} distinct low-bit buckets",
            low.len()
        );
        let tags: std::collections::HashSet<u64> = (0..1024u64).map(|i| hash_of(i) >> 57).collect();
        assert!(tags.len() > 100, "only {} distinct tags", tags.len());
    }
}
