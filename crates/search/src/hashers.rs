//! Identity hashing for keys that are already uniform hashes.
//!
//! The closed/visited maps are keyed by folded [`crate::StateSet`] content
//! keys: the 64-bit xor-fold ([`crate::narrow_key`]) of two independent
//! multiply-rotate accumulators ([`crate::state::key_of`]). Re-hashing them
//! through SipHash (the `std` default) costs a full keyed permutation per
//! probe and adds nothing — the key bits are already uniformly distributed.
//! The identity hasher below passes them straight through, turning every
//! map operation into a mask-and-probe.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` for maps keyed by folded state keys.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct IdentityKeyHasher;

impl BuildHasher for IdentityKeyHasher {
    type Hasher = IdentityHasher;

    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Passes key bits straight through to the table.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by the u64 fast path).
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A map keyed by folded `u64` state keys, probing on the key's own bits.
pub(crate) type KeyMap<V> = HashMap<u64, V, IdentityKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trip() {
        let mut m: KeyMap<u32> = KeyMap::default();
        for i in 0..1000u32 {
            // Spread keys across both halves of the word.
            let k = ((i as u64) << 32) | (i as u64).wrapping_mul(0x9E37_79B9);
            m.insert(k, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            let k = ((i as u64) << 32) | (i as u64).wrapping_mul(0x9E37_79B9);
            assert_eq!(m.get(&k), Some(&i));
        }
    }

    #[test]
    fn keys_pass_through_unchanged() {
        let mut h = IdentityKeyHasher.build_hasher();
        h.write_u64(0xDEAD_BEEF_0123_4567);
        assert_eq!(h.finish(), 0xDEAD_BEEF_0123_4567);
    }
}
