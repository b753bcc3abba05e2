//! A deterministic hasher for the simulator's integer ids.
//!
//! Every per-request map on the serve path — the cache policies' index
//! maps and the fleet's per-satellite statistics — is keyed by an
//! [`ObjectId`](crate::ObjectId) or a `SatelliteId`: small fixed-width
//! integers the simulator generates itself. `std`'s default SipHash buys
//! resistance to adversarial keys at ~20 ns a lookup; these keys come
//! from the trace generator, the scheduler, or a length-bounded
//! checkpoint decode, never from hostile network input, so the maps use
//! the splitmix64 finalizer instead (the same mix
//! [`ObjectId::hash64`](crate::ObjectId::hash64) uses for bucket
//! selection). No output depends on the resulting iteration order:
//! caches never iterate their index maps, and every export of the
//! per-satellite map sorts by key.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The splitmix64 finalizer: a bijective, well-mixed map of `u64`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hasher state: each integer written is folded in with one splitmix64
/// round, so a single `u64` key hashes to `splitmix64(key)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// The [`BuildHasher`] for maps keyed by simulator-generated ids.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildIdHasher;

impl BuildHasher for BuildIdHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher::default()
    }
}

/// A `HashMap` keyed by simulator-generated ids.
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;
    use std::hash::Hash;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildIdHasher.hash_one(t)
    }

    #[test]
    fn object_ids_hash_like_hash64() {
        for id in [0u64, 1, 42, u64::MAX] {
            assert_eq!(hash_of(&ObjectId(id)), ObjectId(id).hash64());
        }
    }

    #[test]
    fn deterministic_and_field_order_sensitive() {
        assert_eq!(hash_of(&(3u16, 7u16)), hash_of(&(3u16, 7u16)));
        assert_ne!(hash_of(&(3u16, 7u16)), hash_of(&(7u16, 3u16)));
        assert_ne!(hash_of(&(0u16, 1u16)), hash_of(&(1u16, 0u16)));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }
}
