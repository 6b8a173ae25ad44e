//! Fast, per-process-keyed hashing for the planning hot paths.
//!
//! The interned planning layers key their maps by dense integers (`u32`/`u64` group
//! ids, `AttrSet` bit patterns) or cell values; `std`'s default SipHash is
//! DoS-resistant but an order of magnitude slower than the planning loops can
//! afford. [`FastHasher`] is an FxHash-style multiply-rotate fold with a strong
//! 64-bit finaliser. Its digests differ from process to process (see *Keying*), so
//! outputs are deterministic only because every map built through it is either
//! membership-only or has its output re-sorted by value: dictionary ids are
//! reassigned in value order, partition classes are sorted. That rule is what lets
//! [`crate::columnar::intern_values`] keep each cell's hash in its dedupe map: a
//! hash only rules out unequal values early and never decides which id a value gets.
//!
//! **Keying:** the fold itself is the keyless FxHash recipe, but every
//! [`FastHasher`] starts from a **per-process random key** (`process_hash_seed`,
//! drawn once from `std`'s ambient `RandomState` entropy), so a party who controls
//! the *plaintext table contents* cannot precompute values that collide in the
//! dictionary-build and fresh-value maps and degrade them toward O(n²) probing.
//! Nothing observable depends on the key, so pipelines stay byte-identical across
//! processes with different keys — which the golden-digest tests in
//! `crates/core/tests/interned_plan_equiv.rs` pin down.
//! Public API types (frequency histograms, `all_values`) keep `std`'s default
//! hasher.
//!
//! (`f2_crypto::entropy_seed` would be the natural seed source, but `f2_crypto`
//! depends on this crate, so the seed is drawn from the same ambient entropy via
//! `std`'s `RandomState` instead.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// The per-process random key every [`FastHasher`] starts from, drawn once from
/// ambient entropy on first use.
fn process_hash_seed() -> u64 {
    static HASH_SEED: OnceLock<u64> = OnceLock::new();
    *HASH_SEED.get_or_init(|| {
        // Two independently keyed SipHash states: ambient entropy without an
        // f2_crypto dependency (which would be circular — crypto builds on this
        // crate).
        let s = std::collections::hash_map::RandomState::new();
        let t = std::collections::hash_map::RandomState::new();
        s.hash_one(0x5eed_u64) ^ t.hash_one(0xf00d_u64).rotate_left(32)
    })
}

/// FxHash-style streaming hasher with a splitmix64 finaliser, keyed per process.
#[derive(Debug, Clone)]
pub struct FastHasher(u64);

impl Default for FastHasher {
    fn default() -> Self {
        FastHasher(process_hash_seed())
    }
}

/// Rotate-xor-multiply fold (the rustc FxHash recipe).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finaliser: FxHash alone leaves low bits weak, and HashMap's
        // bucket index comes from the high bits anyway.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed through [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// A `FastMap` with at least `cap` capacity.
pub fn fast_map_with_capacity<K, V>(cap: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn hasher_is_keyed_by_the_process_seed() {
        // Two hashers in one process share the key …
        let (a, b) = (FastHasher::default(), FastHasher::default());
        assert_eq!(a.0, b.0);
        // … and an explicitly different key changes the digest of the same input.
        let digest = |seed: u64, v: u64| {
            let mut h = FastHasher(seed);
            h.write_u64(v);
            h.finish()
        };
        let seed = process_hash_seed();
        assert_ne!(digest(seed, 42), digest(seed ^ 1, 42));
        assert_eq!(process_hash_seed(), seed);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u32> = fast_map_with_capacity(8);
        for i in 0..100u64 {
            m.insert(i, i as u32 * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&7], 14);
    }

    #[test]
    fn byte_streams_differ_by_length() {
        let hash = |b: &[u8]| {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefg"));
    }
}
