//! Key generation and management.
//!
//! `KeyGen(λ)` of the paper (§2.3) generates the secret key held by the data owner.
//! F² encrypts every attribute independently, so we derive one sub-key per attribute
//! from a single master key; the derivation is itself a PRF evaluation, so sub-keys are
//! computationally independent and only the master key needs to be stored.

use crate::aes::Aes128;
use crate::error::CryptoError;
use crate::Result;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function. Shared by
/// [`entropy_seed`] and the engine's per-chunk seed derivation so the constants live
/// in exactly one place.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draw a 64-bit seed from ambient entropy (wall clock, monotonic process counter,
/// address-space layout), mixed through [`splitmix64`].
///
/// The vendored offline `rand` shim has no OS entropy source, so this is the
/// workspace's stand-in for an OS-seeded RNG: good enough to make two runs of the same
/// binary draw different nonce streams, with no cryptographic claim (F²'s security
/// rests on its AES-based PRF, not on seed secrecy). Successive calls never return the
/// same seed, even within one clock tick.
pub fn entropy_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0xdead_beef);
    let tick = COUNTER.fetch_add(1, Ordering::Relaxed);
    // The address of a per-process static adds ASLR entropy across processes.
    let aslr = &COUNTER as *const AtomicU64 as u64;
    splitmix64(nanos ^ aslr.rotate_left(32) ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A 128-bit symmetric secret key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey([u8; 16]);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(***)")
    }
}

impl SecretKey {
    /// `KeyGen(λ)`: sample a fresh key. Only λ = 128 is supported.
    pub fn generate(lambda: usize, rng: &mut impl Rng) -> Result<Self> {
        if lambda != 128 {
            return Err(CryptoError::UnsupportedParameter(format!(
                "security parameter {lambda} (only 128 is supported)"
            )));
        }
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        Ok(SecretKey(bytes))
    }

    /// Construct a key from raw bytes (e.g. loaded from the owner's key store).
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        SecretKey(bytes)
    }

    /// Borrow the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

/// The data owner's master key, from which per-attribute sub-keys are derived.
#[derive(Clone, PartialEq, Eq)]
pub struct MasterKey {
    root: SecretKey,
}

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MasterKey(***)")
    }
}

impl MasterKey {
    /// Generate a fresh master key.
    pub fn generate(rng: &mut impl Rng) -> Self {
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        MasterKey { root: SecretKey(bytes) }
    }

    /// Deterministically derive a master key from a 64-bit seed. Intended for tests and
    /// reproducible benchmarks only — real deployments should use [`MasterKey::generate`].
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        MasterKey { root: SecretKey(bytes) }
    }

    /// Derive the sub-key for domain `domain` and index `index`
    /// (e.g. domain 0 = per-attribute probabilistic keys, domain 1 = deterministic
    /// baseline keys).
    pub fn derive(&self, domain: u8, index: u64) -> SecretKey {
        let aes = Aes128::new(self.root.as_bytes());
        let mut block = [0u8; 16];
        block[0] = domain;
        block[8..16].copy_from_slice(&index.to_le_bytes());
        aes.encrypt_block(&mut block);
        SecretKey(block)
    }

    /// Sub-key for probabilistic encryption of attribute `attr`.
    pub fn attribute_key(&self, attr: usize) -> SecretKey {
        self.derive(0, attr as u64)
    }

    /// Sub-key for the deterministic (AES baseline) encryption of attribute `attr`.
    pub fn deterministic_key(&self, attr: usize) -> SecretKey {
        self.derive(1, attr as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keygen_rejects_unsupported_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(SecretKey::generate(256, &mut rng).is_err());
        assert!(SecretKey::generate(128, &mut rng).is_ok());
    }

    #[test]
    fn derived_keys_are_distinct_and_deterministic() {
        let mk = MasterKey::from_seed(99);
        let k0 = mk.attribute_key(0);
        let k1 = mk.attribute_key(1);
        let d0 = mk.deterministic_key(0);
        assert_ne!(k0.as_bytes(), k1.as_bytes());
        assert_ne!(k0.as_bytes(), d0.as_bytes());
        // Deterministic re-derivation.
        assert_eq!(k0.as_bytes(), mk.attribute_key(0).as_bytes());
        // Different master keys derive different sub-keys.
        let other = MasterKey::from_seed(100);
        assert_ne!(k0.as_bytes(), other.attribute_key(0).as_bytes());
    }

    #[test]
    fn debug_redacts_key_material() {
        let mk = MasterKey::from_seed(7);
        assert_eq!(format!("{:?}", mk), "MasterKey(***)");
        assert_eq!(format!("{:?}", mk.attribute_key(3)), "SecretKey(***)");
    }

    #[test]
    fn entropy_seeds_are_distinct() {
        // Two draws in the same nanosecond must still differ (monotonic counter).
        let a = entropy_seed();
        let b = entropy_seed();
        assert_ne!(a, b);
        let ka = MasterKey::from_seed(entropy_seed());
        let kb = MasterKey::from_seed(entropy_seed());
        assert_ne!(ka.root.as_bytes(), kb.root.as_bytes());
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = MasterKey::generate(&mut rng);
        let b = MasterKey::generate(&mut rng);
        assert_ne!(a.root.as_bytes(), b.root.as_bytes());
    }
}
