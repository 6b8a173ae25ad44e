//! # f2-crypto — cryptographic substrate for the F² encryption scheme
//!
//! The paper relies on three cryptographic building blocks, all implemented here from
//! scratch (the offline crate set contains no cryptography crates):
//!
//! * **AES-128** ([`aes`]) — the block cipher underlying both the deterministic
//!   baseline ("the AES baseline approach uses the well-known AES algorithm for the
//!   deterministic encryption", §5.1) and the pseudorandom function of the
//!   probabilistic scheme. Both only encrypt blocks, so there is no inverse cipher.
//!   Validated against FIPS-197 and AESAVS known-answer vectors.
//! * **PRF-based probabilistic encryption** ([`prob`]) — the paper's cell cipher
//!   `e = ⟨r, F_k(r) ⊕ p⟩` where `r` is a fresh random string and `F` a pseudorandom
//!   function (§2.3, §3.2.2). `F_k` is instantiated as AES-128 in counter mode.
//! * **Paillier** ([`paillier`]) — the probabilistic public-key baseline of Figure 8,
//!   built on an arbitrary-precision integer implementation ([`bigint`]: u64 limbs,
//!   Miller–Rabin prime generation) and a Montgomery/REDC modular-arithmetic engine
//!   ([`montgomery`]: windowed exponentiation with zero divisions in the loop), so
//!   that its per-cell cost has the realistic "orders of magnitude slower than
//!   symmetric encryption" shape without being an artifact of a toy bignum.
//!
//! Key management ([`keys`]) derives independent per-attribute sub-keys from a master
//! key so that equal plaintexts in different columns never produce related ciphertexts.
//!
//! ## Security caveat
//!
//! This crate is a faithful *reproduction substrate* for a research paper: the
//! primitives are implemented for correctness and benchmarking shape, not for
//! side-channel resistance or production deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bigint;
pub mod ciphertext;
pub mod det;
pub mod error;
pub mod keys;
pub mod montgomery;
pub(crate) mod obs;
pub mod paillier;
pub mod prf;
pub mod prob;

pub use aes::Aes128;
pub use bigint::BigUint;
pub use det::DeterministicCipher;
pub use error::CryptoError;
pub use keys::{entropy_seed, splitmix64, MasterKey, SecretKey};
pub use montgomery::Montgomery;
pub use paillier::{PaillierCiphertext, PaillierKeyPair, PaillierPublicKey, RandomnessPool};
pub use prf::Prf;
pub use prob::ProbabilisticCipher;

/// Result alias for cryptographic operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
