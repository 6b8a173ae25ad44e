//! Ciphertext framing.
//!
//! A probabilistic ciphertext is the pair `⟨r, F_k(r) ⊕ p⟩` (§2.3). We frame it as a
//! single byte string `r ‖ body` so that it can be stored in a relational cell
//! ([`f2_relation::Value::Bytes`]-compatible) and shipped to the server as opaque data.

use crate::error::CryptoError;
use crate::Result;
use bytes::Bytes;

/// Length of the random string `r` (the paper's security parameter λ in bytes).
pub const NONCE_LEN: usize = 16;

/// A framed probabilistic ciphertext `⟨r, F_k(r) ⊕ p⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ciphertext {
    nonce: [u8; NONCE_LEN],
    body: Vec<u8>,
}

impl Ciphertext {
    /// Assemble a ciphertext from its parts.
    pub fn new(nonce: [u8; NONCE_LEN], body: Vec<u8>) -> Self {
        Ciphertext { nonce, body }
    }

    /// The random string `r`.
    pub fn nonce(&self) -> &[u8; NONCE_LEN] {
        &self.nonce
    }

    /// The masked plaintext `F_k(r) ⊕ p`.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serialize to a flat byte string `r ‖ body`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + self.body.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.body);
        out
    }

    /// Serialize into a [`Bytes`] buffer suitable for a relational cell.
    pub fn to_cell(&self) -> Bytes {
        Bytes::from(self.to_bytes())
    }

    /// Parse a flat byte string back into a ciphertext.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (nonce, body) = split_cell(bytes)?;
        Ok(Ciphertext { nonce: *nonce, body: body.to_vec() })
    }

    /// Total serialized length.
    pub fn len(&self) -> usize {
        NONCE_LEN + self.body.len()
    }

    /// A ciphertext is never empty (it always carries a nonce).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Split a flat `r ‖ body` byte string into its nonce and body, without copying.
pub(crate) fn split_cell(bytes: &[u8]) -> Result<(&[u8; NONCE_LEN], &[u8])> {
    bytes.split_first_chunk().ok_or_else(|| {
        CryptoError::InvalidCiphertext(format!(
            "ciphertext of {} bytes is shorter than the {NONCE_LEN}-byte nonce",
            bytes.len()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = Ciphertext::new([7u8; 16], vec![1, 2, 3]);
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), 19);
        assert_eq!(c.len(), 19);
        assert!(!c.is_empty());
        let back = Ciphertext::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.nonce(), &[7u8; 16]);
        assert_eq!(back.body(), &[1, 2, 3]);
    }

    #[test]
    fn empty_body_is_allowed() {
        let c = Ciphertext::new([0u8; 16], vec![]);
        let back = Ciphertext::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.body(), &[] as &[u8]);
    }

    #[test]
    fn short_input_rejected() {
        assert!(Ciphertext::from_bytes(&[0u8; 15]).is_err());
        assert!(Ciphertext::from_bytes(&[]).is_err());
    }

    #[test]
    fn cell_conversion() {
        let c = Ciphertext::new([1u8; 16], vec![9, 9]);
        let cell = c.to_cell();
        assert_eq!(cell.len(), 18);
        let back = Ciphertext::from_bytes(&cell).unwrap();
        assert_eq!(back, c);
    }
}
