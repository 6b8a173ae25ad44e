//! The cell framing of probabilistic ciphertexts.
//!
//! A probabilistic ciphertext is the pair `⟨r, F_k(r) ⊕ p⟩` (§2.3). We frame it as a
//! single byte string `r ‖ body` so that it can be stored in a relational cell
//! ([`f2_relation::Value::Bytes`]-compatible) and shipped to the server as opaque data.

use crate::error::CryptoError;
use crate::Result;

/// Length of the random string `r` (the paper's security parameter λ in bytes).
pub const NONCE_LEN: usize = 16;

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
    fn splits_the_nonce_from_the_body() {
        let mut cell = vec![7u8; NONCE_LEN];
        cell.extend_from_slice(&[1, 2, 3]);
        let (nonce, body) = split_cell(&cell).unwrap();
        assert_eq!(nonce, &[7u8; NONCE_LEN]);
        assert_eq!(body, &[1, 2, 3]);
    }

    #[test]
    fn empty_body_is_allowed() {
        let (nonce, body) = split_cell(&[0u8; NONCE_LEN]).unwrap();
        assert_eq!(nonce, &[0u8; NONCE_LEN]);
        assert_eq!(body, &[] as &[u8]);
    }

    #[test]
    fn short_input_rejected() {
        assert!(matches!(split_cell(&[0u8; 15]), Err(CryptoError::InvalidCiphertext(_))));
        assert!(split_cell(&[]).is_err());
    }
}
