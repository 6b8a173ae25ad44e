//! The paper's probabilistic cell cipher: `e = ⟨r, F_k(r) ⊕ p⟩` (§2.3, §3.2.2).
//!
//! Encrypting the same plaintext twice draws two independent random strings `r`, hence
//! produces two unlinkable ciphertexts — this is exactly the property F² uses to split
//! an equivalence class into several ciphertext instances (Requirement 2 of
//! Definition 3.1). Decryption recomputes `F_k(r)` from the stored `r` and XORs it away.

use crate::ciphertext::{split_cell, NONCE_LEN};
use crate::error::CryptoError;
use crate::keys::SecretKey;
use crate::prf::Prf;
use crate::Result;
use f2_relation::Value;
use rand::Rng;

/// Probabilistic, symmetric, frequency-hiding cell cipher.
#[derive(Debug, Clone)]
pub struct ProbabilisticCipher {
    prf: Prf,
}

/// Plaintext bodies up to this many bytes decrypt into a stack buffer.
const INLINE_PLAIN: usize = 128;

impl ProbabilisticCipher {
    /// Create a cipher from a secret key.
    pub fn new(key: &SecretKey) -> Self {
        ProbabilisticCipher { prf: Prf::new(key) }
    }

    /// Append the cell `r ‖ F_k(r) ⊕ p` to `out`, where `p` is `plaintext` (a
    /// [`Value::encode`] byte string) and `r` is drawn fresh from `rng`. This is the
    /// one cell encoder: every cell this cipher produces is framed here. The
    /// encryptors append all cells of a call to one buffer and hand them out as
    /// slices of it.
    pub fn append_cell(&self, plaintext: &[u8], rng: &mut impl Rng, out: &mut Vec<u8>) {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let body = out.len() + NONCE_LEN;
        out.extend_from_slice(&nonce);
        out.resize(body + plaintext.len(), 0);
        self.prf.mask_into(&nonce, plaintext, &mut out[body..]);
    }

    /// Decrypt a ciphertext cell (as stored in the encrypted table) back to a [`Value`].
    /// The body is unmasked straight from the cell's bytes into a stack buffer; only
    /// a long body takes a heap buffer.
    pub fn decrypt_cell(&self, cell: &Value) -> Result<Value> {
        let bytes = cell
            .as_bytes()
            .ok_or_else(|| CryptoError::InvalidCiphertext("cell is not a byte string".into()))?;
        let (nonce, body) = split_cell(bytes)?;
        let mut inline = [0u8; INLINE_PLAIN];
        let mut heap = Vec::new();
        let plain = match inline.get_mut(..body.len()) {
            Some(plain) => plain,
            None => {
                heap.resize(body.len(), 0);
                &mut heap[..]
            }
        };
        self.prf.mask_into(nonce, body, plain);
        Value::decode(plain).ok_or(CryptoError::DecryptionFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cipher() -> ProbabilisticCipher {
        ProbabilisticCipher::new(&SecretKey::from_bytes([3u8; 16]))
    }

    /// One cell in a buffer of its own.
    fn cell(c: &ProbabilisticCipher, v: &Value, rng: &mut StdRng) -> Value {
        let mut out = Vec::new();
        c.append_cell(&v.encode(), rng, &mut out);
        Value::bytes(out)
    }

    #[test]
    fn roundtrip_values() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(1);
        for v in [
            Value::Null,
            Value::Int(12345),
            Value::text("Hoboken"),
            Value::money(199),
            Value::Date(42),
            Value::bytes(vec![0u8; 40]),
        ] {
            let ct = cell(&c, &v, &mut rng);
            assert_eq!(c.decrypt_cell(&ct).unwrap(), v);
        }
    }

    #[test]
    fn probabilistic_encryption_hides_equality() {
        // Same plaintext, two encryptions → different cells (frequency hiding).
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(2);
        let v = Value::text("a1");
        let e1 = cell(&c, &v, &mut rng);
        let e2 = cell(&c, &v, &mut rng);
        assert_ne!(e1, e2);
        assert_eq!(c.decrypt_cell(&e1).unwrap(), c.decrypt_cell(&e2).unwrap());
    }

    #[test]
    fn same_rng_state_same_cell() {
        // The nonce is the cipher's only randomness: equal RNG states give equal cells.
        let c = cipher();
        let v = Value::text("instance");
        let e1 = cell(&c, &v, &mut StdRng::seed_from_u64(9));
        let e2 = cell(&c, &v, &mut StdRng::seed_from_u64(9));
        assert_eq!(e1, e2);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let c = cipher();
        let other = ProbabilisticCipher::new(&SecretKey::from_bytes([4u8; 16]));
        let mut rng = StdRng::seed_from_u64(3);
        let ct = cell(&c, &Value::text("secret"), &mut rng);
        // With the wrong key the mask is wrong; decoding either fails or yields a
        // different value.
        match other.decrypt_cell(&ct) {
            Ok(v) => assert_ne!(v, Value::text("secret")),
            Err(e) => assert_eq!(e, CryptoError::DecryptionFailed),
        }
    }

    #[test]
    fn cell_roundtrip() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(4);
        let v = Value::Int(-9);
        let cell = cell(&c, &v, &mut rng);
        assert!(cell.is_bytes());
        assert_eq!(c.decrypt_cell(&cell).unwrap(), v);
        assert!(c.decrypt_cell(&Value::text("not bytes")).is_err());
        assert!(c.decrypt_cell(&Value::bytes(vec![1, 2])).is_err());
    }

    #[test]
    fn cells_appended_to_one_buffer_are_the_cells_on_their_own() {
        // Cells appended back to back to one buffer are the bytes each cell has
        // in a buffer of its own, from the same RNG draws.
        let c = cipher();
        let values = [Value::Null, Value::text("x".repeat(200)), Value::Int(7), Value::text("")];
        let (mut a, mut b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        let mut buf = vec![0xAA];
        let mut ends = vec![buf.len()];
        for v in &values {
            c.append_cell(&v.encode(), &mut a, &mut buf);
            ends.push(buf.len());
        }
        assert_eq!(buf[0], 0xAA, "earlier bytes stay");
        for (v, span) in values.iter().zip(ends.windows(2)) {
            let appended = &buf[span[0]..span[1]];
            assert_eq!(Some(appended), cell(&c, v, &mut b).as_bytes());
            assert_eq!(c.decrypt_cell(&Value::bytes(appended.to_vec())).unwrap(), *v);
        }
    }

    #[test]
    fn decrypt_cell_reads_long_bodies_and_keeps_its_errors() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(7);
        for len in [INLINE_PLAIN - 2, INLINE_PLAIN - 1, INLINE_PLAIN, 1000] {
            let v = Value::text("y".repeat(len));
            assert_eq!(c.decrypt_cell(&cell(&c, &v, &mut rng)).unwrap(), v);
        }
        let short = c.decrypt_cell(&Value::bytes(vec![0u8; NONCE_LEN - 1])).unwrap_err();
        assert_eq!(short, split_cell(&[0u8; NONCE_LEN - 1]).unwrap_err());
        assert!(matches!(short, CryptoError::InvalidCiphertext(_)));
        assert!(matches!(
            c.decrypt_cell(&Value::Int(1)).unwrap_err(),
            CryptoError::InvalidCiphertext(_)
        ));
        // A nonce with an empty body unmasks to no bytes, which is no encoding.
        assert_eq!(
            c.decrypt_cell(&Value::bytes(vec![0u8; NONCE_LEN])).unwrap_err(),
            CryptoError::DecryptionFailed
        );
    }

    #[test]
    fn ciphertext_length_tracks_plaintext_length() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(5);
        let short = cell(&c, &Value::text("ab"), &mut rng);
        let long = cell(&c, &Value::text("abcdefghijklmnop"), &mut rng);
        let len = |v: &Value| v.as_bytes().unwrap().len();
        assert!(len(&long) > len(&short));
        assert_eq!(len(&long) - len(&short), "abcdefghijklmnop".len() - "ab".len());
    }
}
