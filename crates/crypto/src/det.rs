//! Deterministic cell encryption — the "AES" baseline of Figure 8.
//!
//! The paper's naive scheme (Figure 1(b)) encrypts every cell with a deterministic
//! cipher: equal plaintexts map to equal ciphertexts, which trivially preserves FDs but
//! leaks the exact frequency distribution and is therefore vulnerable to the frequency
//! analysis attack. We reproduce that baseline as AES-128 over the padded value
//! encoding with a synthetic-IV construction (the IV is a PRF of the plaintext), so the
//! mapping is deterministic per key yet not an ECB codebook of a single block.

use crate::aes::Aes128;
use crate::ciphertext::NONCE_LEN;
use crate::error::CryptoError;
use crate::keys::SecretKey;
use crate::prf::Prf;
use crate::Result;
use f2_relation::Value;

/// Deterministic, frequency-revealing cell cipher (the paper's AES baseline).
#[derive(Debug, Clone)]
pub struct DeterministicCipher {
    iv_prf: Prf,
    cipher: Aes128,
    mask_prf: Prf,
}

impl DeterministicCipher {
    /// Create a deterministic cipher from a secret key; independent sub-keys for the
    /// IV derivation and the body mask are derived internally.
    pub fn new(key: &SecretKey) -> Self {
        let root = Aes128::new(key.as_bytes());
        let mut iv_key = [0u8; 16];
        iv_key[0] = 1;
        root.encrypt_block(&mut iv_key);
        let mut mask_key = [0u8; 16];
        mask_key[0] = 2;
        root.encrypt_block(&mut mask_key);
        DeterministicCipher {
            iv_prf: Prf::new(&SecretKey::from_bytes(iv_key)),
            cipher: Aes128::new(key.as_bytes()),
            mask_prf: Prf::new(&SecretKey::from_bytes(mask_key)),
        }
    }

    /// Append the deterministic cell of `plaintext` (a [`Value::encode`] byte
    /// string) to `out`: its synthetic IV, then the body masked under it. This is
    /// the one cell encoder; the deterministic backend appends all cells of a call
    /// to one buffer and hands them out as slices of it.
    pub fn append_cell(&self, plaintext: &[u8], out: &mut Vec<u8>) {
        // Synthetic IV: a PRF over the full plaintext, folded into one block.
        let mut iv = [0u8; 16];
        for (i, b) in plaintext.iter().enumerate() {
            iv[i % 16] ^= *b;
            iv[(i + 7) % 16] = iv[(i + 7) % 16].wrapping_add(*b).rotate_left(3);
        }
        iv = self.iv_prf.block(&iv);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&(plaintext.len() as u64).to_le_bytes());
        for i in 0..16 {
            len_block[i] ^= iv[i];
        }
        let siv = self.cipher.encrypt_block_copy(&len_block);
        // Mask the body with a keystream seeded by the synthetic IV.
        let body = out.len() + NONCE_LEN;
        out.extend_from_slice(&siv);
        out.resize(body + plaintext.len(), 0);
        self.mask_prf.mask_into(&siv, plaintext, &mut out[body..]);
    }

    /// Decrypt the bytes of a cell [`DeterministicCipher::append_cell`] made.
    pub fn decrypt_bytes(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() < NONCE_LEN {
            return Err(CryptoError::InvalidCiphertext(
                "deterministic ciphertext too short".into(),
            ));
        }
        let mut siv = [0u8; 16];
        siv.copy_from_slice(&ciphertext[..NONCE_LEN]);
        Ok(self.mask_prf.mask(&siv, &ciphertext[NONCE_LEN..]))
    }

    /// Decrypt a ciphertext cell back to the original [`Value`].
    pub fn decrypt_value(&self, cell: &Value) -> Result<Value> {
        let bytes = cell
            .as_bytes()
            .ok_or_else(|| CryptoError::InvalidCiphertext("cell is not a byte string".into()))?;
        let plain = self.decrypt_bytes(bytes)?;
        Value::decode(&plain).ok_or(CryptoError::DecryptionFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> DeterministicCipher {
        DeterministicCipher::new(&SecretKey::from_bytes([0xAB; 16]))
    }

    /// One cell in a buffer of its own.
    fn encrypt_bytes(c: &DeterministicCipher, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.append_cell(plaintext, &mut out);
        out
    }

    fn encrypt_value(c: &DeterministicCipher, v: &Value) -> Value {
        Value::bytes(encrypt_bytes(c, &v.encode()))
    }

    #[test]
    fn deterministic_equal_plaintexts_equal_ciphertexts() {
        let c = cipher();
        let a = encrypt_value(&c, &Value::text("a1"));
        let b = encrypt_value(&c, &Value::text("a1"));
        assert_eq!(a, b, "deterministic encryption must preserve equality");
        let other = encrypt_value(&c, &Value::text("a2"));
        assert_ne!(a, other);
    }

    #[test]
    fn cells_appended_to_one_buffer_are_the_cells_on_their_own() {
        let c = cipher();
        let values = [Value::Null, Value::text("x".repeat(200)), Value::Int(7), Value::text("")];
        let mut buf = vec![0xAA];
        let mut ends = vec![buf.len()];
        for v in &values {
            c.append_cell(&v.encode(), &mut buf);
            ends.push(buf.len());
        }
        assert_eq!(buf[0], 0xAA, "earlier bytes stay");
        for (v, span) in values.iter().zip(ends.windows(2)) {
            assert_eq!(buf[span[0]..span[1]], encrypt_bytes(&c, &v.encode())[..]);
            assert_eq!(c.decrypt_value(&Value::bytes(buf[span[0]..span[1]].to_vec())).unwrap(), *v);
        }
    }

    #[test]
    fn roundtrip() {
        let c = cipher();
        for v in [
            Value::Null,
            Value::Int(7),
            Value::text("Zipcode determines City"),
            Value::money(10_000),
        ] {
            let e = encrypt_value(&c, &v);
            assert_eq!(c.decrypt_value(&e).unwrap(), v);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = DeterministicCipher::new(&SecretKey::from_bytes([1u8; 16]));
        let b = DeterministicCipher::new(&SecretKey::from_bytes([2u8; 16]));
        assert_ne!(encrypt_value(&a, &Value::Int(5)), encrypt_value(&b, &Value::Int(5)));
    }

    #[test]
    fn similar_plaintexts_produce_unrelated_ciphertexts() {
        let c = cipher();
        let a = encrypt_bytes(&c, b"aaaaaaaaaaaaaaaa");
        let b = encrypt_bytes(&c, b"aaaaaaaaaaaaaaab");
        // SIV differs, so the whole ciphertext (including the first block) differs.
        assert_ne!(&a[..16], &b[..16]);
    }

    #[test]
    fn invalid_cells_rejected() {
        let c = cipher();
        assert!(c.decrypt_value(&Value::Int(3)).is_err());
        assert!(c.decrypt_value(&Value::bytes(vec![0u8; 4])).is_err());
    }
}
