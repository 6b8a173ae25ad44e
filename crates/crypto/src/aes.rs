//! AES-128 block cipher (FIPS-197), implemented from first principles.
//!
//! Encryption only: every cipher built on it (the PRF, the deterministic and the
//! probabilistic cell ciphers) runs the block cipher forwards, so there is no inverse
//! cipher. The S-box is *derived* (multiplicative inverse in GF(2⁸) followed by the
//! affine transform) rather than hard-coded, and the cipher is validated against
//! FIPS-197 and AESAVS known-answer vectors, so a table typo cannot silently corrupt
//! the scheme.

/// Number of 32-bit words in an AES-128 key.
const NK: usize = 4;
/// Number of rounds for AES-128.
const NR: usize = 10;

/// Multiply two elements of GF(2⁸) with the AES reduction polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸) (0 maps to 0), by exponentiation to the 254th power.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^(2+4+8+16+32+64+128)
    let mut result = 1u8;
    let mut power = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, power);
        }
        power = gf_mul(power, power);
        exp >>= 1;
    }
    result
}

/// Generate the AES S-box: affine transform of the field inverse.
fn generate_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    for (i, slot) in sbox.iter_mut().enumerate() {
        let inv = gf_inv(i as u8);
        let mut x = inv;
        let mut res = inv;
        for _ in 0..4 {
            x = x.rotate_left(1);
            res ^= x;
        }
        *slot = res ^ 0x63;
    }
    sbox
}

/// Derive the four encryption T-tables (Rijndael's standard round linearisation:
/// SubBytes + MixColumns fused into one 32-bit lookup per state byte, the three
/// sibling tables being byte rotations of the first). Like the S-box they are
/// *derived*, so the known-answer vector tests guard them.
fn generate_enc_tables(sbox: &[u8; 256]) -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    for i in 0..256 {
        let s = sbox[i];
        let word = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
        te[0][i] = word;
        te[1][i] = word.rotate_right(8);
        te[2][i] = word.rotate_right(16);
        te[3][i] = word.rotate_right(24);
    }
    te
}

/// All key-independent AES tables, derived once per process: the S-box and the fused
/// encryption T-tables.
struct AesTables {
    sbox: [u8; 256],
    te: [[u32; 256]; 4],
}

/// The shared, lazily-derived table set. Key expansion used to re-derive the S-box
/// (256 bit-serial field inversions) per cipher instance, which the F² pipeline pays
/// once per attribute per chunk — globally cached it is paid once per process.
fn tables() -> &'static AesTables {
    static TABLES: std::sync::OnceLock<AesTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let sbox = generate_sbox();
        AesTables { sbox, te: generate_enc_tables(&sbox) }
    })
}

/// An expanded AES-128 key, ready to encrypt 16-byte blocks.
///
/// Encryption (every PRF evaluation — the system's innermost loop) runs on fused
/// T-tables: one round is 16 table lookups plus xors instead of byte-wise
/// SubBytes/ShiftRows/MixColumns with bit-serial GF(2⁸) multiplications. The instance
/// stores only the expanded key; all tables live in the process-wide `tables` cache.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as big-endian column words.
    round_key_words: [[u32; 4]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes128 {{ .. }}")
    }
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let sbox = tables().sbox;
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for i in 0..NK {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_key_words = [[0u32; 4]; NR + 1];
        for (r, rk) in round_key_words.iter_mut().enumerate() {
            for (c, word) in rk.iter_mut().enumerate() {
                *word = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 { round_key_words }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let (te, rk) = (&tables().te, &self.round_key_words);
        // State as big-endian column words (word j = column j, byte 0 = row 0).
        let mut c = [0u32; 4];
        for (j, w) in c.iter_mut().enumerate() {
            *w =
                u32::from_be_bytes(block[4 * j..4 * j + 4].try_into().expect("4 bytes")) ^ rk[0][j];
        }
        for rk_round in &rk[1..NR] {
            let t = [
                te[0][(c[0] >> 24) as usize]
                    ^ te[1][((c[1] >> 16) & 0xff) as usize]
                    ^ te[2][((c[2] >> 8) & 0xff) as usize]
                    ^ te[3][(c[3] & 0xff) as usize]
                    ^ rk_round[0],
                te[0][(c[1] >> 24) as usize]
                    ^ te[1][((c[2] >> 16) & 0xff) as usize]
                    ^ te[2][((c[3] >> 8) & 0xff) as usize]
                    ^ te[3][(c[0] & 0xff) as usize]
                    ^ rk_round[1],
                te[0][(c[2] >> 24) as usize]
                    ^ te[1][((c[3] >> 16) & 0xff) as usize]
                    ^ te[2][((c[0] >> 8) & 0xff) as usize]
                    ^ te[3][(c[1] & 0xff) as usize]
                    ^ rk_round[2],
                te[0][(c[3] >> 24) as usize]
                    ^ te[1][((c[0] >> 16) & 0xff) as usize]
                    ^ te[2][((c[1] >> 8) & 0xff) as usize]
                    ^ te[3][(c[2] & 0xff) as usize]
                    ^ rk_round[3],
            ];
            c = t;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let sb = &tables().sbox;
        for j in 0..4 {
            let word = u32::from_be_bytes([
                sb[(c[j] >> 24) as usize],
                sb[((c[(j + 1) % 4] >> 16) & 0xff) as usize],
                sb[((c[(j + 2) % 4] >> 8) & 0xff) as usize],
                sb[(c[(j + 3) % 4] & 0xff) as usize],
            ]) ^ rk[NR][j];
            block[4 * j..4 * j + 4].copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Encrypt a copy of the block and return it.
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_matches_known_entries() {
        let sbox = generate_sbox();
        // Spot-check well-known S-box entries from FIPS-197 Figure 7.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        // A permutation of the bytes: every output occurs exactly once.
        let mut seen = [false; 256];
        for &v in &sbox {
            assert!(!seen[v as usize], "S-box repeats {v:#04x}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn gf_arithmetic() {
        // Examples from FIPS-197 §4.2.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse failed for {a}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    /// Known-answer vectors: (key, plaintext, ciphertext), hex.
    const KNOWN_ANSWERS: [(&str, &str, &str); 7] = [
        // FIPS-197 Appendix B.
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        // FIPS-197 Appendix C.1.
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        // AESAVS VarTxt #0.
        (
            "00000000000000000000000000000000",
            "80000000000000000000000000000000",
            "3ad78e726c1ec02b7ebfe92b23d9ec34",
        ),
        // AESAVS GFSbox #0.
        (
            "00000000000000000000000000000000",
            "f34481ec3cc627bacd5dc3fb08f273e6",
            "0336763e966d92595a567cc9ce537f5e",
        ),
        // AESAVS KeySbox #0.
        (
            "10a58869d74be5a374cf867cfb473859",
            "00000000000000000000000000000000",
            "6d251e6944b051e04eaa6fb4dbf78465",
        ),
        // AESAVS VarKey #0.
        (
            "80000000000000000000000000000000",
            "00000000000000000000000000000000",
            "0edd33d3c621e546455bd8ba1418bec8",
        ),
        // All-zero key and block.
        (
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "66e94bd4ef8a2c3b884cfa59ca342b2e",
        ),
    ];

    #[test]
    fn known_answer_vectors() {
        for (key, plaintext, ciphertext) in KNOWN_ANSWERS {
            let aes = Aes128::new(&hex(key).try_into().unwrap());
            let mut block: [u8; 16] = hex(plaintext).try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex(ciphertext), "key {key}, plaintext {plaintext}");
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(&[1u8; 16]);
        let b = Aes128::new(&[2u8; 16]);
        let block = [0u8; 16];
        assert_ne!(a.encrypt_block_copy(&block), b.encrypt_block_copy(&block));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('9'));
    }
}
