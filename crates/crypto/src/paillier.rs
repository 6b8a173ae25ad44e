//! Paillier public-key encryption — the probabilistic baseline of Figure 8.
//!
//! The paper compares F² against "the asymmetric Paillier encryption for the
//! probabilistic encryption" (§5.1) and observes that Paillier is orders of magnitude
//! slower (it "cannot finish within one day when the data size reaches 0.653GB"). To
//! reproduce that comparison without an external crypto crate we implement textbook
//! Paillier on top of [`crate::BigUint`] and the Montgomery engine
//! ([`crate::Montgomery`]):
//!
//! * key generation with two random primes `p`, `q` (Miller–Rabin),
//! * encryption `c = (1 + m·n) · rⁿ mod n²` using the standard `g = n + 1` shortcut,
//!   with the `rⁿ` exponentiation running in a per-key Montgomery context for `n²`,
//! * decryption `m = L(c^λ mod n²) · μ mod n`, computed by default via the standard
//!   CRT speed-up over `p²` and `q²` (half-width moduli, half-length exponents —
//!   roughly 4× less multiplication work than the direct form, same result;
//!   [`PaillierKeyPair::decrypt_generic`] keeps the direct path for equivalence
//!   testing),
//! * the additive homomorphism `E(m₁)·E(m₂) = E(m₁+m₂)`,
//! * a [`RandomnessPool`] that amortises the `rⁿ mod n²` blinding exponentiation
//!   across bulk encryptions ([`PaillierPublicKey::encrypt_batch`]).
//!
//! The default modulus size is 512 bits — small by modern deployment standards but
//! large enough that the *relative* cost of Paillier versus AES-based encryption
//! matches the paper's qualitative result.

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::montgomery::Montgomery;
use crate::Result;
use f2_relation::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Default modulus size (bits) used by the benchmark harness.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Paillier public key `(n, n²)` with a precomputed Montgomery context for `n²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
    /// Montgomery context for `Z_{n²}` — `n²` is odd (product of odd primes), so the
    /// whole encryption hot path runs division-free.
    mont_n2: Montgomery,
}

/// Paillier ciphertext: an element of `Z*_{n²}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Serialize as a big-endian byte string (no fixed width; use
    /// [`PaillierPublicKey::ciphertext_width`] to frame several ciphertexts in one
    /// buffer).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Parse a big-endian byte string produced by
    /// [`PaillierCiphertext::to_bytes_be`] (leading zero bytes are allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        PaillierCiphertext(BigUint::from_bytes_be(bytes))
    }
}

/// A pool of precomputed `rⁿ mod n²` blinding factors (in Montgomery form).
///
/// The dominating cost of a Paillier encryption is the blinding exponentiation
/// `rⁿ mod n²` — `(1 + m·n)` is a single multiplication. This pool front-loads two
/// full exponentiations and then derives each subsequent blinding factor with one
/// Montgomery multiplication plus one **64-bit** exponentiation: on every draw two
/// pooled factors fold together (`fᵢ ← fᵢ·fⱼ`) and the result is raised to a secret
/// odd 64-bit exponent `e` drawn from the pool's own RNG. Both steps preserve the
/// `(·)ⁿ` shape (`rᵢⁿ·rⱼⁿ = (rᵢ·rⱼ)ⁿ`, `(rⁿ)ᵉ = (rᵉ)ⁿ`), so ciphertexts stay
/// well-formed and decrypt normally at roughly an eighth of the full-exponentiation
/// cost (a 64-bit exponent versus the |n|-bit one).
///
/// The secret per-draw exponent is what makes the amortisation sound: without it,
/// the fold walk alone yields draws with *publicly computable* multiplicative
/// relations (after one cursor cycle, a draw equals the product of two earlier
/// ones), which would let a keyless adversary cancel blindings across ciphertexts
/// of one batch and read off linear relations between plaintexts.
///
/// **Security trade-off:** pool draws are still derived from two base randomizers
/// and the pool RNG rather than independent per-message randomness. That matches
/// this repository's purpose — an honest *timing* baseline for the paper's Figure 8
/// comparison — but a real deployment should pay for a fresh full exponentiation
/// per message ([`PaillierPublicKey::encrypt`] still does).
#[derive(Debug, Clone)]
pub struct RandomnessPool {
    /// Montgomery-form blinding factors `rᵢⁿ·R mod n²`.
    factors: Vec<BigUint>,
    /// Rotating index of the factor mutated by the next draw.
    cursor: usize,
    /// Source of the secret per-draw exponents.
    rng: StdRng,
    /// The `n²` the factors were computed under (guards against key mix-ups).
    n_squared: BigUint,
}

impl RandomnessPool {
    /// Default number of pooled factors.
    pub const DEFAULT_SIZE: usize = 8;

    /// Build a pool of `size` factors (clamped to ≥ 2) for `public`.
    ///
    /// Costs two full `rⁿ` exponentiations; the remaining slots are filled by
    /// squaring (`(rⁿ)² = (r²)ⁿ`, one multiplication each), so pool construction is
    /// cheap even when a table only yields a handful of chunks.
    pub fn new(public: &PaillierPublicKey, size: usize, rng: &mut impl Rng) -> Self {
        let size = size.max(2);
        let mut factors = Vec::with_capacity(size);
        for _ in 0..2 {
            let r = public.sample_coprime(rng);
            factors.push(public.mont_n2.pow_mont(&r, &public.n));
        }
        while factors.len() < size {
            let prev = factors.last().expect("seeded above");
            factors.push(public.mont_n2.mont_mul(prev, prev));
        }
        RandomnessPool {
            factors,
            cursor: 0,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            n_squared: public.n_squared.clone(),
        }
    }

    /// Number of pooled factors.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// True if the pool holds no factors (never the case for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Draw the next Montgomery-form blinding factor: fold two pooled factors and
    /// raise the result to a secret odd 64-bit exponent.
    fn next_blinding(&mut self, public: &PaillierPublicKey) -> BigUint {
        crate::obs::pool_draws().inc();
        debug_assert_eq!(
            self.n_squared, public.n_squared,
            "randomness pool used with a different Paillier key"
        );
        let i = self.cursor;
        let j = (i + 1) % self.factors.len();
        self.cursor = j;
        let folded = public.mont_n2.mont_mul(&self.factors[i], &self.factors[j]);
        self.factors[i] = folded.clone();
        // Odd exponent: never zero, and coprime with the order-2 part of Z*_{n²}.
        let e = BigUint::from_u64(self.rng.next_u64() | 1);
        public.mont_n2.pow_mont_of(&folded, &e)
    }
}

/// A Paillier key pair: public key plus the private factorisation (`p`, `q`) with
/// precomputed CRT decryption data, and the textbook `λ`, `μ` for the generic path.
#[derive(Debug, Clone)]
pub struct PaillierKeyPair {
    public: PaillierPublicKey,
    lambda: BigUint,
    mu: BigUint,
    /// First prime factor of `n`.
    p: BigUint,
    /// Second prime factor of `n`.
    q: BigUint,
    /// Montgomery context for `Z_{p²}` (CRT leg 1).
    mont_p2: Montgomery,
    /// Montgomery context for `Z_{q²}` (CRT leg 2).
    mont_q2: Montgomery,
    /// `p − 1` (CRT exponent; Fermat replaces λ on each leg).
    p_minus_1: BigUint,
    /// `q − 1`.
    q_minus_1: BigUint,
    /// `hp = L_p(g^(p−1) mod p²)⁻¹ mod p`.
    hp: BigUint,
    /// `hq = L_q(g^(q−1) mod q²)⁻¹ mod q`.
    hq: BigUint,
    /// `p⁻¹ mod q` (Garner recombination).
    p_inv_mod_q: BigUint,
}

impl PaillierPublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The Montgomery context for `n²` (for callers composing their own
    /// ciphertext-space arithmetic, e.g. bulk homomorphic aggregation).
    pub fn n_squared_context(&self) -> &Montgomery {
        &self.mont_n2
    }

    /// Sample `r` uniformly from `[1, n)` coprime with `n` (overwhelmingly likely on
    /// the first draw for an honest modulus).
    fn sample_coprime(&self, rng: &mut impl Rng) -> BigUint {
        loop {
            let candidate = BigUint::random_below(&self.n, rng);
            if candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        }
    }

    /// `g^m = (n+1)^m = 1 + m·n (mod n²)` — the cheap half of an encryption.
    fn g_pow_m(&self, m: &BigUint) -> BigUint {
        BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared)
    }

    /// Encrypt a message `m < n` with fresh randomness (one full `rⁿ`
    /// exponentiation; bulk callers should use [`PaillierPublicKey::encrypt_batch`]).
    pub fn encrypt(&self, m: &BigUint, rng: &mut impl Rng) -> Result<PaillierCiphertext> {
        if m.cmp_to(&self.n) != Ordering::Less {
            return Err(CryptoError::MessageOutOfRange);
        }
        let r = self.sample_coprime(rng);
        // rⁿ in Montgomery form; multiplying the plain (1 + m·n) by a Montgomery
        // operand yields the plain product — no conversions on the output.
        let r_n_mont = self.mont_n2.pow_mont(&r, &self.n);
        Ok(PaillierCiphertext(self.mont_n2.mont_mul(&self.g_pow_m(m), &r_n_mont)))
    }

    /// Encrypt with a pooled blinding factor: one Montgomery multiplication for the
    /// blinding instead of a full exponentiation (see [`RandomnessPool`]).
    pub fn encrypt_with_pool(
        &self,
        m: &BigUint,
        pool: &mut RandomnessPool,
    ) -> Result<PaillierCiphertext> {
        if m.cmp_to(&self.n) != Ordering::Less {
            return Err(CryptoError::MessageOutOfRange);
        }
        let blinding = pool.next_blinding(self);
        Ok(PaillierCiphertext(self.mont_n2.mont_mul(&self.g_pow_m(m), &blinding)))
    }

    /// Encrypt a batch of messages through one [`RandomnessPool`] — the bulk entry
    /// point the table-encryption backends (and the streaming engine's chunk
    /// workers, via `PaillierScheme::encrypt`) drive. After the pool's fixed setup
    /// cost, each message costs two Montgomery multiplications plus one `(1 + m·n)`
    /// product.
    pub fn encrypt_batch(
        &self,
        messages: &[BigUint],
        pool: &mut RandomnessPool,
    ) -> Result<Vec<PaillierCiphertext>> {
        messages.iter().map(|m| self.encrypt_with_pool(m, pool)).collect()
    }

    /// Encrypt a relational [`Value`]: the value's encoding is folded into an integer
    /// smaller than `n`. This is the per-cell operation timed in Figure 8.
    pub fn encrypt_value(&self, value: &Value, rng: &mut impl Rng) -> Result<PaillierCiphertext> {
        let m = fold_value(value, &self.n);
        self.encrypt(&m, rng)
    }

    /// Fixed serialized width (bytes) that can hold any ciphertext under this key:
    /// ciphertexts are elements of `Z_{n²}`, so `⌈bits(n²) / 8⌉` bytes suffice.
    pub fn ciphertext_width(&self) -> usize {
        self.n_squared.bits().div_ceil(8)
    }

    /// Largest number of plaintext bytes that can be embedded losslessly in one
    /// ciphertext: a `0x01`-prefixed chunk of this size is an integer below `2^(8·k)`
    /// with `8·k < bits(n)`, hence strictly smaller than `n`. Returns 0 (rather than
    /// underflowing) for moduli too small to carry any payload byte.
    pub fn plaintext_chunk_size(&self) -> usize {
        (self.n.bits().saturating_sub(1) / 8).saturating_sub(1)
    }

    /// Homomorphic addition: `E(m1) ⊕ E(m2) = E(m1 + m2 mod n)`.
    pub fn add_ciphertexts(
        &self,
        a: &PaillierCiphertext,
        b: &PaillierCiphertext,
    ) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mul_mod(&b.0, &self.n_squared))
    }
}

impl PaillierKeyPair {
    /// Generate a key pair with the given modulus size in bits.
    pub fn generate(modulus_bits: usize, rng: &mut impl Rng) -> Result<Self> {
        if modulus_bits < 16 || !modulus_bits.is_multiple_of(2) {
            return Err(CryptoError::KeyGeneration(format!(
                "modulus size {modulus_bits} must be an even number of bits ≥ 16"
            )));
        }
        let half = modulus_bits / 2;
        let (p, q) = loop {
            let p = BigUint::generate_prime(half, rng);
            let q = BigUint::generate_prime(half, rng);
            if p != q {
                break (p, q);
            }
        };
        let n = p.mul(&q);
        let n_squared = n.mul(&n);
        let one = BigUint::one();
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        // mu = (L(g^lambda mod n^2))^{-1} mod n, with g = n + 1:
        // g^lambda mod n^2 = 1 + lambda*n (mod n^2), so L(..) = lambda mod n.
        let mont_n2 = Montgomery::new(&n_squared)
            .ok_or_else(|| CryptoError::KeyGeneration("modulus n² not odd".into()))?;
        let g = n.add(&one);
        let g_lambda = mont_n2.pow(&g, &lambda);
        let l = l_function(&g_lambda, &n)?;
        let mu = l
            .mod_inverse(&n)
            .ok_or_else(|| CryptoError::KeyGeneration("L(g^λ) not invertible".into()))?;
        // CRT decryption data. With g = n + 1 and n ≡ 0 mod p·q:
        // g^(p−1) mod p² = 1 + (p−1)·n mod p² (higher powers of n vanish mod p²),
        // so L_p(g^(p−1)) = (p−1)·q mod p — no exponentiation needed here.
        let p_squared = p.mul(&p);
        let q_squared = q.mul(&q);
        let mont_p2 = Montgomery::new(&p_squared)
            .ok_or_else(|| CryptoError::KeyGeneration("p² not odd".into()))?;
        let mont_q2 = Montgomery::new(&q_squared)
            .ok_or_else(|| CryptoError::KeyGeneration("q² not odd".into()))?;
        let p_minus_1 = p.sub(&one);
        let q_minus_1 = q.sub(&one);
        let hp = p_minus_1
            .mul(&q)
            .rem(&p)
            .mod_inverse(&p)
            .ok_or_else(|| CryptoError::KeyGeneration("L_p(g^(p−1)) not invertible".into()))?;
        let hq = q_minus_1
            .mul(&p)
            .rem(&q)
            .mod_inverse(&q)
            .ok_or_else(|| CryptoError::KeyGeneration("L_q(g^(q−1)) not invertible".into()))?;
        let p_inv_mod_q = p
            .mod_inverse(&q)
            .ok_or_else(|| CryptoError::KeyGeneration("p not invertible mod q".into()))?;
        Ok(PaillierKeyPair {
            public: PaillierPublicKey { n, n_squared, mont_n2 },
            lambda,
            mu,
            p,
            q,
            mont_p2,
            mont_q2,
            p_minus_1,
            q_minus_1,
            hp,
            hq,
            p_inv_mod_q,
        })
    }

    /// The public key.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypt a ciphertext back to the message `m < n` (CRT fast path).
    ///
    /// Computes `m` modulo `p` and `q` separately — exponent `p−1` (Fermat) over the
    /// half-width modulus `p²`, both in Montgomery form — and recombines with
    /// Garner's formula. Identical output to [`PaillierKeyPair::decrypt_generic`]
    /// (property-tested) at roughly a quarter of the multiplication work.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> Result<BigUint> {
        let m_p = self.decrypt_leg(&c.0, &self.p, &self.mont_p2, &self.p_minus_1, &self.hp)?;
        let m_q = self.decrypt_leg(&c.0, &self.q, &self.mont_q2, &self.q_minus_1, &self.hq)?;
        // Garner: m = m_p + p·((m_q − m_p)·p⁻¹ mod q).
        let diff = m_q.add(&self.q).sub(&m_p.rem(&self.q)).rem(&self.q);
        let t = diff.mul_mod(&self.p_inv_mod_q, &self.q);
        Ok(m_p.add(&self.p.mul(&t)))
    }

    /// One CRT leg: `L_s(c^(s−1) mod s²) · h_s mod s` for a prime factor `s`.
    fn decrypt_leg(
        &self,
        c: &BigUint,
        s: &BigUint,
        mont_s2: &Montgomery,
        s_minus_1: &BigUint,
        h: &BigUint,
    ) -> Result<BigUint> {
        let x = mont_s2.pow(c, s_minus_1);
        let l = l_function(&x, s)?;
        Ok(l.mul_mod(h, s))
    }

    /// Decrypt via the textbook direct formula `m = L(c^λ mod n²) · μ mod n` —
    /// kept as the reference implementation the CRT path is equivalence-tested
    /// against.
    pub fn decrypt_generic(&self, c: &PaillierCiphertext) -> Result<BigUint> {
        let x = self.public.mont_n2.pow(&c.0, &self.lambda);
        let l = l_function(&x, &self.public.n)?;
        Ok(l.mul_mod(&self.mu, &self.public.n))
    }
}

/// Paillier's `L(x) = (x - 1) / n`; fails if `x − 1` is not divisible by `n` (which
/// never happens for valid input).
fn l_function(x: &BigUint, n: &BigUint) -> Result<BigUint> {
    if x.is_zero() {
        return Err(CryptoError::InvalidCiphertext("L(0) undefined".into()));
    }
    let (q, r) = x.sub(&BigUint::one()).div_rem(n);
    if !r.is_zero() {
        return Err(CryptoError::InvalidCiphertext("x - 1 not divisible by n".into()));
    }
    Ok(q)
}

/// Fold an arbitrary value encoding into an integer `< n`.
fn fold_value(value: &Value, n: &BigUint) -> BigUint {
    let bytes = value.encode();
    BigUint::from_bytes_be(&bytes).rem(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_keypair(seed: u64) -> PaillierKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        PaillierKeyPair::generate(128, &mut rng).unwrap()
    }

    #[test]
    fn keygen_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(PaillierKeyPair::generate(15, &mut rng).is_err());
        assert!(PaillierKeyPair::generate(14, &mut rng).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = small_keypair(1);
        let mut rng = StdRng::seed_from_u64(2);
        for m in [0u64, 1, 42, 9999, 123_456_789] {
            let msg = BigUint::from_u64(m);
            let c = kp.public().encrypt(&msg, &mut rng).unwrap();
            assert_eq!(kp.decrypt(&c).unwrap(), msg);
            assert_eq!(kp.decrypt_generic(&c).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_probabilistic() {
        let kp = small_keypair(3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = BigUint::from_u64(77);
        let c1 = kp.public().encrypt(&m, &mut rng).unwrap();
        let c2 = kp.public().encrypt(&m, &mut rng).unwrap();
        assert_ne!(c1, c2, "Paillier must be probabilistic");
        assert_eq!(kp.decrypt(&c1).unwrap(), kp.decrypt(&c2).unwrap());
    }

    #[test]
    fn additive_homomorphism() {
        let kp = small_keypair(5);
        let mut rng = StdRng::seed_from_u64(6);
        let a = BigUint::from_u64(1000);
        let b = BigUint::from_u64(2345);
        let ca = kp.public().encrypt(&a, &mut rng).unwrap();
        let cb = kp.public().encrypt(&b, &mut rng).unwrap();
        let sum = kp.public().add_ciphertexts(&ca, &cb);
        assert_eq!(kp.decrypt(&sum).unwrap(), BigUint::from_u64(3345));
    }

    #[test]
    fn message_out_of_range_rejected() {
        let kp = small_keypair(7);
        let mut rng = StdRng::seed_from_u64(8);
        let too_big = kp.public().modulus().clone();
        assert_eq!(
            kp.public().encrypt(&too_big, &mut rng).unwrap_err(),
            CryptoError::MessageOutOfRange
        );
        let mut pool = RandomnessPool::new(kp.public(), 4, &mut rng);
        assert_eq!(
            kp.public().encrypt_with_pool(&too_big, &mut pool).unwrap_err(),
            CryptoError::MessageOutOfRange
        );
    }

    #[test]
    fn value_encryption() {
        let kp = small_keypair(9);
        let mut rng = StdRng::seed_from_u64(10);
        let c = kp.public().encrypt_value(&Value::text("Hoboken NJ"), &mut rng).unwrap();
        // Decrypts to the folded integer (lossy by design — only timing matters for the
        // baseline), and decryption must succeed.
        assert!(kp.decrypt(&c).is_ok());
    }

    #[test]
    fn pooled_encryption_roundtrips_and_varies() {
        let kp = small_keypair(11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut pool = RandomnessPool::new(kp.public(), RandomnessPool::DEFAULT_SIZE, &mut rng);
        assert_eq!(pool.len(), RandomnessPool::DEFAULT_SIZE);
        assert!(!pool.is_empty());
        let m = BigUint::from_u64(424_242);
        let c1 = kp.public().encrypt_with_pool(&m, &mut pool).unwrap();
        let c2 = kp.public().encrypt_with_pool(&m, &mut pool).unwrap();
        assert_ne!(c1, c2, "pool must vary blinding factors between draws");
        assert_eq!(kp.decrypt(&c1).unwrap(), m);
        assert_eq!(kp.decrypt(&c2).unwrap(), m);
        // Tiny pools are clamped to ≥ 2 factors and still work.
        let mut tiny = RandomnessPool::new(kp.public(), 0, &mut rng);
        assert_eq!(tiny.len(), 2);
        let c3 = kp.public().encrypt_with_pool(&m, &mut tiny).unwrap();
        assert_eq!(kp.decrypt(&c3).unwrap(), m);
    }

    #[test]
    fn batch_encryption_matches_individual_decryption() {
        let kp = small_keypair(13);
        let mut rng = StdRng::seed_from_u64(14);
        let mut pool = RandomnessPool::new(kp.public(), 4, &mut rng);
        let messages: Vec<BigUint> = (0..20u64).map(BigUint::from_u64).collect();
        let ciphers = kp.public().encrypt_batch(&messages, &mut pool).unwrap();
        assert_eq!(ciphers.len(), messages.len());
        for (c, m) in ciphers.iter().zip(&messages) {
            assert_eq!(&kp.decrypt(c).unwrap(), m);
            assert_eq!(&kp.decrypt_generic(c).unwrap(), m);
        }
        // All ciphertexts distinct even for a constant message stream.
        let same: Vec<BigUint> = (0..10).map(|_| BigUint::from_u64(5)).collect();
        let cs = kp.public().encrypt_batch(&same, &mut pool).unwrap();
        for i in 0..cs.len() {
            for j in (i + 1)..cs.len() {
                assert_ne!(cs[i], cs[j], "blinding repeated at draws {i}/{j}");
            }
        }
    }

    #[test]
    fn pooled_blindings_do_not_cancel_publicly() {
        let kp = small_keypair(17);
        let mut rng = StdRng::seed_from_u64(18);
        // Smallest pool → tightest fold cycle. With m = 0 the ciphertext IS the
        // blinding factor, so a multiplicative relation between draws would be
        // directly visible: the fold walk alone satisfies c₂ = c₀·c₁ mod n² here,
        // which lets a keyless adversary cancel blindings across a batch and read
        // linear relations between plaintexts. The secret per-draw exponent must
        // break the relation.
        let mut pool = RandomnessPool::new(kp.public(), 2, &mut rng);
        let zero = BigUint::zero();
        let c: Vec<PaillierCiphertext> =
            (0..3).map(|_| kp.public().encrypt_with_pool(&zero, &mut pool).unwrap()).collect();
        let n2 = kp.public().n_squared_context().modulus();
        assert_ne!(c[2].0, c[0].0.mul_mod(&c[1].0, n2), "blinding factors cancelled publicly");
        // And the randomized blindings still decrypt correctly.
        for ci in &c {
            assert!(kp.decrypt(ci).unwrap().is_zero());
        }
    }

    #[test]
    fn crt_and_generic_decryption_agree_on_random_messages() {
        let kp = small_keypair(15);
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..10 {
            let m = BigUint::random_below(kp.public().modulus(), &mut rng);
            let c = kp.public().encrypt(&m, &mut rng).unwrap();
            let crt = kp.decrypt(&c).unwrap();
            let generic = kp.decrypt_generic(&c).unwrap();
            assert_eq!(crt, generic);
            assert_eq!(crt, m);
        }
    }
}
