//! Arbitrary-precision unsigned integers.
//!
//! The Paillier baseline of Figure 8 needs modular exponentiation with 512–2048-bit
//! moduli; the offline crate set has no big-integer crate, so this module implements a
//! small, well-tested [`BigUint`]: 64-bit limbs with carry-propagating primitives,
//! schoolbook multiplication, Knuth Algorithm D division, binary GCD (no allocations
//! in the loop), extended-Euclid modular inverse, and Miller–Rabin primality testing.
//! Modular exponentiation dispatches to the Montgomery/REDC engine
//! ([`crate::montgomery`]) whenever the modulus is odd — one division to build the
//! context, zero divisions in the square-and-multiply loop — and falls back to
//! [`BigUint::mod_pow_generic`] for even moduli, so `Value`-level callers never hit
//! the REDC odd-modulus precondition. Everything is cross-checked against `u128`
//! arithmetic by property tests.

use crate::montgomery::Montgomery;
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (canonical form). Empty == zero.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Build from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut b = BigUint { limbs: vec![v] };
        b.normalize();
        b
    }

    /// Build from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut b = BigUint { limbs: vec![v as u64, (v >> 64) as u64] };
        b.normalize();
        b
    }

    /// Convert to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 2 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (64 * i);
        }
        Some(v)
    }

    /// Build from little-endian limbs (not necessarily canonical).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut b = BigUint { limbs };
        b.normalize();
        b
    }

    /// Borrow the little-endian limbs (canonical: no trailing zeros).
    pub(crate) fn limb_slice(&self) -> &[u64] {
        &self.limbs
    }

    /// Bit `i` (little-endian position), `false` beyond the most significant bit.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Build from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Convert to big-endian bytes (no leading zero bytes; zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let zeros = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..zeros);
        out
    }

    fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{l:x}"));
            } else {
                s.push_str(&format!("{l:016x}"));
            }
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Number of trailing zero bits. Zero has none (returns 0).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry: u64 = 0;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0);
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`. Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        let mut r = self.clone();
        r.sub_in_place(other);
        r
    }

    /// In-place `self -= other` without allocating. Panics if `other > self`.
    fn sub_in_place(&mut self, other: &BigUint) {
        assert!(self.cmp_to(other) != Ordering::Less, "BigUint subtraction underflow");
        let mut borrow: u64 = 0;
        for i in 0..self.limbs.len() {
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.normalize();
    }

    /// In-place `self >>= bits` without allocating.
    fn shr_in_place(&mut self, bits: usize) {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        if limb_shift > 0 {
            self.limbs.drain(..limb_shift);
        }
        let bit_shift = (bits % 64) as u32;
        if bit_shift > 0 {
            let len = self.limbs.len();
            for i in 0..len {
                let mut v = self.limbs[i] >> bit_shift;
                if i + 1 < len {
                    v |= self.limbs[i + 1] << (64 - bit_shift);
                }
                self.limbs[i] = v;
            }
        }
        self.normalize();
    }

    /// Three-way comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self * other` (schoolbook, `u128` carry propagation).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + other.limbs.len()] = carry as u64;
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        let mut carry: u64 = 0;
        for &l in &self.limbs {
            if bit_shift == 0 {
                out.push(l);
            } else {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
        }
        if bit_shift != 0 && carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let mut r = self.clone();
        r.shr_in_place(bits);
        r
    }

    /// Quotient and remainder of `self / divisor`. Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_small(divisor.limbs[0]);
        }
        // Knuth Algorithm D (Hacker's Delight divmnu formulation, 64-bit limbs).
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // ensure u has m + n + 1 limbs
        let base: u128 = 1 << 64;
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / v[n - 1] as u128;
            let mut rhat = num % v[n - 1] as u128;
            while qhat >= base || qhat * v[n - 2] as u128 > (rhat << 64) + u[j + n - 2] as u128 {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= base {
                    break;
                }
            }
            // Multiply and subtract.
            let mut k: i128 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u128;
                let t = u[i + j] as i128 - k - (p as u64) as i128;
                u[i + j] = t as u64;
                k = (p >> 64) as i128 - (t >> 64);
            }
            let t = u[j + n] as i128 - k;
            u[j + n] = t as u64;
            q[j] = qhat as u64;
            if t < 0 {
                // Add back.
                q[j] = q[j].wrapping_sub(1);
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u[i + j] as u128 + v[i] as u128 + carry;
                    u[i + j] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: u[..n].to_vec() };
        rem.normalize();
        rem.shr_in_place(shift);
        (quotient, rem)
    }

    fn div_rem_small(&self, d: u64) -> (BigUint, BigUint) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        (quotient, BigUint::from_u64(rem as u64))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `self^exponent mod modulus`.
    ///
    /// Odd moduli take the Montgomery/REDC fast path ([`crate::Montgomery`]):
    /// windowed exponentiation entirely in Montgomery form, one conversion in, one
    /// out, zero divisions in the loop. Even moduli (where REDC's `n⁻¹ mod 2^64`
    /// does not exist) automatically fall back to [`BigUint::mod_pow_generic`], so
    /// callers never need to care about the precondition.
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        crate::obs::mod_pow_calls().inc();
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        match Montgomery::new(modulus) {
            Some(ctx) => ctx.pow(self, exponent),
            None => self.mod_pow_generic(exponent, modulus),
        }
    }

    /// `self^exponent mod modulus` by plain square-and-multiply with a division per
    /// step. Works for every modulus (including even ones, which the Montgomery fast
    /// path cannot handle); [`BigUint::mod_pow`] dispatches here automatically.
    pub fn mod_pow_generic(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        let total_bits = exponent.bits();
        for bit in 0..total_bits {
            if exponent.bit(bit) {
                result = result.mul_mod(&base, modulus);
            }
            if bit + 1 < total_bits {
                base = base.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD: shift/subtract only, no allocations in
    /// the loop — the Euclid formulation cloned and divided per iteration, which
    /// dominated Paillier key generation).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let common = az.min(bz);
        a.shr_in_place(az);
        b.shr_in_place(bz);
        // Invariant: a and b odd. odd − odd = even, so each round strips at least one
        // bit; all steps are in-place (swap, subtract, shift within the buffer).
        while !a.is_zero() {
            if a.cmp_to(&b) == Ordering::Less {
                std::mem::swap(&mut a, &mut b);
            }
            a.sub_in_place(&b);
            if a.is_zero() {
                break;
            }
            let tz = a.trailing_zeros();
            a.shr_in_place(tz);
        }
        b.shl(common)
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        self.mul(other).div_rem(&self.gcd(other)).0
    }

    /// Modular inverse `self⁻¹ mod modulus`, if it exists (extended Euclid).
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() {
            return None;
        }
        // Extended Euclid with signed coefficients represented as (magnitude, negative?).
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        if neg {
            Some(modulus.sub(&mag.rem(modulus)).rem(modulus))
        } else {
            Some(mag.rem(modulus))
        }
    }

    /// Sample a uniformly random integer with exactly `bits` bits (top bit set).
    pub fn random_bits(bits: usize, rng: &mut impl Rng) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.next_u64());
        }
        // Mask off excess bits, then set the top bit.
        let top_bits = bits - (limbs_needed - 1) * 64;
        let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
        let last = limbs_needed - 1;
        limbs[last] &= mask;
        limbs[last] |= 1 << (top_bits - 1);
        let mut b = BigUint { limbs };
        b.normalize();
        b
    }

    /// Sample a uniformly random integer in `[1, bound)`. `bound` must be ≥ 2.
    pub fn random_below(bound: &BigUint, rng: &mut impl Rng) -> BigUint {
        assert!(bound.cmp_to(&BigUint::from_u64(2)) != Ordering::Less);
        loop {
            let candidate = BigUint::random_bits(bound.bits(), rng).rem(bound);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut impl Rng) -> bool {
        let two = BigUint::from_u64(2);
        let three = BigUint::from_u64(3);
        if self.cmp_to(&two) == Ordering::Less {
            return false;
        }
        if self.cmp_to(&two) == Ordering::Equal || self.cmp_to(&three) == Ordering::Equal {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Quick trial division by small primes.
        for p in [3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67] {
            let pb = BigUint::from_u64(p);
            if self.cmp_to(&pb) == Ordering::Equal {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        let one = BigUint::one();
        let n_minus_1 = self.sub(&one);
        // n - 1 = 2^s * d
        let s = n_minus_1.trailing_zeros();
        let d = n_minus_1.shr(s);
        // One Montgomery context for all witnesses (self is odd and > 3 here); the
        // witness chain stays in Montgomery form, so residue comparisons are exact.
        let ctx = Montgomery::new(self).expect("odd modulus > 1");
        let one_m = ctx.to_mont(&one);
        let minus_one_m = ctx.to_mont(&n_minus_1);
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(&n_minus_1, rng);
            if a.is_one() {
                continue;
            }
            let mut x = ctx.pow_mont(&a, &d);
            if x == one_m || x == minus_one_m {
                continue;
            }
            for _ in 0..s - 1 {
                x = ctx.mont_mul(&x, &x);
                if x == minus_one_m {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with the given bit length.
    pub fn generate_prime(bits: usize, rng: &mut impl Rng) -> BigUint {
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            // Force odd.
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.is_probable_prime(16, rng) {
                return candidate;
            }
        }
    }
}

/// Signed subtraction on (magnitude, negative?) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative
        (false, false) => {
            if a.0.cmp_to(&b.0) != Ordering::Less {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.0.cmp_to(&a.0) != Ordering::Less {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_conversion() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
        assert_eq!(BigUint::from_u128(u64::MAX as u128 + 1).to_u128(), Some(u64::MAX as u128 + 1));
        assert_eq!(BigUint::from_u64(300).to_u128(), Some(300));
        let b = BigUint::from_bytes_be(&[1, 0, 0, 0, 0]);
        assert_eq!(b.to_u128(), Some(1u128 << 32));
        assert_eq!(BigUint::from_bytes_be(&b.to_bytes_be()), b);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn bits_and_parity() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from_u64(255).bits(), 8);
        assert_eq!(BigUint::from_u64(256).bits(), 9);
        assert!(BigUint::from_u64(4).is_even());
        assert!(!BigUint::from_u64(5).is_even());
        assert!(BigUint::zero().is_even());
        assert_eq!(BigUint::from_u64(12).trailing_zeros(), 2);
        assert_eq!(BigUint::from_u128(1u128 << 77).trailing_zeros(), 77);
        assert!(BigUint::from_u64(5).bit(0));
        assert!(!BigUint::from_u64(5).bit(1));
        assert!(BigUint::from_u64(5).bit(2));
        assert!(!BigUint::from_u64(5).bit(999));
    }

    #[test]
    fn shifts() {
        let x = BigUint::from_u128(0x1234_5678_9abc_def0_1122_3344);
        assert_eq!(x.shl(4).shr(4), x);
        assert_eq!(x.shl(77).shr(77), x);
        assert_eq!(x.shr(200), BigUint::zero());
        assert_eq!(BigUint::from_u64(1).shl(100).bits(), 101);
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::from_u64(255).to_string(), "0xff");
        assert_eq!(BigUint::zero().to_string(), "0x0");
        assert_eq!(BigUint::from_u128(1u128 << 64).to_string(), "0x10000000000000000");
        assert_eq!(BigUint::from_u128((1u128 << 64) | 0xab).to_string(), "0x100000000000000ab");
    }

    #[test]
    #[should_panic]
    fn subtraction_underflow_panics() {
        let _ = BigUint::from_u64(1).sub(&BigUint::from_u64(2));
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = BigUint::from_u64(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn known_modpow() {
        let b = BigUint::from_u64(4);
        let e = BigUint::from_u64(13);
        let m = BigUint::from_u64(497);
        assert_eq!(b.mod_pow(&e, &m), BigUint::from_u64(445));
        assert_eq!(b.mod_pow(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(b.mod_pow(&e, &BigUint::one()), BigUint::zero());
        // Even modulus takes the generic fallback and still computes correctly:
        // 4^13 mod 498 = 445? compute: generic path is the oracle here.
        let even = BigUint::from_u64(498);
        assert_eq!(b.mod_pow(&e, &even), b.mod_pow_generic(&e, &even));
    }

    #[test]
    fn gcd_lcm_inverse() {
        let a = BigUint::from_u64(54);
        let b = BigUint::from_u64(24);
        assert_eq!(a.gcd(&b), BigUint::from_u64(6));
        assert_eq!(a.lcm(&b), BigUint::from_u64(216));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
        // 3 * 7 = 21 ≡ 1 mod 20
        assert_eq!(
            BigUint::from_u64(3).mod_inverse(&BigUint::from_u64(20)),
            Some(BigUint::from_u64(7))
        );
        // 4 has no inverse mod 20.
        assert_eq!(BigUint::from_u64(4).mod_inverse(&BigUint::from_u64(20)), None);
    }

    #[test]
    fn primality_of_known_numbers() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [2u64, 3, 5, 7, 11, 101, 7919, 104729, 2147483647] {
            assert!(BigUint::from_u64(p).is_probable_prime(16, &mut rng), "{p} should be prime");
        }
        for c in [1u64, 4, 9, 100, 7917, 104730, 2147483647 * 3] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn prime_generation_produces_primes_of_requested_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = BigUint::generate_prime(96, &mut rng);
        assert_eq!(p.bits(), 96);
        assert!(p.is_probable_prime(16, &mut rng));
    }

    #[test]
    fn large_division_regression() {
        // A case exercising the "add back" branch probability-wise: divide a 256-bit
        // number by a 128-bit one and verify q * d + r == n and r < d.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let n = BigUint::random_bits(256, &mut rng);
            let d = BigUint::random_bits(128, &mut rng);
            let (q, r) = n.div_rem(&d);
            assert!(r.cmp_to(&d) == Ordering::Less);
            assert_eq!(q.mul(&d).add(&r), n);
        }
    }

    proptest! {
        #[test]
        fn add_matches_u128(a in 0u128..(1u128<<100), b in 0u128..(1u128<<100)) {
            let r = BigUint::from_u128(a).add(&BigUint::from_u128(b));
            prop_assert_eq!(r.to_u128().unwrap(), a + b);
        }

        #[test]
        fn sub_matches_u128(a in 0u128..(1u128<<100), b in 0u128..(1u128<<100)) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            let r = BigUint::from_u128(hi).sub(&BigUint::from_u128(lo));
            prop_assert_eq!(r.to_u128().unwrap(), hi - lo);
        }

        #[test]
        fn mul_matches_u128(a in 0u128..(1u128<<63), b in 0u128..(1u128<<63)) {
            let r = BigUint::from_u128(a).mul(&BigUint::from_u128(b));
            prop_assert_eq!(r.to_u128().unwrap(), a * b);
        }

        #[test]
        fn div_rem_matches_u128(a in 0u128..u128::MAX, b in 1u128..u128::MAX) {
            let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
            prop_assert_eq!(q.to_u128().unwrap(), a / b);
            prop_assert_eq!(r.to_u128().unwrap(), a % b);
        }

        #[test]
        fn div_rem_reconstructs(a_bits in 1usize..300, b_bits in 1usize..300, seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BigUint::random_bits(a_bits, &mut rng);
            let b = BigUint::random_bits(b_bits, &mut rng);
            let (q, r) = a.div_rem(&b);
            prop_assert!(r.cmp_to(&b) == Ordering::Less);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn modpow_matches_u128(b in 0u64..1000, e in 0u64..1000, m in 2u64..100_000) {
            let expected = {
                let mut acc: u128 = 1;
                let mut base = b as u128 % m as u128;
                let mut exp = e;
                while exp > 0 {
                    if exp & 1 == 1 { acc = acc * base % m as u128; }
                    base = base * base % m as u128;
                    exp >>= 1;
                }
                acc
            };
            let r = BigUint::from_u64(b).mod_pow(&BigUint::from_u64(e), &BigUint::from_u64(m));
            prop_assert_eq!(r.to_u128().unwrap(), expected);
        }

        #[test]
        fn gcd_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
            let expected = {
                let (mut x, mut y) = (a, b);
                while y != 0 {
                    let r = x % y;
                    x = y;
                    y = r;
                }
                x
            };
            let r = BigUint::from_u128(a).gcd(&BigUint::from_u128(b));
            prop_assert_eq!(r.to_u128().unwrap(), expected);
        }

        #[test]
        fn mod_inverse_is_inverse(a in 1u64..100_000, m in 2u64..100_000) {
            let ab = BigUint::from_u64(a);
            let mb = BigUint::from_u64(m);
            match ab.mod_inverse(&mb) {
                Some(inv) => {
                    prop_assert_eq!(ab.mul_mod(&inv, &mb), BigUint::one().rem(&mb));
                }
                None => {
                    // gcd must be > 1
                    prop_assert!(!ab.gcd(&mb).is_one());
                }
            }
        }
    }
}
