//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This is the numeric substrate for the RSA implementation in [`crate::rsa`].
//! Limbs are 64-bit, stored little-endian, and always normalized (no trailing
//! zero limbs), so the empty limb vector represents zero.
//!
//! The operations implemented are exactly those RSA needs: comparison,
//! addition/subtraction, schoolbook multiplication, Knuth Algorithm D
//! division, bit shifts, binary GCD, modular inversion via the extended
//! Euclidean algorithm, and modular exponentiation (Montgomery-accelerated
//! for odd moduli in [`crate::montgomery`]).
//!
//! [`BigUint::mul`] is schoolbook, and nothing subquadratic: at RSA-1024
//! the narrower operand of every signing and keygen product is at most 8
//! limbs (CRT recombination, `p·q`, `(p−1)(q−1)`, the Miller–Rabin
//! squaring), where a Karatsuba split only adds copies. `prop_crypto`
//! multiplies 12–40-limb operands and divides them back.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian 64-bit limbs with no trailing zeros.
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single 64-bit word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Parses a big-endian byte string (as used by RSA wire formats).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to a minimal big-endian byte string (empty for zero).
    #[expect(
        clippy::expect_used,
        reason = "length computed from the same limbs two lines up"
    )]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        let mut limbs = self.limbs.iter().rev();
        // Highest limb: strip leading zero bytes.
        let top = limbs.next().expect("nonzero value has a top limb");
        let top_bytes = top.to_be_bytes();
        let skip = top_bytes.iter().take_while(|&&b| b == 0).count();
        out.extend_from_slice(&top_bytes[skip..]);
        for limb in limbs {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
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

    /// True if the lowest bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// Interprets the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut limbs = Vec::with_capacity(longer.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.limbs.len() {
            let a = longer.limbs[i];
            let b = shorter.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
        BigUint { limbs }
    }

    /// Subtraction; panics if `other > self` (callers compare first).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        debug_assert!(self.cmp_to(other) != Ordering::Less, "BigUint underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        assert_eq!(borrow, 0, "BigUint underflow");
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Total-order comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication. On the signing and keygen paths at
    /// RSA-1024 the narrower operand is at most 8 limbs, below any
    /// width where a subquadratic split pays.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let (a, b) = (&self.limbs, &other.limbs);
        let mut limbs = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = limbs[i + j] as u128 + ai as u128 * bj as u128 + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in limbs.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Quotient and remainder via Knuth Algorithm D.
    ///
    /// Panics if `divisor` is zero.
    #[expect(clippy::expect_used, reason = "divisor checked non-zero at fn entry")]
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_to(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top two dividend limbs.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            // Correct qhat down (at most twice per Knuth).
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from the dividend window.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = un[j + i] as i128 - (p as u64) as i128 + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            if borrow < 0 {
                // qhat was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q_limbs };
        quotient.normalize();
        let mut remainder = BigUint {
            limbs: un[..n].to_vec(),
        };
        remainder.normalize();
        (quotient, remainder.shr(shift))
    }

    /// Quotient and remainder by a single 64-bit word.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert_ne!(d, 0, "division by zero");
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut out = BigUint { limbs: q };
        out.normalize();
        (out, rem as u64)
    }

    /// Remainder `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular subtraction of values already reduced mod `m`.
    pub fn sub_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        if self.cmp_to(other) == Ordering::Less {
            self.add(m).sub(other)
        } else {
            self.sub(other)
        }
    }

    /// Modular multiplication (full reduction; used where Montgomery
    /// conversion would cost more than it saves).
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Odd moduli use Montgomery multiplication; even moduli fall back to
    /// square-and-multiply with full division (RSA only ever uses odd
    /// moduli, so the fallback exists for completeness and tests).
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.modpow_simple(exp, modulus);
        }
        crate::montgomery::MontgomeryCtx::new(modulus).modpow(self, exp)
    }

    /// Modular exponentiation against a prebuilt Montgomery context.
    ///
    /// Equivalent to [`BigUint::modpow`] for `ctx.modulus()`, but skips
    /// rebuilding the REDC constants — the hot path for per-key cached
    /// contexts (see [`crate::rsa::PublicKey::mont_ctx`]).
    pub fn modpow_with_ctx(
        &self,
        exp: &BigUint,
        ctx: &crate::montgomery::MontgomeryCtx,
    ) -> BigUint {
        ctx.modpow(self, exp)
    }

    /// Square-and-multiply with full division per step; the reference
    /// implementation (any modulus) the Montgomery paths are checked
    /// against.
    #[doc(hidden)]
    pub fn modpow_simple(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        let mut base = self.rem(modulus);
        let mut result = BigUint::one().rem(modulus);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            base = base.mul_mod(&base, modulus);
        }
        result
    }

    /// Binary GCD.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a.shr(a_tz);
        b = b.shr(b_tz);
        loop {
            match a.cmp_to(&b) {
                Ordering::Equal => break,
                Ordering::Greater => {
                    a = a.sub(&b);
                    a = a.shr(a.trailing_zeros());
                }
                Ordering::Less => {
                    b = b.sub(&a);
                    b = b.shr(b.trailing_zeros());
                }
            }
        }
        a.shl(common)
    }

    fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular inverse `self^-1 mod m` via the extended Euclidean algorithm.
    ///
    /// Returns `None` when `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Track Bezout coefficients for `self` as (sign, magnitude) pairs.
        let mut r_prev = m.clone();
        let mut r = self.rem(m);
        if r.is_zero() {
            return None;
        }
        let mut s_prev = (false, BigUint::zero()); // coefficient of self for r_prev
        let mut s = (false, BigUint::one()); // coefficient of self for r
        while !r.is_zero() {
            let (q, rem) = r_prev.div_rem(&r);
            // s_next = s_prev - q * s  (signed arithmetic on magnitudes)
            let qs = q.mul(&s.1);
            let s_next = signed_sub(&s_prev, &(s.0, qs));
            r_prev = std::mem::replace(&mut r, rem);
            s_prev = std::mem::replace(&mut s, s_next);
        }
        if !r_prev.is_one() {
            return None;
        }
        // Map the signed coefficient into [0, m).
        let (neg, mag) = s_prev;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }
}

/// Signed subtraction on (sign, magnitude) pairs: `a - b`.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
        // Same sign: magnitude subtraction with sign fix-up.
        (sa, _) => match a.1.cmp_to(&b.1) {
            Ordering::Less => (!sa, b.1.sub(&a.1)),
            _ => (sa, a.1.sub(&b.1)),
        },
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        let bytes = self.to_bytes_be();
        for b in bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for BigUint {
    #[expect(clippy::expect_used, reason = "Display cannot return a custom error")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal via repeated division; fine for test/debug output sizes.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        write!(f, "{}", std::str::from_utf8(&digits).expect("ascii digits"))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0x12, 0x34],
            &[0xff; 16],
            &[1, 0, 0, 0, 0, 0, 0, 0, 0],
        ];
        for &c in cases {
            let v = BigUint::from_bytes_be(c);
            let back = v.to_bytes_be();
            // Leading zeros are stripped in the canonical form.
            let skip = c.iter().take_while(|&&b| b == 0).count();
            assert_eq!(back, &c[skip..]);
        }
    }

    #[test]
    fn bytes_leading_zeros_ignored() {
        let a = BigUint::from_bytes_be(&[0, 0, 5]);
        let b = BigUint::from_bytes_be(&[5]);
        assert_eq!(a, b);
    }

    #[test]
    fn padded_serialization() {
        let v = big(0x1234);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert_eq!(v.to_bytes_be_padded(2).unwrap(), vec![0x12, 0x34]);
        assert!(v.to_bytes_be_padded(1).is_none());
        assert_eq!(
            BigUint::zero().to_bytes_be_padded(3).unwrap(),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = big(u64::MAX as u128);
        let b = BigUint::one();
        assert_eq!(a.add(&b), big(1u128 << 64));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = big(1u128 << 64);
        let b = BigUint::one();
        assert_eq!(a.sub(&b), big(u64::MAX as u128));
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        BigUint::one().sub(&big(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = big(0xdead_beef_cafe_babe);
        let b = big(0x1234_5678_9abc_def0);
        let expect = 0xdead_beef_cafe_babe_u128 * 0x1234_5678_9abc_def0_u128;
        assert_eq!(a.mul(&b), big(expect));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_bytes_be(&[0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15, 0xaa]);
        for bits in [0, 1, 7, 63, 64, 65, 127, 200] {
            assert_eq!(a.shl(bits).shr(bits), a, "shift by {bits}");
        }
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
    }

    #[test]
    fn div_rem_dividend_smaller() {
        let (q, r) = big(3).div_rem(&big(10));
        assert!(q.is_zero());
        assert_eq!(r, big(3));
    }

    #[test]
    fn div_rem_exact() {
        let a = BigUint::from_bytes_be(&[0x7f; 32]);
        let b = BigUint::from_bytes_be(&[0x3b; 12]);
        let prod = a.mul(&b);
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
    }

    #[test]
    fn div_rem_reconstruction_multi_limb() {
        // q*d + r == n with r < d, across limb-boundary-stressing values.
        let n = BigUint::from_bytes_be(&[0xff; 40]);
        let d = BigUint::from_bytes_be(&[0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01]);
        let (q, r) = n.div_rem(&d);
        assert!(r.cmp_to(&d) == Ordering::Less);
        assert_eq!(q.mul(&d).add(&r), n);
    }

    #[test]
    fn div_rem_u64_matches_div_rem() {
        let n = BigUint::from_bytes_be(&[0xc3; 33]);
        let (q1, r1) = n.div_rem_u64(0xdead_beef);
        let (q2, r2) = n.div_rem(&big(0xdead_beef));
        assert_eq!(q1, q2);
        assert_eq!(BigUint::from_u64(r1), r2);
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        assert_eq!(big(3).modpow(&big(0), &big(7)), big(1));
        assert_eq!(big(0).modpow(&big(5), &big(7)), big(0));
        assert_eq!(big(5).modpow(&big(3), &big(1)), big(0));
    }

    #[test]
    fn modpow_even_modulus() {
        // 3^7 mod 100 = 2187 mod 100 = 87 (even modulus exercises fallback).
        assert_eq!(big(3).modpow(&big(7), &big(100)), big(87));
    }

    #[test]
    fn modpow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p not dividing a.
        let p = big(1_000_000_007);
        for a in [2u128, 10, 999, 123456789] {
            assert_eq!(big(a).modpow(&big(1_000_000_006), &p), BigUint::one());
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        assert_eq!(big(48).gcd(&big(48)), big(48));
    }

    #[test]
    fn modinv_small() {
        // 3 * 4 = 12 = 1 mod 11
        assert_eq!(big(3).modinv(&big(11)).unwrap(), big(4));
        // gcd(4, 8) != 1 -> no inverse
        assert!(big(4).modinv(&big(8)).is_none());
        // self larger than modulus is reduced first
        assert_eq!(big(14).modinv(&big(11)).unwrap(), big(4));
    }

    #[test]
    fn modinv_verified_large() {
        let m = BigUint::from_bytes_be(&[
            0xd5, 0x9b, 0x2c, 0x11, 0x0f, 0xf3, 0x57, 0x1f, 0x2a, 0x7d, 0x19, 0x4c, 0x88, 0x1d,
            0x23, 0x0b,
        ]);
        // Choose an odd candidate coprime with high probability; verify via product.
        let a = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1]);
        if let Some(inv) = a.modinv(&m) {
            assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
        } else {
            assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(big(1234567890123456789).to_string(), "1234567890123456789");
    }

    #[test]
    fn bit_accessors() {
        let mut v = BigUint::zero();
        v.set_bit(0);
        v.set_bit(70);
        assert!(v.bit(0));
        assert!(v.bit(70));
        assert!(!v.bit(1));
        assert!(!v.bit(500));
        assert_eq!(v.bit_len(), 71);
    }
}
