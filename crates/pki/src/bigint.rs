//! Arbitrary-precision unsigned integers for the PKI substrate.
//!
//! The Clarens reproduction cannot link OpenSSL, so the RSA layer in
//! [`crate::rsa`] is built on this module: little-endian `u64`-limb
//! arithmetic with schoolbook multiplication, Knuth Algorithm D division,
//! windowed Montgomery modular exponentiation ([`Modulus`]), the extended
//! Euclidean algorithm, and Miller–Rabin primality testing. Sizes of
//! interest are 512–2048 bits, where schoolbook complexity is perfectly
//! adequate.
//!
//! This code favours clarity and testability over constant-time execution;
//! it is a *simulation* of the paper's PKI (see DESIGN.md) and must not be
//! used to protect real data.

use std::cmp::Ordering;
use std::fmt;

use rand::{Rng, RngExt};

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` is little-endian and normalized — the most
/// significant limb is non-zero, and zero is represented by an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a primitive.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes, minimal length (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// To big-endian bytes, zero-padded on the left to exactly `len` bytes.
    /// Panics if the value does not fit (programming error in callers).
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(text.len().div_ceil(2));
        let padded: String = if text.len() % 2 == 1 {
            format!("0{text}")
        } else {
            text.to_owned()
        };
        for pair in padded.as_bytes().chunks(2) {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        Some(BigUint::from_bytes_be(&bytes))
    }

    /// Lower-case hexadecimal rendering (no prefix; `"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut out = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                out.push_str(&format!("{limb:x}"));
            } else {
                out.push_str(&format!("{limb:016x}"));
            }
        }
        out
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Is this one?
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Is the low bit set?
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|&l| l & 1 == 1)
    }

    /// Is the low bit clear (true for zero)?
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Cast to u64 if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; panics if `other > self` (callers check order first).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Schoolbook multiplication, O(n·m).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder (Knuth Algorithm D). Panics on division by
    /// zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut quotient = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &limb in self.limbs.iter().rev() {
                let cur = (rem << 64) | limb as u128;
                quotient.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            quotient.reverse();
            let mut q = BigUint { limbs: quotient };
            q.normalize();
            return (q, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra limb for the algorithm
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        let v_top = vn[n - 1] as u128;
        let v_next = vn[n - 2] as u128;

        for j in (0..=m).rev() {
            // Estimate q̂ = (u[j+n]·B + u[j+n-1]) / v[n-1]
            let numerator = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numerator / v_top;
            let mut rhat = numerator % v_top;
            // Correct q̂ (at most twice).
            while qhat >= 1u128 << 64 || qhat * v_next > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - (p as u64 as i128) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (un[j + n] as i128) - (carry as i128) + borrow;
            un[j + n] = sub as u64;
            let went_negative = sub < 0;

            q[j] = qhat as u64;
            if went_negative {
                // q̂ was one too large; add back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = t as u64;
                    carry = t >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        un.truncate(n);
        let mut rem = BigUint { limbs: un };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// Remainder.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.divrem(modulus).1
    }

    /// Modular multiplication.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Remainder by a single limb, in one pass and without allocating.
    /// Panics on division by zero.
    pub fn rem_u64(&self, divisor: u64) -> u64 {
        assert!(divisor != 0, "division by zero");
        let mut rem = 0u128;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % divisor as u128;
        }
        rem as u64
    }

    /// Modular exponentiation. For more than one exponentiation under the
    /// same modulus, build the [`Modulus`] once and call [`Modulus::pow`].
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        Modulus::new(modulus.clone()).pow(self, exponent)
    }

    /// Left-to-right square-and-multiply with a full division per step: what
    /// [`Modulus::pow`] falls back to for an even modulus, and the reference
    /// the Montgomery path is tested against.
    pub(crate) fn modpow_by_division(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let base = self.rem(modulus);
        let bits = exponent.bit_length();
        for i in (0..bits).rev() {
            result = result.mulmod(&result, modulus);
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self·x ≡ 1 (mod modulus)`, or
    /// `None` when `gcd(self, modulus) != 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        // Extended Euclid with sign tracking: old_r = r coefficients over
        // the integers; we track t-coefficients as (sign, magnitude).
        if modulus.is_zero() {
            return None;
        }
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        // t0 = 0, t1 = 1
        let mut t0 = (false, BigUint::zero()); // (negative?, magnitude)
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q*t1
            let qt1 = q.mul(&t1.1);
            let t2 = sub_signed(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // t0 is the inverse; normalize into [0, modulus).
        let inv = if t0.0 {
            modulus.sub(&t0.1.rem(modulus))
        } else {
            t0.1.rem(modulus)
        };
        // Handle edge where magnitude % modulus == 0 for negative sign.
        Some(inv.rem(modulus))
    }

    /// A uniformly random integer in `[0, bound)` (rejection sampling).
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_length();
        loop {
            let candidate = BigUint::random_bits(rng, bits);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// A random integer with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.random::<u64>());
        }
        let extra = limbs_needed * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top >>= extra;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    ///
    /// Which values `rng` is asked for, and in which order, decides the key a
    /// seeded [`crate::rsa::generate`] yields: the sieve below rejects
    /// without drawing, every candidate that passes it draws one base per
    /// round until a round fails. Lengthening `SMALL_PRIMES` or changing
    /// how a base is drawn therefore changes every seeded key in the tree.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self == &two {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Trial division by small primes.
        for &p in SMALL_PRIMES {
            if self.to_u64() == Some(p) {
                return true;
            }
            if self.rem_u64(p) == 0 {
                return false;
            }
        }
        // Write self - 1 = d · 2^s.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        // Base in [2, n-2].
        let upper = self.sub(&BigUint::from_u64(3));
        let modulus = Modulus::new(self.clone());

        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(rng, &upper).add(&two);
            let mut x = modulus.pow(&a, &d);
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s.saturating_sub(1) {
                x = modulus.mul(&x, &x);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits: candidates
    /// are `bits` random bits with the top bit (exact size) and the low bit
    /// (odd) forced, tested with 20 Miller–Rabin rounds.
    pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let mut candidate = BigUint::random_bits(rng, bits);
            candidate.limbs.resize(bits.div_ceil(64), 0);
            candidate.limbs[(bits - 1) / 64] |= 1 << ((bits - 1) % 64);
            candidate.limbs[0] |= 1;
            if candidate.is_probable_prime(rng, 20) {
                return candidate;
            }
        }
    }
}

/// A modulus prepared for repeated modular multiplication and
/// exponentiation.
///
/// For an odd modulus `n` of `k` limbs the work is done in Montgomery form
/// with `R = 2^(64k)`: a value `x` is held as `x·R mod n`, and the product
/// of two such values comes out of one fused multiply-and-reduce pass over
/// fixed-width limb slices, with no division and no allocation. The two
/// constants that pass needs (`-n⁻¹ mod 2^64` and `R² mod n`) are computed
/// here, once. An even modulus has no Montgomery form; for it every
/// operation falls back to schoolbook multiplication and Knuth division, so
/// the type is total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modulus {
    n: BigUint,
    /// `None` for an even modulus (zero included).
    montgomery: Option<Montgomery>,
}

/// The per-modulus constants of Montgomery multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Montgomery {
    /// `-n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod n`, exactly as many limbs as `n`.
    r2: Vec<u64>,
}

/// Exponents up to this many bits are raised bit by bit: a 4-bit window's
/// table costs 14 multiplications, more than it saves on an exponent like
/// RSA's public 65537.
const SHORT_EXPONENT_BITS: usize = 64;

impl Modulus {
    /// Prepare `n`. Zero is accepted (a certificate off the wire may carry
    /// anything) but every operation under it panics, like division by zero.
    pub fn new(n: BigUint) -> Modulus {
        let montgomery = n.is_odd().then(|| {
            let k = n.limbs.len();
            // Newton's iteration doubles the correct low bits each round;
            // n0·n0 ≡ 1 (mod 8) starts it with three.
            let n0 = n.limbs[0];
            let mut inv = n0;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
            }
            let mut r2 = BigUint::one().shl(128 * k).rem(&n).limbs;
            r2.resize(k, 0);
            Montgomery {
                n0_inv: inv.wrapping_neg(),
                r2,
            }
        });
        Modulus { n, montgomery }
    }

    /// The modulus itself.
    pub fn value(&self) -> &BigUint {
        &self.n
    }

    /// `a · b mod n`, for operands of any size.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let Some(montgomery) = &self.montgomery else {
            return a.mulmod(b, &self.n);
        };
        let k = self.n.limbs.len();
        let mut scratch = vec![0u64; 4 * k + 1];
        let (a_form, rest) = scratch.split_at_mut(k);
        let (b_form, rest) = rest.split_at_mut(k);
        let mut work = Workspace::new(&self.n.limbs, montgomery, rest);
        work.encode(&a.limbs, a_form);
        work.encode(&b.limbs, b_form);
        work.mul_into(a_form, b_form);
        work.decode(a_form)
    }

    /// `base ^ exponent mod n`: left-to-right over fixed 4-bit windows of the
    /// exponent (single bits for a short one), one scratch allocation for
    /// the whole exponentiation.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let Some(montgomery) = &self.montgomery else {
            return base.modpow_by_division(exponent, &self.n);
        };
        let k = self.n.limbs.len();
        let bits = exponent.bit_length();
        let width = if bits > SHORT_EXPONENT_BITS { 4 } else { 1 };
        let entries = 1usize << width;

        let mut scratch = vec![0u64; (entries + 3) * k + 1];
        let (table, rest) = scratch.split_at_mut(entries * k);
        let (acc, rest) = rest.split_at_mut(k);
        let mut work = Workspace::new(&self.n.limbs, montgomery, rest);

        // table[i] = base^i in Montgomery form.
        work.encode(&[1], &mut table[..k]);
        work.encode(&base.limbs, &mut table[k..2 * k]);
        for i in 2..entries {
            let (known, next) = table.split_at_mut(i * k);
            next[..k].copy_from_slice(&known[(i - 1) * k..]);
            work.mul_into(&mut next[..k], &known[k..2 * k]);
        }

        // The top window holds the top set bit, so it is never zero; an
        // exponent of zero has no windows at all.
        let window =
            |i: usize| (exponent.limbs[i * width / 64] >> (i * width % 64)) as usize % entries;
        let windows = bits.div_ceil(width);
        let first = if windows == 0 { 0 } else { window(windows - 1) };
        acc.copy_from_slice(&table[first * k..(first + 1) * k]);
        for i in (0..windows.saturating_sub(1)).rev() {
            for _ in 0..width {
                work.square(acc);
            }
            match window(i) {
                0 => {}
                entry => work.mul_into(acc, &table[entry * k..(entry + 1) * k]),
            }
        }
        work.decode(acc)
    }
}

/// An odd modulus, its constants and the scratch limbs one [`Modulus::mul`]
/// or [`Modulus::pow`] works in. Every slice handed to its methods is `k`
/// limbs, `k` being the modulus' length.
struct Workspace<'a> {
    n: &'a [u64],
    n0_inv: u64,
    r2: &'a [u64],
    /// `k` limbs: an operand padded to full width.
    padded: &'a mut [u64],
    /// `k + 1` limbs: where a product is accumulated.
    product: &'a mut [u64],
}

impl<'a> Workspace<'a> {
    /// `scratch` must be `2k + 1` limbs.
    fn new(n: &'a [u64], constants: &'a Montgomery, scratch: &'a mut [u64]) -> Workspace<'a> {
        let (padded, product) = scratch.split_at_mut(n.len());
        assert_eq!(product.len(), n.len() + 1);
        Workspace {
            n,
            n0_inv: constants.n0_inv,
            r2: &constants.r2,
            padded,
            product,
        }
    }

    /// `x ← x · y · R⁻¹ mod n`.
    fn mul_into(&mut self, x: &mut [u64], y: &[u64]) {
        montgomery_product(x, y, self.n, self.n0_inv, self.product);
        x.copy_from_slice(&self.product[..self.n.len()]);
    }

    /// `x ← x · x · R⁻¹ mod n`.
    fn square(&mut self, x: &mut [u64]) {
        montgomery_product(x, x, self.n, self.n0_inv, self.product);
        x.copy_from_slice(&self.product[..self.n.len()]);
    }

    /// `out ← value · R mod n` for a value of any length, by Horner's rule
    /// over `k`-limb digits from the top: multiplying a digit (anything
    /// below `R`) by `R²` puts it in Montgomery form fully reduced, and
    /// multiplying the running value's form by `R²` shifts it up one digit.
    fn encode(&mut self, value: &[u64], out: &mut [u64]) {
        let k = self.n.len();
        out.fill(0);
        for (i, digit) in value.chunks(k).rev().enumerate() {
            if i > 0 {
                self.mul_into(out, self.r2);
            }
            self.padded[..digit.len()].copy_from_slice(digit);
            self.padded[digit.len()..].fill(0);
            montgomery_product(self.padded, self.r2, self.n, self.n0_inv, self.product);
            // Both below n: the sum is below 2n.
            let carry = add_limbs(out, &self.product[..k]);
            if carry || !less_than(out, self.n) {
                sub_limbs(out, self.n);
            }
        }
    }

    /// The value `x` is the Montgomery form of: `x · R⁻¹ mod n`.
    fn decode(&mut self, x: &[u64]) -> BigUint {
        self.padded.fill(0);
        self.padded[0] = 1;
        montgomery_product(x, self.padded, self.n, self.n0_inv, self.product);
        let mut out = BigUint {
            limbs: self.product[..self.n.len()].to_vec(),
        };
        out.normalize();
        out
    }
}

/// `t[..k] ← a · b · R⁻¹ mod n`, with `R = 2^(64k)`, `a < R` and `b < n`
/// (or the other way round): for each limb of `b`, add `a · b[i]` and the
/// multiple of `n` that zeroes the low limb in one fused pass, shifting down
/// a limb as it goes (Montgomery 1985; the finely integrated operand
/// scanning of Koç, Acar and Kaliski 1996). The running sum stays below
/// `2n`, so `k + 1` limbs hold it and one subtraction finishes.
fn montgomery_product(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, t: &mut [u64]) {
    let k = n.len();
    let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 1]);
    t.fill(0);
    for &bi in b {
        let bi = bi as u128;
        let x = t[0] as u128 + a[0] as u128 * bi;
        let m = (x as u64).wrapping_mul(n0_inv) as u128;
        // The low limb of `x + m·n[0]` is zero by the choice of `m`.
        let y = (x as u64) as u128 + m * n[0] as u128;
        let (mut carry_a, mut carry_n) = (x >> 64, y >> 64);
        for j in 1..k {
            let x = t[j] as u128 + a[j] as u128 * bi + carry_a;
            carry_a = x >> 64;
            let y = (x as u64) as u128 + m * n[j] as u128 + carry_n;
            carry_n = y >> 64;
            t[j - 1] = y as u64;
        }
        let top = t[k] as u128 + carry_a + carry_n;
        t[k - 1] = top as u64;
        t[k] = (top >> 64) as u64;
    }
    if t[k] != 0 || !less_than(&t[..k], n) {
        sub_limbs(&mut t[..k], n);
    }
}

/// `a < b` for limb slices of equal length.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

/// `a ← a + b` over equal lengths; returns the carry out.
fn add_limbs(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (sum, c1) = x.overflowing_add(y);
        let (sum, c2) = sum.overflowing_add(carry as u64);
        *x = sum;
        carry = c1 | c2;
    }
    carry
}

/// `a ← a − b` over equal lengths, wrapping: a borrow out of the top limb
/// cancels the carry the caller saw into it.
fn sub_limbs(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (diff, b1) = x.overflowing_sub(y);
        let (diff, b2) = diff.overflowing_sub(borrow as u64);
        *x = diff;
        borrow = b1 | b2;
    }
}

/// Signed subtraction helper for the extended Euclid: `a - b` where each
/// operand is a `(negative?, magnitude)` pair.
fn sub_signed(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

fn trailing_zeros(n: &BigUint) -> usize {
    let mut count = 0;
    for &limb in &n.limbs {
        if limb == 0 {
            count += 64;
        } else {
            return count + limb.trailing_zeros() as usize;
        }
    }
    count
}

const SMALL_PRIMES: &[u64] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    /// Hex display (decimal conversion is not needed anywhere in the stack).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_normalization() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]),
            BigUint::from_u64(0x0102)
        );
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0]), BigUint::zero());
    }

    #[test]
    fn byte_roundtrip() {
        let cases: &[&[u8]] = &[&[1], &[255, 254], &[1, 0, 0, 0, 0, 0, 0, 0, 0]];
        for bytes in cases {
            let v = BigUint::from_bytes_be(bytes);
            assert_eq!(v.to_bytes_be(), *bytes);
        }
        assert_eq!(n(0x1234).to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    fn hex_roundtrip() {
        // Canonical (no-leading-zero) hex round-trips exactly.
        for text in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex(text).unwrap();
            assert_eq!(v.to_hex(), text);
        }
        // Leading zeros and uppercase are accepted on input, canonicalized
        // on output.
        assert_eq!(BigUint::from_hex("00ff").unwrap(), n(255));
        assert_eq!(BigUint::from_hex("DEADBEEF").unwrap().to_hex(), "deadbeef");
        assert!(BigUint::from_hex("xyz").is_none());
        assert!(BigUint::from_hex("").is_none());
    }

    #[test]
    fn add_sub() {
        assert_eq!(n(3).add(&n(4)), n(7));
        assert_eq!(n(u64::MAX).add(&n(1)).to_hex(), "10000000000000000");
        let big = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(
            big.add(&BigUint::one()).to_hex(),
            "100000000000000000000000000000000"
        );
        assert_eq!(big.add(&BigUint::one()).sub(&BigUint::one()), big);
        assert_eq!(n(10).sub(&n(10)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(1).sub(&n(2));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(n(6).mul(&n(7)), n(42));
        assert_eq!(n(0).mul(&n(7)), BigUint::zero());
        let a = BigUint::from_hex("ffffffffffffffff").unwrap();
        assert_eq!(a.mul(&a).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(64).to_hex(), "10000000000000000");
        assert_eq!(n(1).shl(65).shr(65), n(1));
        assert_eq!(n(0b1011).shl(3), n(0b1011000));
        assert_eq!(n(0b1011).shr(2), n(0b10));
        assert_eq!(n(5).shr(100), BigUint::zero());
        assert_eq!(BigUint::zero().shl(10), BigUint::zero());
    }

    #[test]
    fn bit_access() {
        let v = n(0b101);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(2));
        assert!(!v.bit(64));
        assert_eq!(v.bit_length(), 3);
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(n(1).shl(127).bit_length(), 128);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = n(17).divrem(&n(5));
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(4).divrem(&n(5));
        assert_eq!((q, r), (BigUint::zero(), n(4)));
        let (q, r) = n(5).divrem(&n(5));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = BigUint::from_hex("123456789abcdef0fedcba98765432100123456789abcdef").unwrap();
        let b = BigUint::from_hex("fedcba9876543210").unwrap();
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn divrem_identity_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a_bits = 1 + (rng.random::<u32>() % 512) as usize;
            let b_bits = 1 + (rng.random::<u32>() % 256) as usize;
            let a = BigUint::random_bits(&mut rng, a_bits);
            let mut b = BigUint::random_bits(&mut rng, b_bits);
            if b.is_zero() {
                b = BigUint::one();
            }
            let (q, r) = a.divrem(&b);
            assert_eq!(q.mul(&b).add(&r), a, "a={a} b={b}");
            assert!(r < b);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).divrem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_cases() {
        // 3^4 mod 5 = 81 mod 5 = 1
        assert_eq!(n(3).modpow(&n(4), &n(5)), n(1));
        // Fermat: a^(p-1) ≡ 1 mod p
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345] {
            assert_eq!(n(a).modpow(&p.sub(&n(1)), &p), n(1));
        }
        assert_eq!(n(5).modpow(&BigUint::zero(), &n(7)), n(1));
        assert_eq!(n(5).modpow(&n(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modpow_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let base = (rng.random::<u64>() % 1000) + 1;
            let exp = rng.random::<u64>() % 24;
            let modulus = (rng.random::<u64>() % 10_000) + 2;
            let mut expect = 1u128;
            for _ in 0..exp {
                expect = expect * base as u128 % modulus as u128;
            }
            assert_eq!(
                n(base).modpow(&n(exp), &n(modulus)),
                n(expect as u64),
                "{base}^{exp} mod {modulus}"
            );
        }
    }

    /// An odd modulus of exactly `limbs` limbs.
    fn odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
        let mut m = BigUint::random_bits(rng, 64 * limbs);
        m.limbs.resize(limbs, 0);
        m.limbs[limbs - 1] |= 1 << 63;
        m.limbs[0] |= 1;
        m
    }

    #[test]
    fn montgomery_matches_the_division_reference() {
        let mut rng = StdRng::seed_from_u64(0x4D6F6E74);
        for limbs in 1..=17 {
            for round in 0..6 {
                let m = odd_modulus(&mut rng, limbs);
                let modulus = Modulus::new(m.clone());
                // Bases below the modulus, just above it, and up to twice
                // its width and a limb more (more than one Horner digit).
                let base_bits = [64 * limbs - 1, 64 * limbs, 128 * limbs, 128 * limbs + 64];
                let base = BigUint::random_bits(&mut rng, base_bits[round % 4]).add(&m);
                let exponents = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::one().shl(130).sub(&BigUint::one()),
                    BigUint::from_u64(65_537),
                    BigUint::random_bits(&mut rng, 64),
                    BigUint::random_bits(&mut rng, 65),
                    BigUint::random_bits(&mut rng, 1 + round * 37),
                ];
                for e in &exponents {
                    assert_eq!(
                        modulus.pow(&base, e),
                        base.modpow_by_division(e, &m),
                        "{base}^{e} mod {m}"
                    );
                }
                let other = BigUint::random_bits(&mut rng, base_bits[(round + 1) % 4]);
                assert_eq!(modulus.mul(&base, &other), base.mulmod(&other, &m));
                assert_eq!(modulus.mul(&base, &BigUint::zero()), BigUint::zero());
            }
        }
    }

    #[test]
    fn modulus_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0xE7E4);
        // Modulus one: everything is zero.
        let one = Modulus::new(BigUint::one());
        assert_eq!(one.pow(&n(5), &n(3)), BigUint::zero());
        assert_eq!(one.pow(&n(5), &BigUint::zero()), BigUint::zero());
        assert_eq!(one.mul(&n(5), &n(7)), BigUint::zero());
        // The largest single-limb and the smallest odd moduli.
        for m in [u64::MAX, 3] {
            let modulus = Modulus::new(n(m));
            for _ in 0..20 {
                let (a, e) = (rng.random::<u64>(), rng.random::<u64>() >> 40);
                assert_eq!(
                    modulus.pow(&n(a), &n(e)),
                    n(a).modpow_by_division(&n(e), &n(m))
                );
            }
        }
        // An even modulus takes the division arm, through both entries.
        for limbs in [1usize, 2, 5] {
            let m = odd_modulus(&mut rng, limbs).add(&BigUint::one());
            let base = BigUint::random_bits(&mut rng, 64 * limbs + 7);
            let e = BigUint::random_bits(&mut rng, 70);
            let expect = base.modpow_by_division(&e, &m);
            assert_eq!(Modulus::new(m.clone()).pow(&base, &e), expect);
            assert_eq!(base.modpow(&e, &m), expect);
            assert_eq!(Modulus::new(m.clone()).mul(&base, &e), base.mulmod(&e, &m));
        }
        assert_eq!(Modulus::new(n(15)).value(), &n(15));
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn pow_under_a_zero_modulus_panics() {
        let _ = Modulus::new(BigUint::zero()).pow(&n(2), &n(2));
    }

    #[test]
    fn rem_u64_matches_divrem() {
        let mut rng = StdRng::seed_from_u64(0x52454D);
        assert_eq!(BigUint::zero().rem_u64(7), 0);
        for _ in 0..200 {
            let bits = 1 + (rng.random::<u32>() % 600) as usize;
            let a = BigUint::random_bits(&mut rng, bits);
            for d in [3u64, 251, 1 << 32, u64::MAX, rng.random::<u64>() | 1] {
                assert_eq!(n(a.rem_u64(d)), a.rem(&n(d)), "{a} mod {d}");
            }
        }
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(5)), n(1));
        assert_eq!(BigUint::zero().gcd(&n(5)), n(5));

        let inv = n(3).modinv(&n(7)).unwrap();
        assert_eq!(inv, n(5)); // 3*5 = 15 ≡ 1 mod 7
        assert!(n(6).modinv(&n(9)).is_none()); // gcd 3

        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let m = BigUint::random_prime(&mut rng, 64);
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.modinv(&m).unwrap();
            assert_eq!(a.mulmod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(3);
        for p in [2u64, 3, 5, 7, 997, 104_729, 1_000_000_007] {
            assert!(n(p).is_probable_prime(&mut rng, 20), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 100, 997 * 991, 1_000_000_007 - 1] {
            assert!(
                !n(c).is_probable_prime(&mut rng, 20),
                "{c} should be composite"
            );
        }
        // Carmichael numbers must be caught.
        for c in [561u64, 1105, 1729, 41041] {
            assert!(!n(c).is_probable_prime(&mut rng, 20), "{c} is Carmichael");
        }
    }

    #[test]
    fn random_prime_has_exact_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [16usize, 32, 64, 96] {
            let p = BigUint::random_prime(&mut rng, bits);
            assert_eq!(p.bit_length(), bits);
            assert!(p.is_odd());
        }
    }

    #[test]
    fn ordering() {
        assert!(n(1) < n(2));
        assert!(n(2) > n(1));
        assert!(n(1).shl(64) > n(u64::MAX));
        assert_eq!(n(5).cmp(&n(5)), Ordering::Equal);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = BigUint::from_hex("10000000001").unwrap();
        for _ in 0..100 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", n(255)), "0xff");
        assert_eq!(format!("{:?}", n(255)), "BigUint(0xff)");
        assert_eq!(format!("{}", BigUint::zero()), "0x0");
    }
}
