//! Arithmetic in the BN254 scalar field `Fr`.
//!
//! This is a from-scratch implementation of the prime field
//! `F_r` with
//! `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`,
//! the scalar field of the BN254 pairing curve used by the original RLN
//! library ([kilic/rln](https://github.com/kilic/rln)) that the paper's
//! proof-of-concept builds on.
//!
//! Elements are stored in Montgomery form (`a·R mod r` with `R = 2^256`)
//! as four little-endian 64-bit limbs. All Montgomery constants are derived
//! at compile time by `const fn`s, so the implementation is self-contained
//! and depends on nothing outside `core`.
//!
//! # Examples
//!
//! ```
//! use wakurln_crypto::field::Fr;
//!
//! let a = Fr::from_u64(7);
//! let b = Fr::from_u64(6);
//! assert_eq!(a * b, Fr::from_u64(42));
//! assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::RngCore;

/// The BN254 scalar field modulus `r`, as four little-endian 64-bit limbs.
///
/// `r = 0x30644e72e131a029_b85045b68181585d_2833e84879b97091_43e1f593f0000001`
pub const MODULUS: [u64; 4] = [
    0x43e1f593f0000001,
    0x2833e84879b97091,
    0xb85045b68181585d,
    0x30644e72e131a029,
];

/// `r - 2`, the exponent used for Fermat inversion.
const MODULUS_MINUS_TWO: [u64; 4] = [
    0x43e1f593efffffff,
    0x2833e84879b97091,
    0xb85045b68181585d,
    0x30644e72e131a029,
];

/// `-r^{-1} mod 2^64`, the Montgomery reduction constant.
const INV: u64 = compute_inv();

/// `R = 2^256 mod r` (the Montgomery radix), i.e. the representation of `1`.
const R: [u64; 4] = compute_two_pow_mod(256);

/// `R^2 = 2^512 mod r`, used to convert into Montgomery form.
const R2: [u64; 4] = compute_two_pow_mod(512);

/// `R^3 = 2^768 mod r`, used by wide (512-bit) reductions.
const R3: [u64; 4] = compute_two_pow_mod(768);

/// Number of bits needed to represent the modulus.
pub const MODULUS_BITS: u32 = 254;

// ---------------------------------------------------------------------------
// const-fn helpers used to derive the Montgomery constants at compile time
// ---------------------------------------------------------------------------

const fn compute_inv() -> u64 {
    // Newton–Raphson style fixed point iteration: after 63 doublings of the
    // number of correct low bits we have r^{-1} mod 2^64; negate it.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(inv);
        inv = inv.wrapping_mul(MODULUS[0]);
        i += 1;
    }
    inv.wrapping_neg()
}

const fn const_geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut i = 3;
    loop {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
        if i == 0 {
            return true;
        }
        i -= 1;
    }
}

const fn const_sub(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < 4 {
        let t = (a[i] as u128)
            .wrapping_sub(b[i] as u128)
            .wrapping_sub(borrow as u128);
        out[i] = t as u64;
        borrow = ((t >> 64) as u64) & 1;
        i += 1;
    }
    out
}

/// Computes `2^k mod r` by repeated modular doubling.
///
/// Doubling never overflows 256 bits because `r < 2^254`, so any reduced
/// value is `< 2^254` and its double `< 2^255`.
const fn compute_two_pow_mod(k: usize) -> [u64; 4] {
    let mut acc = [1u64, 0, 0, 0];
    let mut i = 0;
    while i < k {
        // acc <<= 1
        let mut next = [0u64; 4];
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            next[j] = (acc[j] << 1) | carry;
            carry = acc[j] >> 63;
            j += 1;
        }
        acc = next;
        if const_geq(&acc, &MODULUS) {
            acc = const_sub(&acc, &MODULUS);
        }
        i += 1;
    }
    acc
}

// ---------------------------------------------------------------------------
// limb primitives
// ---------------------------------------------------------------------------

/// `a + b * c + carry`, returning `(low, high)`.
#[inline(always)]
const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry`, returning `(low, carry)`.
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow`, returning `(low, borrow)` with `borrow ∈ {0, 1}`.
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

// ---------------------------------------------------------------------------
// Fr
// ---------------------------------------------------------------------------

/// An element of the BN254 scalar field, stored in Montgomery form.
///
/// Field elements are always kept fully reduced (`< r`), so derived
/// equality and hashing on the raw limbs are canonical.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fr(pub(crate) [u64; 4]);

impl Fr {
    /// The additive identity.
    pub const ZERO: Fr = Fr([0, 0, 0, 0]);
    /// The multiplicative identity (`R mod r` in Montgomery form).
    pub const ONE: Fr = Fr(R);

    /// Creates a field element from a `u64`.
    ///
    /// ```
    /// # use wakurln_crypto::field::Fr;
    /// assert_eq!(Fr::from_u64(0), Fr::ZERO);
    /// assert_eq!(Fr::from_u64(1), Fr::ONE);
    /// ```
    pub fn from_u64(v: u64) -> Fr {
        Fr::from_repr_unchecked([v, 0, 0, 0])
    }

    /// Creates a field element from a `u128`.
    pub fn from_u128(v: u128) -> Fr {
        Fr::from_repr_unchecked([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Converts a canonical (non-Montgomery) 4-limb little-endian integer
    /// that is already known to be `< r` into Montgomery form.
    fn from_repr_unchecked(repr: [u64; 4]) -> Fr {
        debug_assert!(!const_geq(&repr, &MODULUS));
        Fr(mont_mul(&repr, &R2))
    }

    /// Parses a canonical little-endian 32-byte representation.
    ///
    /// Returns `None` if the encoded integer is not fully reduced
    /// (i.e. `>= r`).
    pub fn from_bytes_le(bytes: &[u8; 32]) -> Option<Fr> {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(chunk);
        }
        if const_geq(&limbs, &MODULUS) {
            return None;
        }
        Some(Fr::from_repr_unchecked(limbs))
    }

    /// Interprets 64 uniformly random bytes as a field element with
    /// negligible bias (the 512-bit integer is reduced mod `r`).
    ///
    /// This is the preferred way to map hash output or RNG output into the
    /// field.
    pub fn from_uniform_bytes(bytes: &[u8; 64]) -> Fr {
        let mut lo = [0u64; 4];
        let mut hi = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            lo[i] = u64::from_le_bytes(chunk);
            chunk.copy_from_slice(&bytes[32 + i * 8..32 + (i + 1) * 8]);
            hi[i] = u64::from_le_bytes(chunk);
        }
        // value = lo + hi·2^256; in Montgomery form:
        // lo·R = mont_mul(lo, R2), hi·2^256·R = hi·R·R = mont_mul(hi, R3)
        let lo_m = Fr(mont_mul(&lo, &R2));
        let hi_m = Fr(mont_mul(&hi, &R3));
        lo_m + hi_m
    }

    /// Samples a uniformly random field element.
    pub fn random<Rng: RngCore + ?Sized>(rng: &mut Rng) -> Fr {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        Fr::from_uniform_bytes(&bytes)
    }

    /// Returns the canonical little-endian 32-byte representation.
    pub fn to_bytes_le(&self) -> [u8; 32] {
        let repr = self.to_repr();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&repr[i].to_le_bytes());
        }
        out
    }

    /// Returns the canonical (non-Montgomery) little-endian limbs.
    pub fn to_repr(&self) -> [u64; 4] {
        mont_reduce(&[self.0[0], self.0[1], self.0[2], self.0[3], 0, 0, 0, 0])
    }

    /// `true` iff this is the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// `true` iff this is the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.0 == R
    }

    /// Doubles the element.
    #[inline]
    pub fn double(&self) -> Fr {
        *self + *self
    }

    /// Squares the element.
    #[inline]
    pub fn square(&self) -> Fr {
        Fr(mont_mul(&self.0, &self.0))
    }

    /// Raises the element to the power given as four little-endian limbs.
    pub fn pow(&self, exp: &[u64; 4]) -> Fr {
        let mut res = Fr::ONE;
        for &limb in exp.iter().rev() {
            for bit in (0..64).rev() {
                res = res.square();
                if (limb >> bit) & 1 == 1 {
                    res *= *self;
                }
            }
        }
        res
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^{r-2}`).
    ///
    /// Returns `None` for zero, which has no inverse.
    pub fn inverse(&self) -> Option<Fr> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(&MODULUS_MINUS_TWO))
        }
    }

    /// The dot product `Σ aᵢ·bᵢ` of the pairs, reduced once per
    /// [`SumOfProducts::CHUNK`] products.
    #[inline]
    pub fn sum_of_products<'a, I>(pairs: I) -> Fr
    where
        I: IntoIterator<Item = (&'a Fr, &'a Fr)>,
    {
        let mut acc = SumOfProducts::new();
        for (a, b) in pairs {
            acc.add_product(a, b);
        }
        acc.finish()
    }
}

/// Schoolbook 256×256→512-bit multiply followed by Montgomery reduction.
#[inline]
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    mont_reduce(&mul_wide(a, b))
}

/// Schoolbook 256×256→512-bit multiply, unreduced.
#[inline(always)]
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, hi) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = lo;
            carry = hi;
        }
        t[i + 4] = carry;
    }
    t
}

/// Montgomery reduction of a 512-bit value: returns `t · R^{-1} mod r`,
/// fully reduced.
#[inline]
fn mont_reduce(t: &[u64; 8]) -> [u64; 4] {
    let mut r = *t;
    let mut carry2 = 0u64;
    for i in 0..4 {
        let k = r[i].wrapping_mul(INV);
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, hi) = mac(r[i + j], k, MODULUS[j], carry);
            r[i + j] = lo;
            carry = hi;
        }
        let (lo, hi) = adc(r[i + 4], carry2, carry);
        r[i + 4] = lo;
        carry2 = hi;
    }
    // lint:allow(panic-path, reason = "r is a [u64; 8] copied from *t; indices 4..8 are in range")
    let mut out = [r[4], r[5], r[6], r[7]];
    // carry2 can be at most 1; in that case the value is >= 2^256 > r and a
    // single conditional subtraction still suffices because the
    // intermediate is < 2r.
    if carry2 != 0 || const_geq(&out, &MODULUS) {
        out = const_sub(&out, &MODULUS);
    }
    out
}

/// `k · r < R = 2^256`, so `k` products of reduced residues sum below
/// `r·R`.
const fn times_modulus_fits_radix(k: u64) -> bool {
    let mut carry = 0u64;
    let mut i = 0;
    while i < 4 {
        carry = mac(0, MODULUS[i], k, carry).1;
        i += 1;
    }
    carry == 0
}

/// An exact running sum `Σ aᵢ·bᵢ + Σ cⱼ` over `Fr` that reduces once per
/// few products instead of once per term: the kernel of every dot product
/// on the prover's and Poseidon's hot paths.
///
/// A product of two Montgomery residues `a = A·R`, `b = B·R` is added to a
/// 512-bit accumulator as its unreduced schoolbook value `a·b`; one
/// Montgomery reduction of the sum then yields `(Σ AᵢBᵢ)·R`, the residue of
/// the dot product. Both factors are reduced (`< r`), so each product is
/// `< r²`, and [`SumOfProducts::CHUNK`] of them stay `< r·R` — the bound
/// under which the reduction is exact with its single conditional
/// subtraction. A longer sum reduces once per chunk. A term that needs no
/// multiplication ([`SumOfProducts::add`]) goes straight into the reduced
/// total.
///
/// The result equals the per-term `Σ a * b + Σ c` bit for bit.
///
/// # Examples
///
/// ```
/// use wakurln_crypto::field::{Fr, SumOfProducts};
///
/// let a: Vec<Fr> = (1..=12u64).map(Fr::from_u64).collect();
/// let b: Vec<Fr> = (1..=12u64).map(|v| -Fr::from_u64(v)).collect();
/// let mut acc = SumOfProducts::new();
/// for (x, y) in a.iter().zip(&b) {
///     acc.add_product(x, y);
/// }
/// acc.add(&Fr::from_u64(1000));
/// // 1000 − (1² + 2² + … + 12²) = 1000 − 650
/// assert_eq!(acc.finish(), Fr::from_u64(350));
/// assert_eq!(Fr::sum_of_products(a.iter().zip(&a)), Fr::from_u64(650));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SumOfProducts {
    /// Unreduced sum of the products since the last reduction.
    wide: [u64; 8],
    /// Products in `wide`.
    pending: u32,
    /// Reduced sum of everything before `wide`, plus the added terms.
    total: Fr,
}

impl SumOfProducts {
    /// Products summed before one reduction: `5·r² < r·R` because
    /// `5r < 2^256` (`r ≈ 0.19 · 2^256`), while six products may not be.
    pub const CHUNK: u32 = 5;

    /// The empty sum.
    pub const fn new() -> SumOfProducts {
        SumOfProducts {
            wide: [0; 8],
            pending: 0,
            total: Fr::ZERO,
        }
    }

    /// Adds `a · b`.
    #[inline]
    pub fn add_product(&mut self, a: &Fr, b: &Fr) {
        if self.pending == Self::CHUNK {
            self.reduce();
        }
        let p = mul_wide(&a.0, &b.0);
        let mut carry = 0u64;
        for (w, p) in self.wide.iter_mut().zip(p) {
            let (lo, c) = adc(*w, p, carry);
            *w = lo;
            carry = c;
        }
        // The chunk bound keeps the sum below r·R < 2^512.
        debug_assert_eq!(carry, 0);
        self.pending += 1;
    }

    /// Adds `c` with no multiplication.
    #[inline]
    pub fn add(&mut self, c: &Fr) {
        self.total += *c;
    }

    /// Folds the pending products into the reduced total.
    #[inline]
    fn reduce(&mut self) {
        self.total += Fr(mont_reduce(&self.wide));
        self.wide = [0; 8];
        self.pending = 0;
    }

    /// The sum, fully reduced.
    #[inline]
    pub fn finish(mut self) -> Fr {
        if self.pending != 0 {
            self.reduce();
        }
        self.total
    }
}

// The bound `SumOfProducts` is exact under, checked at compile time.
const _: () = assert!(times_modulus_fits_radix(SumOfProducts::CHUNK as u64));

impl Add for Fr {
    type Output = Fr;
    #[inline]
    #[allow(clippy::needless_range_loop)]
    fn add(self, rhs: Fr) -> Fr {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (lo, c) = adc(self.0[i], rhs.0[i], carry);
            out[i] = lo;
            carry = c;
        }
        // Both inputs are < r < 2^254, so the sum is < 2^255: no carry out.
        debug_assert_eq!(carry, 0);
        if const_geq(&out, &MODULUS) {
            out = const_sub(&out, &MODULUS);
        }
        Fr(out)
    }
}

impl Sub for Fr {
    type Output = Fr;
    #[inline]
    #[allow(clippy::needless_range_loop)]
    fn sub(self, rhs: Fr) -> Fr {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (lo, b) = sbb(self.0[i], rhs.0[i], borrow);
            out[i] = lo;
            borrow = b;
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for (o, m) in out.iter_mut().zip(MODULUS.iter()) {
                let (lo, c) = adc(*o, *m, carry);
                *o = lo;
                carry = c;
            }
        }
        Fr(out)
    }
}

impl Neg for Fr {
    type Output = Fr;
    fn neg(self) -> Fr {
        Fr::ZERO - self
    }
}

impl Mul for Fr {
    type Output = Fr;
    #[inline]
    fn mul(self, rhs: Fr) -> Fr {
        Fr(mont_mul(&self.0, &rhs.0))
    }
}

impl AddAssign for Fr {
    #[inline]
    fn add_assign(&mut self, rhs: Fr) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fr {
    #[inline]
    fn sub_assign(&mut self, rhs: Fr) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fr {
    #[inline]
    fn mul_assign(&mut self, rhs: Fr) {
        *self = *self * rhs;
    }
}

impl<'a> Add<&'a Fr> for Fr {
    type Output = Fr;
    fn add(self, rhs: &'a Fr) -> Fr {
        self + *rhs
    }
}
impl<'a> Sub<&'a Fr> for Fr {
    type Output = Fr;
    fn sub(self, rhs: &'a Fr) -> Fr {
        self - *rhs
    }
}
impl<'a> Mul<&'a Fr> for Fr {
    type Output = Fr;
    fn mul(self, rhs: &'a Fr) -> Fr {
        self * *rhs
    }
}

impl Sum for Fr {
    fn sum<I: Iterator<Item = Fr>>(iter: I) -> Fr {
        iter.fold(Fr::ZERO, |acc, x| acc + x)
    }
}

impl Product for Fr {
    fn product<I: Iterator<Item = Fr>>(iter: I) -> Fr {
        iter.fold(Fr::ONE, |acc, x| acc * x)
    }
}

impl From<u64> for Fr {
    fn from(v: u64) -> Fr {
        Fr::from_u64(v)
    }
}

impl From<u128> for Fr {
    fn from(v: u128) -> Fr {
        Fr::from_u128(v)
    }
}

impl From<bool> for Fr {
    fn from(v: bool) -> Fr {
        if v {
            Fr::ONE
        } else {
            Fr::ZERO
        }
    }
}

impl PartialOrd for Fr {
    fn partial_cmp(&self, other: &Fr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fr {
    /// Compares the canonical integer representations.
    fn cmp(&self, other: &Fr) -> Ordering {
        let a = self.to_repr();
        let b = other.to_repr();
        for i in (0..4).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for Fr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fr(0x")?;
        let repr = self.to_repr();
        for limb in repr.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Fr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        let repr = self.to_repr();
        for limb in repr.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // -- reference big-integer arithmetic used to cross-check Montgomery --

    fn ref_add_mod(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut wide = [0u64; 5];
        let mut carry = 0u64;
        for i in 0..4 {
            let (lo, c) = adc(a[i], b[i], carry);
            wide[i] = lo;
            carry = c;
        }
        wide[4] = carry;
        ref_mod_512(&[wide[0], wide[1], wide[2], wide[3], wide[4], 0, 0, 0])
    }

    fn ref_mul_mod(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let (lo, hi) = mac(t[i + j], a[i], b[j], carry);
                t[i + j] = lo;
                carry = hi;
            }
            t[i + 4] = carry;
        }
        ref_mod_512(&t)
    }

    /// Binary long division: reduce a 512-bit value modulo `r`.
    fn ref_mod_512(t: &[u64; 8]) -> [u64; 4] {
        let mut rem = [0u64; 8];
        for bit in (0..512).rev() {
            // rem = rem * 2 + bit(t)
            let mut carry = (t[bit / 64] >> (bit % 64)) & 1;
            for limb in rem.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            // if rem >= r, rem -= r (r occupies low 4 limbs)
            let ge = {
                if rem[4] | rem[5] | rem[6] | rem[7] != 0 {
                    true
                } else {
                    const_geq(&[rem[0], rem[1], rem[2], rem[3]], &MODULUS)
                }
            };
            if ge {
                let mut borrow = 0u64;
                for i in 0..8 {
                    let m = if i < 4 { MODULUS[i] } else { 0 };
                    let (lo, b) = sbb(rem[i], m, borrow);
                    rem[i] = lo;
                    borrow = b;
                }
            }
        }
        [rem[0], rem[1], rem[2], rem[3]]
    }

    fn arb_limbs() -> impl Strategy<Value = [u64; 4]> {
        (any::<[u64; 4]>()).prop_map(|mut l| {
            // force < r by clearing top bits then conditional subtract
            l[3] &= 0x0fffffffffffffff;
            if const_geq(&l, &MODULUS) {
                l = const_sub(&l, &MODULUS);
            }
            l
        })
    }

    fn fr_from_limbs(l: [u64; 4]) -> Fr {
        Fr::from_repr_unchecked(l)
    }

    #[test]
    fn constants_are_consistent() {
        // INV * r ≡ -1 (mod 2^64)
        assert_eq!(INV.wrapping_mul(MODULUS[0]), u64::MAX);
        // R is the Montgomery form of 1
        assert_eq!(Fr::ONE.to_repr(), [1, 0, 0, 0]);
        // R2 converts correctly: from_u64(1) == ONE
        assert_eq!(Fr::from_u64(1), Fr::ONE);
        // R3 = R * R2 (as plain integers modulo r)
        assert_eq!(ref_mul_mod(R, R2), ref_mul_mod(R2, R));
        assert_eq!(mont_mul(&R2, &R2), mont_mul(&R3, &R));
    }

    #[test]
    fn zero_and_one_behave() {
        assert!(Fr::ZERO.is_zero());
        assert!(Fr::ONE.is_one());
        assert!(!Fr::ONE.is_zero());
        assert_eq!(Fr::ZERO + Fr::ONE, Fr::ONE);
        assert_eq!(Fr::ONE * Fr::ZERO, Fr::ZERO);
        assert_eq!(Fr::default(), Fr::ZERO);
    }

    #[test]
    fn small_integer_arithmetic_matches_u128() {
        for a in [0u64, 1, 2, 7, 255, 1 << 40] {
            for b in [0u64, 1, 3, 12, 100_000] {
                assert_eq!(
                    Fr::from_u64(a) * Fr::from_u64(b),
                    Fr::from_u128(a as u128 * b as u128),
                );
                assert_eq!(
                    Fr::from_u64(a) + Fr::from_u64(b),
                    Fr::from_u128(a as u128 + b as u128),
                );
            }
        }
    }

    #[test]
    fn subtraction_wraps_correctly() {
        let a = Fr::from_u64(5);
        let b = Fr::from_u64(9);
        assert_eq!(a - b + b, a);
        assert_eq!((a - b) + Fr::from_u64(4), Fr::ZERO);
        assert_eq!(-Fr::ONE + Fr::ONE, Fr::ZERO);
    }

    #[test]
    fn negation_of_zero_is_zero() {
        assert_eq!(-Fr::ZERO, Fr::ZERO);
    }

    #[test]
    fn inverse_of_one_is_one() {
        assert_eq!(Fr::ONE.inverse().unwrap(), Fr::ONE);
        assert!(Fr::ZERO.inverse().is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = Fr::random(&mut rng);
            assert_eq!(Fr::from_bytes_le(&a.to_bytes_le()).unwrap(), a);
        }
    }

    #[test]
    fn non_canonical_bytes_rejected() {
        // the modulus itself is not a canonical encoding
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&MODULUS[i].to_le_bytes());
        }
        assert!(Fr::from_bytes_le(&bytes).is_none());
        // and neither is r + 1
        bytes[0] += 1;
        assert!(Fr::from_bytes_le(&bytes).is_none());
        // all 0xff is way above r
        assert!(Fr::from_bytes_le(&[0xff; 32]).is_none());
    }

    #[test]
    fn pow_small_cases() {
        let two = Fr::from_u64(2);
        assert_eq!(two.pow(&[10, 0, 0, 0]), Fr::from_u64(1024));
        assert_eq!(two.pow(&[0, 0, 0, 0]), Fr::ONE);
        assert_eq!(Fr::ZERO.pow(&[5, 0, 0, 0]), Fr::ZERO);
    }

    #[test]
    fn fermat_little_theorem() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Fr::random(&mut rng);
        // a^(r-1) == 1
        let mut exp = MODULUS_MINUS_TWO;
        exp[0] += 1; // r - 1
        assert_eq!(a.pow(&exp), Fr::ONE);
    }

    #[test]
    fn ordering_matches_integers() {
        assert!(Fr::from_u64(3) < Fr::from_u64(5));
        assert!(-Fr::ONE > Fr::from_u64(1_000_000)); // r-1 is huge
    }

    #[test]
    fn bytes_le_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Fr::random(&mut rng);
        let bytes = a.to_bytes_le();
        let b = Fr::from_bytes_le(&bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_and_debug_are_nonempty_hex() {
        let s = format!("{}", Fr::from_u64(255));
        assert!(s.starts_with("0x"));
        assert!(s.ends_with("ff"));
        let d = format!("{:?}", Fr::ZERO);
        assert_eq!(d.len(), "Fr(0x".len() + 64 + 1);
    }

    /// The residue `r − 1` (largest limbs an `Fr` can hold).
    const R_MINUS_ONE: Fr = Fr([MODULUS[0] - 1, MODULUS[1], MODULUS[2], MODULUS[3]]);

    /// Residues (raw Montgomery limbs) a sum of products must handle:
    /// 0, 1, r − 1, one at or above 2^253, or any reduced value.
    fn arb_residue() -> impl Strategy<Value = Fr> {
        (any::<u8>(), arb_limbs()).prop_map(|(kind, mut l)| match kind % 5 {
            0 => Fr::ZERO,
            1 => Fr([1, 0, 0, 0]),
            2 => R_MINUS_ONE,
            3 => {
                // 2^253 ≤ l < 0x3000… · 2^192 < r
                l[3] = 0x2000000000000000 | (l[3] & 0x0fffffffffffffff);
                Fr(l)
            }
            _ => Fr(l),
        })
    }

    /// The per-term sum the kernel must equal: a full reduced multiply
    /// and add for every product, a reduced add for every plain term.
    fn per_term_sum(terms: &[(bool, Fr, Fr)]) -> Fr {
        terms.iter().fold(
            Fr::ZERO,
            |acc, &(plain, a, b)| if plain { acc + a } else { acc + a * b },
        )
    }

    fn kernel_sum(terms: &[(bool, Fr, Fr)]) -> Fr {
        let mut acc = SumOfProducts::new();
        for (plain, a, b) in terms {
            if *plain {
                acc.add(a);
            } else {
                acc.add_product(a, b);
            }
        }
        acc.finish()
    }

    #[test]
    fn sum_of_products_is_exact_at_every_length_and_chunk_boundary() {
        // (r − 1)² is the largest product, so chunks of residues just below
        // r are the tightest case for the r·R bound; lengths 0..=64 cross
        // every reduction boundary a combination on the prover's path
        // reaches
        assert!(times_modulus_fits_radix(5) && !times_modulus_fits_radix(6));
        let mut rng = StdRng::seed_from_u64(11);
        let high = |rng: &mut StdRng| {
            let below = 1 + rng.next_u64() % (MODULUS[0] - 1);
            Fr([MODULUS[0] - below, MODULUS[1], MODULUS[2], MODULUS[3]])
        };
        for len in 0..=64usize {
            let worst = vec![(false, R_MINUS_ONE, R_MINUS_ONE); len];
            assert_eq!(kernel_sum(&worst), per_term_sum(&worst), "len {len}");
            for _ in 0..4 {
                let near_r: Vec<(bool, Fr, Fr)> = (0..len)
                    .map(|_| (false, high(&mut rng), high(&mut rng)))
                    .collect();
                assert_eq!(kernel_sum(&near_r), per_term_sum(&near_r), "len {len}");
            }
            let random: Vec<(bool, Fr, Fr)> = (0..len)
                .map(|i| (i % 7 == 3, Fr::random(&mut rng), Fr::random(&mut rng)))
                .collect();
            assert_eq!(kernel_sum(&random), per_term_sum(&random), "len {len}");
            let (a, b): (Vec<Fr>, Vec<Fr>) = random.iter().map(|&(_, a, b)| (a, b)).unzip();
            assert_eq!(
                Fr::sum_of_products(a.iter().zip(&b)),
                a.iter().zip(&b).fold(Fr::ZERO, |acc, (x, y)| acc + *x * *y),
            );
        }
        assert_eq!(SumOfProducts::new().finish(), Fr::ZERO);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs: Vec<Fr> = (1..=5u64).map(Fr::from_u64).collect();
        assert_eq!(xs.iter().copied().sum::<Fr>(), Fr::from_u64(15));
        assert_eq!(xs.iter().copied().product::<Fr>(), Fr::from_u64(120));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_mul_matches_reference(a in arb_limbs(), b in arb_limbs()) {
            let got = (fr_from_limbs(a) * fr_from_limbs(b)).to_repr();
            let want = ref_mul_mod(a, b);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_add_matches_reference(a in arb_limbs(), b in arb_limbs()) {
            let got = (fr_from_limbs(a) + fr_from_limbs(b)).to_repr();
            let want = ref_add_mod(a, b);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_add_commutative(a in arb_limbs(), b in arb_limbs()) {
            let (a, b) = (fr_from_limbs(a), fr_from_limbs(b));
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_mul_commutative(a in arb_limbs(), b in arb_limbs()) {
            let (a, b) = (fr_from_limbs(a), fr_from_limbs(b));
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_mul_associative(a in arb_limbs(), b in arb_limbs(), c in arb_limbs()) {
            let (a, b, c) = (fr_from_limbs(a), fr_from_limbs(b), fr_from_limbs(c));
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_distributive(a in arb_limbs(), b in arb_limbs(), c in arb_limbs()) {
            let (a, b, c) = (fr_from_limbs(a), fr_from_limbs(b), fr_from_limbs(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_is_add_neg(a in arb_limbs(), b in arb_limbs()) {
            let (a, b) = (fr_from_limbs(a), fr_from_limbs(b));
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn prop_double_is_add(a in arb_limbs()) {
            let a = fr_from_limbs(a);
            prop_assert_eq!(a.double(), a + a);
        }

        #[test]
        fn prop_square_is_mul(a in arb_limbs()) {
            let a = fr_from_limbs(a);
            prop_assert_eq!(a.square(), a * a);
        }

        #[test]
        fn prop_inverse(a in arb_limbs()) {
            let a = fr_from_limbs(a);
            if !a.is_zero() {
                prop_assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
            }
        }

        #[test]
        fn prop_repr_roundtrip(a in arb_limbs()) {
            let f = fr_from_limbs(a);
            prop_assert_eq!(f.to_repr(), a);
        }

        #[test]
        fn prop_sum_of_products_matches_per_term_sum(
            terms in proptest::collection::vec((any::<u8>(), arb_residue(), arb_residue()), 0..65),
        ) {
            // about one term in eight needs no multiply
            let terms: Vec<(bool, Fr, Fr)> =
                terms.into_iter().map(|(k, a, b)| (k % 8 == 0, a, b)).collect();
            prop_assert_eq!(kernel_sum(&terms), per_term_sum(&terms));
        }

        #[test]
        fn prop_uniform_bytes_in_field(bytes in any::<[u8; 64]>()) {
            let f = Fr::from_uniform_bytes(&bytes);
            // must be reduced: round-trip through canonical bytes succeeds
            prop_assert!(Fr::from_bytes_le(&f.to_bytes_le()).is_some());
        }
    }
}
