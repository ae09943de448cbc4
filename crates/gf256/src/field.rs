//! Scalar arithmetic in GF(2⁸).
//!
//! Elements are wrapped in the [`Gf256`] newtype.  Addition and subtraction
//! are both XOR; multiplication and division go through logarithm /
//! exponential tables generated at compile time from the primitive element
//! `α = 0x02` of the field defined by the irreducible polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`).

use crate::FieldError;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The reduction polynomial `x⁸ + x⁴ + x³ + x² + 1`, with the x⁸ bit included.
const REDUCTION_POLY: u16 = 0x11d;

/// Number of non-zero elements of the field (the multiplicative group order).
const GROUP_ORDER: usize = 255;

/// Carry-less ("Russian peasant") multiplication used only to build the
/// exp/log tables at compile time; runtime multiplication uses the tables.
const fn clmul(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        b >>= 1;
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (REDUCTION_POLY & 0xff) as u8;
        }
        i += 1;
    }
    acc
}

const fn build_exp_table() -> [u8; 512] {
    // exp[i] = α^i; table is doubled so that exp[log a + log b] never needs a
    // modular reduction in the hot multiplication path.
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x;
        exp[i + GROUP_ORDER] = x;
        x = clmul(x, 2);
        i += 1;
    }
    // Positions 510 and 511 are never indexed (max index is 254 + 254 = 508)
    // but keep them consistent anyway.
    exp[2 * GROUP_ORDER] = 1;
    exp[2 * GROUP_ORDER + 1] = 2;
    exp
}

const fn build_log_table(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < GROUP_ORDER {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    // log[0] is undefined; leave it as 0 and guard in the callers.
    log
}

/// `EXP[i] = α^i` for `i ∈ [0, 509]` (doubled to avoid a mod in multiply).
static EXP: [u8; 512] = build_exp_table();
/// `LOG[a] = log_α a` for `a ∈ [1, 255]`; `LOG[0]` is unused.
static LOG: [u8; 256] = build_log_table(&EXP);

/// An element of the Galois field GF(2⁸).
///
/// The type is a transparent wrapper around a byte; all arithmetic operators
/// are implemented, with addition/subtraction as XOR and multiplication /
/// division through log/exp tables.  Division by [`Gf256::ZERO`] panics, the
/// same way integer division by zero panics; use [`Gf256::inverse`]
/// for a fallible variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub(crate) const ONE: Gf256 = Gf256(1);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte representation of the element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `2 · self`: a left shift, reduced by the polynomial when the top bit
    /// carries out (branch-free, no table).
    #[inline]
    pub(crate) const fn double(self) -> Self {
        let carry = 0u8.wrapping_sub(self.0 >> 7);
        Gf256((self.0 << 1) ^ (carry & (REDUCTION_POLY & 0xff) as u8))
    }

    /// Raises the element to an arbitrary non-negative integer power.
    ///
    /// `0⁰` is defined as `1`, matching the usual convention for evaluating
    /// polynomials at zero.  Only the Vandermonde reference of the tests
    /// evaluates powers.
    #[cfg(test)]
    pub(crate) fn pow(self, exponent: usize) -> Self {
        if exponent == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let log = LOG[self.0 as usize] as usize;
        Gf256(EXP[(log * exponent) % GROUP_ORDER])
    }

    /// The multiplicative inverse, or an error for zero.
    pub fn inverse(self) -> Result<Self, FieldError> {
        if self.is_zero() {
            return Err(FieldError::ZeroHasNoInverse);
        }
        let log = LOG[self.0 as usize] as usize;
        Ok(Gf256(EXP[GROUP_ORDER - log]))
    }

    /// Multiplication without tables, used in tests to cross-check the table
    /// driven implementation.
    #[cfg(test)]
    pub(crate) fn slow_mul(self, rhs: Self) -> Self {
        Gf256(clmul(self.0, rhs.0))
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // Addition in GF(2^8) *is* carry-less xor; the lint expects integer `+`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // In characteristic 2, subtraction is identical to addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let la = LOG[self.0 as usize] as usize;
        let lb = LOG[rhs.0 as usize] as usize;
        Gf256(EXP[la + lb])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        assert!(!rhs.is_zero(), "division by zero in GF(256)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let la = LOG[self.0 as usize] as usize;
        let lb = LOG[rhs.0 as usize] as usize;
        Gf256(EXP[la + GROUP_ORDER - lb])
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl core::iter::Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl core::iter::Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_elements() -> impl Iterator<Item = Gf256> {
        (0u16..=255).map(|v| Gf256::new(v as u8))
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in all_elements() {
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a - a, Gf256::ZERO);
            assert_eq!(-a, a);
        }
    }

    #[test]
    fn table_mul_matches_slow_mul_exhaustively() {
        for a in 0u16..=255 {
            for b in 0u16..=255 {
                let x = Gf256::new(a as u8);
                let y = Gf256::new(b as u8);
                assert_eq!(x * y, x.slow_mul(y), "mismatch at {a} * {b}");
            }
        }
    }

    #[test]
    fn multiplicative_identity_and_zero() {
        for a in all_elements() {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverse_round_trips_for_all_nonzero() {
        for a in all_elements().filter(|a| !a.is_zero()) {
            let inv = a.inverse().expect("nonzero has inverse");
            assert_eq!(a * inv, Gf256::ONE, "a = {a}");
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        assert_eq!(Gf256::ZERO.inverse(), Err(FieldError::ZeroHasNoInverse));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in all_elements() {
            for b in all_elements().filter(|b| !b.is_zero()) {
                assert_eq!((a * b) / b, a);
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // α = 0x02 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(!seen[x.value() as usize], "generator order < 255");
            seen[x.value() as usize] = true;
            x *= Gf256::new(2);
        }
        assert_eq!(x, Gf256::ONE, "α^255 must be 1");
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0x00u8, 0x01, 0x02, 0x03, 0x53, 0xca, 0xff] {
            let a = Gf256::new(a);
            let mut acc = Gf256::ONE;
            for e in 0..30 {
                assert_eq!(a.pow(e), acc, "a = {a}, e = {e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in [3u8, 7, 91, 200, 255] {
            for b in [1u8, 2, 5, 130, 254] {
                for c in [0u8, 9, 77, 128, 251] {
                    let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                    assert_eq!((a + b) * c, a * c + b * c);
                }
            }
        }
    }

    #[test]
    fn associativity_spot_checks() {
        for a in [3u8, 7, 91, 200, 255] {
            for b in [1u8, 2, 5, 130, 254] {
                for c in [4u8, 9, 77, 128, 251] {
                    let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
                    assert_eq!((a * b) * c, a * (b * c));
                    assert_eq!((a + b) + c, a + (b + c));
                }
            }
        }
    }

    #[test]
    fn sum_and_product_iterators() {
        let elems = [Gf256::new(1), Gf256::new(2), Gf256::new(3)];
        let sum: Gf256 = elems.iter().copied().sum();
        assert_eq!(sum, Gf256::new(1 ^ 2 ^ 3));
        let prod: Gf256 = elems.iter().copied().product();
        assert_eq!(prod, Gf256::new(1) * Gf256::new(2) * Gf256::new(3));
    }

    #[test]
    fn display_and_debug_formats() {
        assert_eq!(format!("{}", Gf256::new(0xab)), "0xab");
        assert_eq!(format!("{:?}", Gf256::new(0xab)), "Gf256(0xab)");
    }
}
