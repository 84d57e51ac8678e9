//! Arithmetic in the Mersenne-prime field `GF(p)` with `p = 2^61 - 1`.
//!
//! Polynomial hash families need a prime field whose size exceeds every
//! universe we hash (vertex ids, `C(n,2)` edge coordinates, 61-bit packed
//! keys). `2^61 - 1` is the classic choice: reduction is two shifts and an
//! add, and products of two field elements fit in `u128`.
//!
//! All functions operate on canonical representatives in `[0, p)`.

/// The field modulus `2^61 - 1` (a Mersenne prime).
pub const P: u64 = (1 << 61) - 1;

/// Reduces an arbitrary `u128` to `[0, p)`.
///
/// # Examples
///
/// ```
/// use dsg_hash::field::{reduce, P};
/// assert_eq!(reduce(P as u128), 0);
/// assert_eq!(reduce((P as u128) + 5), 5);
/// ```
#[inline]
pub fn reduce(x: u128) -> u64 {
    // Fold the high bits twice: x = hi * 2^61 + lo ≡ hi + lo (mod p).
    let lo = (x & (P as u128)) as u64;
    let hi = x >> 61;
    let folded = lo as u128 + hi;
    let lo2 = (folded & (P as u128)) as u64;
    let hi2 = (folded >> 61) as u64;
    let mut r = lo2 + hi2;
    if r >= P {
        r -= P;
    }
    r
}

/// Canonicalizes a `u64` into `[0, p)`.
#[inline]
pub fn canon(x: u64) -> u64 {
    reduce(x as u128)
}

/// Field addition.
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let mut r = a + b;
    if r >= P {
        r -= P;
    }
    r
}

/// Field subtraction.
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// Field multiplication.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    reduce(a as u128 * b as u128)
}

/// Field exponentiation by squaring.
///
/// # Examples
///
/// ```
/// use dsg_hash::field::{pow, P};
/// assert_eq!(pow(2, 61), 1); // 2^61 ≡ 2^61 - P = 1 (mod p)
/// assert_eq!(pow(5, 0), 1);
/// ```
pub fn pow(mut base: u64, mut exp: u64) -> u64 {
    base = canon(base);
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Multiplicative inverse via Fermat's little theorem.
///
/// # Panics
///
/// Panics if `a ≡ 0 (mod p)`: zero has no inverse.
pub fn inv(a: u64) -> u64 {
    let a = canon(a);
    assert_ne!(a, 0, "zero has no multiplicative inverse");
    pow(a, P - 2)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn reduce_handles_extremes() {
        assert_eq!(reduce(0), 0);
        assert_eq!(reduce(P as u128 - 1), P - 1);
        assert_eq!(reduce(P as u128), 0);
        assert_eq!(reduce(u128::MAX), ((u128::MAX) % (P as u128)) as u64);
    }

    #[test]
    fn add_wraps() {
        assert_eq!(add(P - 1, 1), 0);
        assert_eq!(add(P - 1, 2), 1);
        assert_eq!(add(0, 0), 0);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub(0, 1), P - 1);
        assert_eq!(sub(5, 5), 0);
        assert_eq!(sub(7, 3), 4);
    }

    #[test]
    fn mul_matches_u128_mod() {
        let cases = [
            (2u64, 3u64),
            (P - 1, P - 1),
            (1 << 60, 1 << 60),
            (12345, 67890),
        ];
        for (a, b) in cases {
            let expect = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(mul(a, b), expect, "mul({a},{b})");
        }
    }

    #[test]
    fn pow_basic_identities() {
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(0, 0), 1); // empty product convention
        assert_eq!(pow(7, 1), 7);
        assert_eq!(pow(3, 4), 81);
    }

    #[test]
    fn fermat_inverse() {
        for a in [1u64, 2, 3, 12345, P - 1] {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_inverse_panics() {
        inv(0);
    }

    #[test]
    fn canon_reduces_large_u64() {
        assert_eq!(canon(u64::MAX), (u64::MAX as u128 % P as u128) as u64);
        assert_eq!(canon(P), 0);
    }
}
