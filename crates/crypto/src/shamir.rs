//! Shamir secret sharing over [`Fr`].
//!
//! RLN's economic incentive rests on a degree-1 instance of Shamir's scheme
//! [Shamir'79]: each signal discloses one evaluation of the line
//! `A(x) = sk + a1·x` (with `a1 = H(sk, ∅)` bound to the epoch). One share
//! reveals nothing about `sk`; two *distinct* shares for the same epoch —
//! which only exist if a member double-signals — reconstruct `sk` exactly.
//!
//! A general `k`-of-`n` implementation ([`Polynomial`], [`split`],
//! [`reconstruct`]) is provided as well, both because it is the natural
//! generalization and because property tests over it pin down the degree-1
//! special case used by the protocol.
//!
//! # Examples
//!
//! ```
//! use wakurln_crypto::{field::Fr, shamir};
//!
//! let sk = Fr::from_u64(1234);
//! let a1 = Fr::from_u64(777); // epoch-bound line slope
//! let s1 = shamir::share_on_line(sk, a1, Fr::from_u64(10));
//! let s2 = shamir::share_on_line(sk, a1, Fr::from_u64(20));
//! assert_eq!(shamir::recover_line_secret(&s1, &s2), Some(sk));
//! ```

use crate::field::Fr;
use rand::RngCore;

/// One evaluation point of a sharing polynomial: `(x, y = A(x))`.
///
/// In RLN terms this is the `[sk]` component of a signal, with
/// `x = H(m)` and `y = sk + a1·x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Share {
    /// Evaluation point (derived from the message in RLN).
    pub x: Fr,
    /// Polynomial evaluation at `x`.
    pub y: Fr,
}

/// Evaluates the RLN line `A(x) = secret + slope·x` at `x`.
pub fn share_on_line(secret: Fr, slope: Fr, x: Fr) -> Share {
    Share {
        x,
        y: secret + slope * x,
    }
}

/// Recovers the line's secret (`A(0)`) from two shares.
///
/// Returns `None` when `s1.x == s2.x`: two shares at the same evaluation
/// point are either identical (no new information) or inconsistent (cannot
/// lie on one line), and in both cases reconstruction is impossible. This
/// is the RLN corner case where a spammer repeats the *exact same message*
/// in one epoch — routers treat that as a duplicate rather than spam.
pub fn recover_line_secret(s1: &Share, s2: &Share) -> Option<Fr> {
    let dx = s2.x - s1.x;
    let inv = dx.inverse()?;
    // A(0) = (y1·x2 − y2·x1) / (x2 − x1)
    Some((s1.y * s2.x - s2.y * s1.x) * inv)
}

/// A polynomial over `Fr` in coefficient form, `coeffs[i]` being the
/// coefficient of `x^i`. `coeffs[0]` is the shared secret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Fr>,
}

impl Polynomial {
    /// Creates a random polynomial of degree `k - 1` with constant term
    /// `secret`, suitable for a `k`-of-`n` sharing.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn random_for_secret<R: RngCore + ?Sized>(secret: Fr, k: usize, rng: &mut R) -> Polynomial {
        assert!(k >= 1, "threshold must be at least 1");
        let mut coeffs = Vec::with_capacity(k);
        coeffs.push(secret);
        for _ in 1..k {
            coeffs.push(Fr::random(rng));
        }
        Polynomial { coeffs }
    }

    /// Creates a polynomial from explicit coefficients (constant term first).
    pub fn from_coeffs(coeffs: Vec<Fr>) -> Polynomial {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Polynomial { coeffs }
    }

    /// The sharing threshold (`degree + 1`).
    pub fn threshold(&self) -> usize {
        self.coeffs.len()
    }

    /// The shared secret, `A(0)`.
    pub fn secret(&self) -> Fr {
        // lint:allow(panic-path, reason = "a polynomial always carries its constant coefficient at index 0")
        self.coeffs[0]
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: Fr) -> Fr {
        let mut acc = Fr::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// Produces the share at evaluation point `x`.
    pub fn share(&self, x: Fr) -> Share {
        Share { x, y: self.eval(x) }
    }
}

/// Splits `secret` into `n` shares with threshold `k` at evaluation points
/// `1..=n`.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn split<R: RngCore + ?Sized>(secret: Fr, k: usize, n: usize, rng: &mut R) -> Vec<Share> {
    assert!(k >= 1 && k <= n, "require 1 <= k <= n");
    let poly = Polynomial::random_for_secret(secret, k, rng);
    (1..=n as u64)
        .map(|i| poly.share(Fr::from_u64(i)))
        .collect()
}

/// Lagrange interpolation at zero: reconstructs the secret from exactly
/// `k` shares with pairwise-distinct `x` coordinates.
///
/// Returns `None` if any two shares have the same `x`.
pub fn reconstruct(shares: &[Share]) -> Option<Fr> {
    for (i, a) in shares.iter().enumerate() {
        for b in shares.iter().skip(i + 1) {
            if a.x == b.x {
                return None;
            }
        }
    }
    let mut secret = Fr::ZERO;
    for (i, si) in shares.iter().enumerate() {
        let mut num = Fr::ONE;
        let mut den = Fr::ONE;
        for (j, sj) in shares.iter().enumerate() {
            if i == j {
                continue;
            }
            num *= sj.x; // (0 - x_j) up to sign; signs cancel pairwise below
            den *= sj.x - si.x;
        }
        // λ_i(0) = Π_j (0 − x_j)/(x_i − x_j) = Π_j x_j / (x_j − x_i)
        // we computed den = Π (x_j − x_i) with opposite sign per factor:
        // Π (x_j - x_i) vs needed Π (x_j - x_i) — consistent as written.
        let li = num * den.inverse()?;
        secret += si.y * li;
    }
    Some(secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_share_and_recover() {
        let sk = Fr::from_u64(99);
        let a1 = Fr::from_u64(5);
        let s1 = share_on_line(sk, a1, Fr::from_u64(3));
        let s2 = share_on_line(sk, a1, Fr::from_u64(4));
        assert_eq!(recover_line_secret(&s1, &s2), Some(sk));
    }

    #[test]
    fn same_x_cannot_reconstruct() {
        let sk = Fr::from_u64(99);
        let a1 = Fr::from_u64(5);
        let s1 = share_on_line(sk, a1, Fr::from_u64(3));
        let s2 = share_on_line(sk, a1, Fr::from_u64(3));
        assert_eq!(recover_line_secret(&s1, &s2), None);
    }

    #[test]
    fn single_share_is_consistent_with_any_secret() {
        // one share leaks nothing: for any candidate secret there exists a
        // slope explaining the share
        let sk = Fr::from_u64(1234);
        let a1 = Fr::from_u64(777);
        let x = Fr::from_u64(10);
        let s = share_on_line(sk, a1, x);
        for candidate in [Fr::ZERO, Fr::ONE, Fr::from_u64(5555)] {
            // slope' = (y - candidate)/x explains the share for candidate
            let slope = (s.y - candidate) * x.inverse().unwrap();
            assert_eq!(share_on_line(candidate, slope, x), s);
        }
    }

    #[test]
    fn kn_split_reconstruct() {
        let mut rng = StdRng::seed_from_u64(42);
        let secret = Fr::random(&mut rng);
        let shares = split(secret, 3, 5, &mut rng);
        assert_eq!(shares.len(), 5);
        assert_eq!(reconstruct(&shares[0..3]), Some(secret));
        assert_eq!(reconstruct(&shares[2..5]), Some(secret));
        assert_eq!(
            reconstruct(&[shares[0], shares[2], shares[4]]),
            Some(secret)
        );
    }

    #[test]
    fn too_few_shares_give_wrong_secret() {
        let mut rng = StdRng::seed_from_u64(43);
        let secret = Fr::random(&mut rng);
        let shares = split(secret, 3, 5, &mut rng);
        // interpolating a degree-2 polynomial from 2 points is underdetermined;
        // treating them as a 2-threshold sharing yields a different value
        let guessed = reconstruct(&shares[0..2]).unwrap();
        assert_ne!(guessed, secret);
    }

    #[test]
    fn duplicate_x_rejected_in_reconstruct() {
        let mut rng = StdRng::seed_from_u64(44);
        let shares = split(Fr::from_u64(7), 2, 3, &mut rng);
        assert_eq!(reconstruct(&[shares[0], shares[0]]), None);
    }

    #[test]
    fn polynomial_eval_horner() {
        // p(x) = 3 + 2x + x^2
        let p = Polynomial::from_coeffs(vec![Fr::from_u64(3), Fr::from_u64(2), Fr::from_u64(1)]);
        assert_eq!(p.eval(Fr::ZERO), Fr::from_u64(3));
        assert_eq!(p.eval(Fr::from_u64(1)), Fr::from_u64(6));
        assert_eq!(p.eval(Fr::from_u64(2)), Fr::from_u64(11));
        assert_eq!(p.threshold(), 3);
        assert_eq!(p.secret(), Fr::from_u64(3));
    }

    #[test]
    #[should_panic(expected = "require 1 <= k <= n")]
    fn split_rejects_bad_threshold() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = split(Fr::ONE, 4, 3, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_line_roundtrip(sk in any::<u64>(), a1 in any::<u64>(),
                               x1 in 1u64..1_000_000, dx in 1u64..1_000_000) {
            let sk = Fr::from_u64(sk);
            let a1 = Fr::from_u64(a1);
            let s1 = share_on_line(sk, a1, Fr::from_u64(x1));
            let s2 = share_on_line(sk, a1, Fr::from_u64(x1 + dx));
            prop_assert_eq!(recover_line_secret(&s1, &s2), Some(sk));
        }

        #[test]
        fn prop_kn_roundtrip(seed in any::<u64>(), k in 1usize..5, extra in 0usize..4) {
            let n = k + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = Fr::random(&mut rng);
            let shares = split(secret, k, n, &mut rng);
            prop_assert_eq!(reconstruct(&shares[..k]), Some(secret));
        }

        #[test]
        fn prop_shares_from_different_lines_recover_different_secrets(
            sk1 in 1u64..u64::MAX, delta in 1u64..1_000_000
        ) {
            // two signals from *different* identities never frame each other:
            // mixing one share from each line reconstructs garbage, not sk1/sk2
            let sk1 = Fr::from_u64(sk1);
            let sk2 = sk1 + Fr::from_u64(delta);
            let a = Fr::from_u64(31337);
            let s1 = share_on_line(sk1, a, Fr::from_u64(5));
            let s2 = share_on_line(sk2, a, Fr::from_u64(6));
            let mixed = recover_line_secret(&s1, &s2).unwrap();
            prop_assert_ne!(mixed, sk1);
            prop_assert_ne!(mixed, sk2);
        }
    }
}
