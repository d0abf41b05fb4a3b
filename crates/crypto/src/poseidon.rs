//! Poseidon permutation and hash over [`Fr`].
//!
//! RLN computes every in-circuit hash with Poseidon (`pk = H(sk)`,
//! `a1 = H(sk, ∅)`, `φ = H(a1)`, Merkle node hashing), because Poseidon's
//! algebraic structure keeps the R1CS constraint count small. We implement
//! the standard x⁵-S-box HADES design:
//!
//! * full rounds `R_F = 8` (4 before + 4 after the partial rounds),
//! * partial rounds `R_P` chosen per width as in the reference
//!   implementation era of the paper (`t = 2 → 56`, `t = 3 → 57`,
//!   `t = 4 → 60`),
//! * MDS matrix built as a Cauchy matrix `M[i][j] = 1/(x_i + y_j)`,
//! * round constants derived from a SHA-256 based deterministic generator.
//!
//! **Substitution note (see DESIGN.md §2):** the round constants/MDS are
//! self-generated rather than the audited Poseidon parameter set. The
//! algebraic shape (and therefore circuit size and performance behaviour)
//! matches the construction used by the paper's PoC.
//!
//! # Examples
//!
//! ```
//! use wakurln_crypto::{field::Fr, poseidon};
//!
//! let h = poseidon::hash2(Fr::from_u64(1), Fr::from_u64(2));
//! assert_ne!(h, Fr::ZERO);
//! // deterministic
//! assert_eq!(h, poseidon::hash2(Fr::from_u64(1), Fr::from_u64(2)));
//! ```

use crate::field::Fr;
use crate::sha256::Sha256;
use crate::work::{self, Unit};
use std::sync::OnceLock;

/// This thread's [`Unit::PoseidonPermutation`] count. Kept only because
/// the out-of-workspace `benchmark/` package still calls it; goes once
/// that package reads [`work`] instead.
///
/// ```
/// use wakurln_crypto::{field::Fr, poseidon};
///
/// let before = poseidon::permutation_count();
/// poseidon::hash2(Fr::ONE, Fr::ZERO);
/// assert_eq!(poseidon::permutation_count() - before, 1);
/// ```
pub fn permutation_count() -> u64 {
    work::count(Unit::PoseidonPermutation)
}

/// Number of full rounds (half applied before, half after the partial rounds).
pub const FULL_ROUNDS: usize = 8;

/// Supported state widths. Width `t` hashes `t - 1` field elements.
pub const MIN_WIDTH: usize = 2;
/// Maximum supported state width.
pub const MAX_WIDTH: usize = 5;

/// Partial-round counts per width `t` (index by `t`).
const PARTIAL_ROUNDS: [usize; MAX_WIDTH + 1] = [0, 0, 56, 57, 60, 60];

/// Precomputed parameters (round constants and MDS matrix) for one width.
#[derive(Clone, Debug)]
pub struct PoseidonParams {
    /// State width.
    pub t: usize,
    /// Number of partial rounds.
    pub rounds_p: usize,
    /// `(FULL_ROUNDS + rounds_p) * t` round constants, row-major per round.
    pub round_constants: Vec<Fr>,
    /// `t × t` MDS matrix, row-major.
    pub mds: Vec<Vec<Fr>>,
}

impl PoseidonParams {
    /// Generates the deterministic parameter set for width `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `MIN_WIDTH..=MAX_WIDTH`.
    pub fn generate(t: usize) -> PoseidonParams {
        assert!(
            (MIN_WIDTH..=MAX_WIDTH).contains(&t),
            "unsupported poseidon width {t}"
        );
        let rounds_p = PARTIAL_ROUNDS[t];
        let n_constants = (FULL_ROUNDS + rounds_p) * t;
        let mut round_constants = Vec::with_capacity(n_constants);
        for i in 0..n_constants {
            round_constants.push(field_from_domain(&format!("wakurln-poseidon-rc-t{t}-{i}")));
        }
        // Cauchy MDS: x_i = i, y_j = t + j; all x_i + y_j distinct & nonzero.
        let mut mds = Vec::with_capacity(t);
        for i in 0..t {
            let mut row = Vec::with_capacity(t);
            for j in 0..t {
                let denom = Fr::from_u64((i + t + j) as u64);
                // lint:allow(panic-path, reason = "Cauchy MDS construction: x_i + y_j is never zero for the sequential seed values")
                row.push(denom.inverse().expect("x_i + y_j is never zero"));
            }
            mds.push(row);
        }
        PoseidonParams {
            t,
            rounds_p,
            round_constants,
            mds,
        }
    }

    /// Total number of rounds (full + partial).
    pub fn total_rounds(&self) -> usize {
        FULL_ROUNDS + self.rounds_p
    }
}

/// Derives a field element from a domain-separation string by expanding
/// SHA-256 output to 64 bytes and reducing (negligible bias).
fn field_from_domain(domain: &str) -> Fr {
    let mut wide = [0u8; 64];
    let d0 = Sha256::digest(domain.as_bytes());
    let mut second = Sha256::new();
    second.update(&d0);
    second.update(b"/2");
    let d1 = second.finalize();
    wide[..32].copy_from_slice(&d0);
    wide[32..].copy_from_slice(&d1);
    Fr::from_uniform_bytes(&wide)
}

fn params_cache(t: usize) -> &'static PoseidonParams {
    static CACHE: [OnceLock<PoseidonParams>; MAX_WIDTH + 1] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CACHE[t].get_or_init(|| PoseidonParams::generate(t))
}

fn fast_params_cache(t: usize) -> &'static FastPoseidonParams {
    static CACHE: [OnceLock<FastPoseidonParams>; MAX_WIDTH + 1] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    CACHE[t].get_or_init(|| FastPoseidonParams::from_reference(params_cache(t)))
}

/// Returns the cached fast-path parameter set for width `t`.
///
/// # Panics
///
/// Panics if `t` is outside the supported range.
pub fn fast_params(t: usize) -> &'static FastPoseidonParams {
    assert!(
        (MIN_WIDTH..=MAX_WIDTH).contains(&t),
        "unsupported poseidon width {t}"
    );
    fast_params_cache(t)
}

// ---------------------------------------------------------------------------
// Fast path: flat parameters + sparse partial-round matrices
// ---------------------------------------------------------------------------

/// The linear layer applied by one partial round on the fast path.
#[derive(Clone, Debug)]
enum PartialLayer {
    /// Sparse factor `M''`: identity except the first row (`row0`, `t`
    /// entries) and the first column below the diagonal (`col0`, `t - 1`
    /// entries). Applying it costs one `t`-term dot product for lane 0
    /// plus `t - 1` scalar multiply-adds — versus `t²` multiplies for the
    /// dense MDS.
    Sparse { row0: Box<[Fr]>, col0: Box<[Fr]> },
    /// Dense `t × t` fallback (always used by the last partial round,
    /// which carries the accumulated dense factor).
    Dense(Box<[Fr]>),
}

/// Precomputed fast-path parameters: flat contiguous arrays plus the
/// sparse partial-round factorization.
///
/// Built once per width from the reference [`PoseidonParams`] and cached;
/// [`permute_fast`] and the fixed-arity hash helpers run on this
/// representation. Equivalence with the reference [`permute_with`] is
/// guaranteed by construction (the factorization is an exact operator
/// identity) and enforced by property tests.
#[derive(Clone, Debug)]
pub struct FastPoseidonParams {
    t: usize,
    /// Constants for the 8 full rounds, flat row-major (`8 × t`); the
    /// post-partial rounds' constants absorb the adjustments pushed out of
    /// the partial rounds.
    full_rc: Box<[Fr]>,
    /// One equivalent pre-S-box constant per partial round (lane 0 only).
    partial_rc0: Box<[Fr]>,
    /// Linear layer per partial round.
    partial_layers: Box<[PartialLayer]>,
    /// Dense MDS for the full rounds, flat row-major (`t × t`).
    mds_flat: Box<[Fr]>,
}

impl FastPoseidonParams {
    /// Derives the fast representation from reference parameters.
    ///
    /// The transformation (standard "optimized Poseidon" partial-round
    /// rewrite) is an exact operator identity:
    ///
    /// 1. Each partial round's dense matrix `Mᵣ` factors as `M′ · M″`
    ///    with `M″` sparse and `M′ = diag(1, D)`; `M′` commutes with the
    ///    lane-0 S-box, so it is absorbed into the *next* round's matrix
    ///    (`M·M′`), whose constants are pulled back through `M′⁻¹`.
    /// 2. Each partial round's constant vector splits into its lane-0
    ///    component (kept, added right before the S-box) and the rest,
    ///    which commutes with the S-box and is pushed through the round's
    ///    linear layer into the next round's constants.
    pub fn from_reference(params: &PoseidonParams) -> FastPoseidonParams {
        let t = params.t;
        let rounds_p = params.rounds_p;
        let half = FULL_ROUNDS / 2;
        let total = params.total_rounds();

        // round constants as per-round vectors
        let mut c: Vec<Vec<Fr>> = (0..total)
            .map(|r| params.round_constants[r * t..(r + 1) * t].to_vec())
            .collect();

        let m: Vec<Vec<Fr>> = params.mds.clone();
        let mut cur = m.clone();
        let mut partial_layers = Vec::with_capacity(rounds_p);
        let mut partial_rc0 = Vec::with_capacity(rounds_p);

        for k in 0..rounds_p {
            let r = half + k;
            // lint:allow(panic-path, reason = "round-constant rows have width t >= 2; index 0 exists")
            partial_rc0.push(c[r][0]);
            let mut rest = c[r].clone();
            // lint:allow(panic-path, reason = "rest is a clone of a width-t row, t >= 2")
            rest[0] = Fr::ZERO;

            let is_last = k == rounds_p - 1;
            let factored = if is_last { None } else { factor_sparse(&cur) };
            match factored {
                Some((d, d_inv, ms_row0, ms_col0)) => {
                    // push `rest` through M'' into the next round's
                    // constants, which are first pulled back through M'⁻¹
                    let ms_rest = apply_sparse_vec(&ms_row0, &ms_col0, &rest);
                    let mut next = c[r + 1].clone();
                    // M'⁻¹ = diag(1, D⁻¹)
                    let tail: Vec<Fr> = (1..t)
                        .map(|i| {
                            (1..t).fold(Fr::ZERO, |acc, j| {
                                acc + d_inv[(i - 1) * (t - 1) + (j - 1)] * next[j]
                            })
                        })
                        .collect();
                    next[1..].copy_from_slice(&tail);
                    for (n, p) in next.iter_mut().zip(ms_rest.iter()) {
                        *n += *p;
                    }
                    c[r + 1] = next;
                    partial_layers.push(PartialLayer::Sparse {
                        row0: ms_row0.into_boxed_slice(),
                        col0: ms_col0.into_boxed_slice(),
                    });
                    // absorb M' = diag(1, D) into the next round's matrix
                    cur = mat_mul_diag_block(&m, &d);
                }
                None => {
                    // dense fallback (always the last partial round):
                    // push `rest` through the dense matrix
                    let pushed = mat_vec(&cur, &rest);
                    for (n, p) in c[r + 1].iter_mut().zip(pushed.iter()) {
                        *n += *p;
                    }
                    partial_layers.push(PartialLayer::Dense(flatten(&cur)));
                    cur = m.clone();
                }
            }
        }

        // full-round constants: rounds 0..half then half+rounds_p..total
        let mut full_rc = Vec::with_capacity(FULL_ROUNDS * t);
        for r in (0..half).chain(half + rounds_p..total) {
            full_rc.extend_from_slice(&c[r]);
        }

        FastPoseidonParams {
            t,
            full_rc: full_rc.into_boxed_slice(),
            partial_rc0: partial_rc0.into_boxed_slice(),
            partial_layers: partial_layers.into_boxed_slice(),
            mds_flat: flatten(&m),
        }
    }

    /// State width.
    pub fn width(&self) -> usize {
        self.t
    }

    /// How many partial rounds run on the sparse path (diagnostics; the
    /// last partial round is always dense by construction).
    pub fn sparse_rounds(&self) -> usize {
        self.partial_layers
            .iter()
            .filter(|l| matches!(l, PartialLayer::Sparse { .. }))
            .count()
    }
}

fn flatten(m: &[Vec<Fr>]) -> Box<[Fr]> {
    m.iter().flatten().copied().collect()
}

/// `M · diag(1, D)`: scales/mixes the trailing columns of `M` by `D`.
fn mat_mul_diag_block(m: &[Vec<Fr>], d: &[Fr]) -> Vec<Vec<Fr>> {
    let t = m.len();
    let n = t - 1;
    let mut out = vec![vec![Fr::ZERO; t]; t];
    for i in 0..t {
        // lint:allow(panic-path, reason = "square t-by-t matrices from the parameter generator; both indices are < t")
        out[i][0] = m[i][0];
        for j in 1..t {
            let mut acc = Fr::ZERO;
            for k in 1..t {
                acc += m[i][k] * d[(k - 1) * n + (j - 1)];
            }
            out[i][j] = acc;
        }
    }
    out
}

fn mat_vec(m: &[Vec<Fr>], v: &[Fr]) -> Vec<Fr> {
    m.iter()
        .map(|row| {
            row.iter()
                .zip(v.iter())
                .fold(Fr::ZERO, |acc, (a, b)| acc + *a * *b)
        })
        .collect()
}

/// Applies the sparse factor `M''` to a vector.
fn apply_sparse_vec(row0: &[Fr], col0: &[Fr], v: &[Fr]) -> Vec<Fr> {
    let t = row0.len();
    let mut out = vec![Fr::ZERO; t];
    out[0] = row0
        .iter()
        .zip(v.iter())
        .fold(Fr::ZERO, |acc, (a, b)| acc + *a * *b);
    for i in 1..t {
        out[i] = v[i] + col0[i - 1] * v[0];
    }
    out
}

/// Factors `cur = diag(1, D) · M''` with `M''` sparse.
///
/// Writing `cur = [[m00, B], [C, D]]`, the factors are
/// `M'' = [[m00, B], [D⁻¹C, I]]` and `M' = diag(1, D)`. Returns
/// `(D, D⁻¹, row0 = (m00, B), col0 = D⁻¹C)`, or `None` when `D` is
/// singular (then the caller falls back to the dense layer).
#[allow(clippy::type_complexity)]
fn factor_sparse(cur: &[Vec<Fr>]) -> Option<(Vec<Fr>, Vec<Fr>, Vec<Fr>, Vec<Fr>)> {
    let t = cur.len();
    let n = t - 1;
    let mut d = vec![Fr::ZERO; n * n];
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = cur[i + 1][j + 1];
        }
    }
    let d_inv = invert_matrix(&d, n)?;
    let row0: Vec<Fr> = cur[0].clone();
    let col0: Vec<Fr> = (0..n)
        // lint:allow(panic-path, reason = "cur rows have width t = n + 1 >= 2; index 0 exists")
        .map(|i| (0..n).fold(Fr::ZERO, |acc, j| acc + d_inv[i * n + j] * cur[j + 1][0]))
        .collect();
    Some((d, d_inv, row0, col0))
}

/// Gauss–Jordan inversion of an `n × n` matrix (row-major flat storage).
fn invert_matrix(m: &[Fr], n: usize) -> Option<Vec<Fr>> {
    let mut a = m.to_vec();
    let mut inv = vec![Fr::ZERO; n * n];
    for i in 0..n {
        inv[i * n + i] = Fr::ONE;
    }
    for col in 0..n {
        let pivot_row = (col..n).find(|&r| !a[r * n + col].is_zero())?;
        if pivot_row != col {
            for j in 0..n {
                a.swap(col * n + j, pivot_row * n + j);
                inv.swap(col * n + j, pivot_row * n + j);
            }
        }
        let pivot_inv = a[col * n + col].inverse()?;
        for j in 0..n {
            a[col * n + j] *= pivot_inv;
            inv[col * n + j] *= pivot_inv;
        }
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row * n + col];
            if factor.is_zero() {
                continue;
            }
            for j in 0..n {
                let av = a[col * n + j];
                let iv = inv[col * n + j];
                a[row * n + j] -= factor * av;
                inv[row * n + j] -= factor * iv;
            }
        }
    }
    Some(inv)
}

/// Applies the Poseidon permutation on the fast path for a fixed width.
///
/// Exactly equivalent to the reference [`permute_with`] (property-tested);
/// runs on flat arrays with the sparse partial-round schedule and no heap
/// allocation.
#[inline]
pub fn permute_fast<const T: usize>(fp: &FastPoseidonParams, state: &mut [Fr; T]) {
    assert_eq!(T, fp.t, "state width mismatch");
    work::add(Unit::PoseidonPermutation, 1);
    let half = FULL_ROUNDS / 2;

    // first half of the full rounds
    for r in 0..half {
        full_round::<T>(fp, r, state);
    }

    // partial rounds: one lane-0 constant, lane-0 S-box, sparse mix
    for (p, layer) in fp.partial_layers.iter().enumerate() {
        state[0] += fp.partial_rc0[p];
        state[0] = sbox(state[0]);
        match layer {
            PartialLayer::Sparse { row0, col0 } => {
                let s0 = state[0];
                let new0 = Fr::sum_of_products(row0.iter().zip(state.iter()));
                for i in 1..T {
                    state[i] += col0[i - 1] * s0;
                }
                state[0] = new0;
            }
            PartialLayer::Dense(m) => {
                dense_mix::<T>(m, state);
            }
        }
    }

    // second half of the full rounds
    for r in half..FULL_ROUNDS {
        full_round::<T>(fp, r, state);
    }
}

#[inline]
fn full_round<const T: usize>(fp: &FastPoseidonParams, r: usize, state: &mut [Fr; T]) {
    let rc = &fp.full_rc[r * T..(r + 1) * T];
    for (s, c) in state.iter_mut().zip(rc.iter()) {
        *s = sbox(*s + *c);
    }
    dense_mix::<T>(&fp.mds_flat, state);
}

#[inline]
fn dense_mix<const T: usize>(m: &[Fr], state: &mut [Fr; T]) {
    let mut out = [Fr::ZERO; T];
    for (slot, row) in out.iter_mut().zip(m.chunks_exact(T)) {
        *slot = Fr::sum_of_products(row.iter().zip(state.iter()));
    }
    *state = out;
}

/// The x⁵ S-box.
#[inline]
pub fn sbox(x: Fr) -> Fr {
    let x2 = x.square();
    let x4 = x2.square();
    x4 * x
}

/// Applies the permutation using explicit parameters — the reference
/// implementation (used by the circuit gadget so that the in-circuit and
/// native computations share one source of truth, and as the ground truth
/// the fast path is property-tested against).
pub fn permute_with(params: &PoseidonParams, state: &mut [Fr]) {
    assert_eq!(state.len(), params.t, "state width mismatch");
    work::add(Unit::PoseidonPermutation, 1);
    let t = params.t;
    let half_full = FULL_ROUNDS / 2;
    let total = params.total_rounds();
    let mut scratch = vec![Fr::ZERO; t];
    for round in 0..total {
        // AddRoundKey
        for (i, s) in state.iter_mut().enumerate() {
            *s += params.round_constants[round * t + i];
        }
        // S-box layer: full rounds apply to the whole state, partial rounds
        // only to lane 0.
        let is_full = round < half_full || round >= half_full + params.rounds_p;
        if is_full {
            for s in state.iter_mut() {
                *s = sbox(*s);
            }
        } else {
            state[0] = sbox(state[0]);
        }
        // MDS mix
        for (i, slot) in scratch.iter_mut().enumerate() {
            let mut acc = Fr::ZERO;
            for (j, s) in state.iter().enumerate() {
                acc += params.mds[i][j] * *s;
            }
            *slot = acc;
        }
        state.copy_from_slice(&scratch);
    }
}

/// Hashes exactly one field element (width-2 compression, capacity lane 0).
///
/// This is RLN's `pk = H(sk)` and `φ = H(a1)`.
pub fn hash1(a: Fr) -> Fr {
    let mut state = [Fr::ZERO, a];
    permute_fast::<2>(fast_params_cache(2), &mut state);
    state[0]
}

/// Hashes exactly two field elements (width-3 compression). This is the
/// Merkle node hash and RLN's `a1 = H(sk, ∅)`.
pub fn hash2(a: Fr, b: Fr) -> Fr {
    let mut state = [Fr::ZERO, a, b];
    permute_fast::<3>(fast_params_cache(3), &mut state);
    state[0]
}

/// Hashes arbitrary bytes into the field: bytes are absorbed through
/// SHA-256 (64-byte expansion) then mapped with [`Fr::from_uniform_bytes`].
///
/// RLN uses this to map the application message `m` to the Shamir
/// evaluation point `x = H(m)`.
pub fn hash_bytes_to_field(bytes: &[u8]) -> Fr {
    let mut wide = [0u8; 64];
    let mut h0 = Sha256::new();
    h0.update(b"wakurln-h2f-0");
    h0.update(bytes);
    let mut h1 = Sha256::new();
    h1.update(b"wakurln-h2f-1");
    h1.update(bytes);
    wide[..32].copy_from_slice(&h0.finalize());
    wide[32..].copy_from_slice(&h1.finalize());
    Fr::from_uniform_bytes(&wide)
}

/// Returns the shared parameter set for width `t`.
///
/// # Panics
///
/// Panics if `t` is outside the supported range.
pub fn params(t: usize) -> &'static PoseidonParams {
    params_cache(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        let a = hash2(Fr::from_u64(1), Fr::from_u64(2));
        let b = hash2(Fr::from_u64(1), Fr::from_u64(2));
        assert_eq!(a, b);
    }

    #[test]
    fn argument_order_matters() {
        assert_ne!(
            hash2(Fr::from_u64(1), Fr::from_u64(2)),
            hash2(Fr::from_u64(2), Fr::from_u64(1))
        );
    }

    #[test]
    fn widths_are_domain_separated() {
        // hash1(x) must differ from hash2(x, 0): different widths use
        // different parameter sets.
        let x = Fr::from_u64(42);
        assert_ne!(hash1(x), hash2(x, Fr::ZERO));
    }

    #[test]
    fn permutation_is_not_identity() {
        let mut state = [Fr::ZERO, Fr::ZERO, Fr::ZERO];
        permute_fast::<3>(fast_params(3), &mut state);
        assert_ne!(state, [Fr::ZERO, Fr::ZERO, Fr::ZERO]);
    }

    #[test]
    fn mds_rows_are_distinct_and_nonzero() {
        let p = PoseidonParams::generate(3);
        for row in &p.mds {
            for entry in row {
                assert!(!entry.is_zero());
            }
        }
        assert_ne!(p.mds[0], p.mds[1]);
        assert_ne!(p.mds[1], p.mds[2]);
    }

    #[test]
    fn round_constant_counts() {
        for t in MIN_WIDTH..=MAX_WIDTH {
            let p = PoseidonParams::generate(t);
            assert_eq!(p.round_constants.len(), p.total_rounds() * t);
        }
    }

    #[test]
    fn hash_bytes_to_field_differs_per_input() {
        assert_ne!(hash_bytes_to_field(b"hello"), hash_bytes_to_field(b"hellp"));
        assert_ne!(hash_bytes_to_field(b""), hash_bytes_to_field(b"\0"));
    }

    #[test]
    #[should_panic(expected = "unsupported poseidon width")]
    fn unsupported_width_panics() {
        PoseidonParams::generate(9);
    }

    #[test]
    #[should_panic(expected = "unsupported poseidon width")]
    fn unsupported_width_panics_on_permute() {
        let mut state = [Fr::ZERO; 7];
        permute_fast::<7>(fast_params(7), &mut state);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn fast_params_use_sparse_rounds() {
        // all but the last partial round must run on the sparse path
        for t in MIN_WIDTH..=MAX_WIDTH {
            let fp = fast_params(t);
            assert_eq!(fp.width(), t);
            assert_eq!(fp.sparse_rounds(), PARTIAL_ROUNDS[t] - 1, "width {t}");
        }
    }

    /// The fast permutation of the first `T` lanes, for tests that run
    /// every width.
    fn fast_prefix<const T: usize>(lanes: &[Fr]) -> Vec<Fr> {
        let mut state: [Fr; T] = std::array::from_fn(|i| lanes[i]);
        permute_fast::<T>(fast_params(T), &mut state);
        state.to_vec()
    }

    /// [`fast_prefix`] at every supported width, narrowest first.
    fn fast_every_width(lanes: &[Fr]) -> [Vec<Fr>; MAX_WIDTH - MIN_WIDTH + 1] {
        [
            fast_prefix::<2>(lanes),
            fast_prefix::<3>(lanes),
            fast_prefix::<4>(lanes),
            fast_prefix::<5>(lanes),
        ]
    }

    #[test]
    fn fast_matches_reference_on_fixed_states() {
        let lanes: Vec<Fr> = (0..MAX_WIDTH as u64).map(Fr::from_u64).collect();
        for (t, fast) in (MIN_WIDTH..=MAX_WIDTH).zip(fast_every_width(&lanes)) {
            let mut reference = lanes[..t].to_vec();
            permute_with(params(t), &mut reference);
            assert_eq!(reference, fast, "width {t}");
        }
    }

    #[test]
    fn permutation_counter_increments() {
        let before = work::count(Unit::PoseidonPermutation);
        hash1(Fr::ONE);
        hash2(Fr::ONE, Fr::ZERO);
        permute_fast::<4>(fast_params(4), &mut [Fr::ZERO, Fr::ONE, Fr::ZERO, Fr::ONE]);
        let mut state = [Fr::ZERO; 3];
        permute_with(params(3), &mut state);
        assert_eq!(work::count(Unit::PoseidonPermutation) - before, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_hash2_collision_resistant_on_random_inputs(
            a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()
        ) {
            let x = hash2(Fr::from_u64(a), Fr::from_u64(b));
            let y = hash2(Fr::from_u64(c), Fr::from_u64(d));
            if (a, b) != (c, d) {
                prop_assert_ne!(x, y);
            } else {
                prop_assert_eq!(x, y);
            }
        }

        #[test]
        fn prop_permutation_bijective_on_samples(a in any::<u64>(), b in any::<u64>()) {
            // distinct states map to distinct outputs (injectivity sample)
            let mut s1 = [Fr::ZERO, Fr::from_u64(a), Fr::from_u64(b)];
            let mut s2 = [Fr::ONE, Fr::from_u64(a), Fr::from_u64(b)];
            permute_fast::<3>(fast_params(3), &mut s1);
            permute_fast::<3>(fast_params(3), &mut s2);
            prop_assert_ne!(s1, s2);
        }

        /// The tentpole equivalence property: the fast permutation equals
        /// the reference `permute_with` on random states, for every width.
        #[test]
        fn prop_fast_permutation_matches_reference(
            seeds in proptest::collection::vec(any::<[u8; 64]>(), MAX_WIDTH..MAX_WIDTH + 1)
        ) {
            let lanes: Vec<Fr> = seeds.iter().map(Fr::from_uniform_bytes).collect();
            for (t, fast) in (MIN_WIDTH..=MAX_WIDTH).zip(fast_every_width(&lanes)) {
                let mut reference = lanes[..t].to_vec();
                permute_with(params(t), &mut reference);
                prop_assert_eq!(&reference, &fast, "width {}", t);
            }
        }
    }
}
