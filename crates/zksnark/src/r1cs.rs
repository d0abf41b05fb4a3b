//! Rank-1 Constraint System (R1CS).
//!
//! The RLN statement ("my key is in the membership tree, and the nullifier
//! and secret share attached to this message are correctly derived from my
//! key and the epoch") is expressed as an R1CS: a list of constraints
//! `⟨A_i, z⟩ · ⟨B_i, z⟩ = ⟨C_i, z⟩` over the variable vector
//! `z = (1, instance…, witness…)`.
//!
//! This is the same intermediate representation Groth16 consumes; the
//! simulated backend in [`crate::snark`] proves satisfaction of exactly
//! these constraints. The module has two halves:
//!
//! * **compile** — gadgets describe values as [`LinearCombination`]s and
//!   hand them to a [`ConstraintSystem`], which interns each one straight
//!   into a [`ConstraintMatrix`]: flat column / coefficient-pool indices,
//!   every distinct coefficient stored once, a combination repeated by
//!   neighbouring rows stored once. Rows written by the one
//!   allocate-and-multiply entry point also record *which witness they
//!   define*.
//! * **prove** — [`ConstraintMatrix::solve`] takes the circuit's inputs and
//!   makes one in-order pass over the rows, assigning each defined witness
//!   and comparing every row. The matrices are the witness program; there
//!   is no second description of the circuit to keep in step with them.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use wakurln_crypto::field::{Fr, SumOfProducts};

/// A variable in the constraint system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variable {
    /// The constant `1` wire.
    One,
    /// The `i`-th public input.
    Instance(usize),
    /// The `i`-th private witness value.
    Witness(usize),
}

/// A sparse linear combination `Σ coeff · var`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinearCombination {
    terms: Vec<(Variable, Fr)>,
}

impl LinearCombination {
    /// The empty (zero) combination.
    pub fn zero() -> LinearCombination {
        LinearCombination::default()
    }

    /// A combination holding the constant `c`.
    pub fn constant(c: Fr) -> LinearCombination {
        LinearCombination::zero().add_term(Variable::One, c)
    }

    /// A combination holding a single variable with coefficient 1.
    pub fn from_var(v: Variable) -> LinearCombination {
        LinearCombination::zero().add_term(v, Fr::ONE)
    }

    /// Adds `coeff · var` and returns the extended combination.
    pub fn add_term(mut self, var: Variable, coeff: Fr) -> LinearCombination {
        if !coeff.is_zero() {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Adds another combination scaled by `scale`.
    pub fn add_scaled(mut self, other: &LinearCombination, scale: Fr) -> LinearCombination {
        for (v, c) in &other.terms {
            let sc = *c * scale;
            if !sc.is_zero() {
                self.terms.push((*v, sc));
            }
        }
        self
    }

    /// Merges duplicate variables and drops zero coefficients.
    ///
    /// Linear combinations that are repeatedly folded into each other (as
    /// in the Poseidon MDS layer, where un-sboxed lanes mix every round)
    /// would otherwise grow exponentially in term count; reducing keeps the
    /// term count bounded by the number of distinct variables.
    pub fn reduce(mut self) -> LinearCombination {
        self.terms.sort_unstable_by_key(|(v, _)| *v);
        let mut out: Vec<(Variable, Fr)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        LinearCombination { terms: out }
    }

    /// Number of (variable, coefficient) terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> impl Iterator<Item = &(Variable, Fr)> {
        self.terms.iter()
    }
}

impl From<Variable> for LinearCombination {
    fn from(v: Variable) -> LinearCombination {
        LinearCombination::from_var(v)
    }
}

/// Error returned when an assignment does not satisfy the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatisfiedConstraint {
    /// Index of the violated constraint.
    pub index: usize,
    /// Label of the violated constraint.
    pub label: &'static str,
}

impl fmt::Display for UnsatisfiedConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint #{} ({}) is not satisfied",
            self.index, self.label
        )
    }
}

impl std::error::Error for UnsatisfiedConstraint {}

/// How many of the most recent distinct combinations a new one is compared
/// against before it is stored. The x⁵ S-box emits its input combination
/// three times within three rows (`x·x`, then `x⁴·x`) with only the
/// single-variable combinations of `x²` and `x⁴` in between, so a handful
/// of slots finds the repeats without a table of everything stored so far.
const LOOK_BACK: usize = 4;

/// One term of a stored combination: a column of `z` and an index into
/// the coefficient pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    col: u32,
    coeff: u32,
}

/// One constraint `a · b = c`, its sides given as combination numbers.
#[derive(Clone, Copy, Debug)]
struct Row {
    a: u32,
    b: u32,
    c: u32,
    /// Column of the witness this row defines as `⟨a,z⟩·⟨b,z⟩`; 0 (the
    /// constant wire, which nothing defines) on a row that only checks.
    defines: u32,
    label: &'static str,
}

/// Narrows a matrix dimension to its stored width.
fn narrow(n: usize) -> u32 {
    assert!(
        n <= u32::MAX as usize,
        "constraint matrix dimension overflow"
    );
    n as u32
}

/// The compiled constraint matrices `A`, `B`, `C` of a circuit, without an
/// assignment: what a proving key carries, built once and then only read.
///
/// Storage is compact rather than one 32-byte coefficient per term: terms
/// are flat `(column, coefficient-pool index)` pairs, every distinct
/// coefficient is pooled once, and a combination that neighbouring rows
/// share is stored once and referred to by number. Combinations are
/// numbered in the order rows first use them, so one in-order pass over
/// the rows ([`ConstraintMatrix::solve`]) evaluates each exactly once.
#[derive(Clone, Debug, Default)]
pub struct ConstraintMatrix {
    coeffs: Vec<Fr>,
    entries: Vec<Entry>,
    /// Combination `i` is `entries[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<u32>,
    rows: Vec<Row>,
    num_instance: usize,
    num_witness: usize,
    /// Terms emitted before de-duplication (what a dense key would store).
    terms: usize,
}

impl ConstraintMatrix {
    /// Number of constraints (rows).
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Length of the variable vector `z = (1, instance…, witness…)`.
    pub fn num_vars(&self) -> usize {
        1 + self.num_instance + self.num_witness
    }

    /// Stored terms after de-duplication: the terms one
    /// [`ConstraintMatrix::solve`] pass adds up, i.e. the prover's work per
    /// proof as an exact count. A term on the constant wire or with
    /// coefficient one is a plain add; every other term is one unreduced
    /// product, reduced once per [`SumOfProducts::CHUNK`] of them.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Serialized size (bytes) of the matrices in the dense form a Groth16
    /// proving key stores them in (the key is linear in the number of
    /// matrix entries): one (variable tag + index + 32-byte coefficient)
    /// ≈ 40 bytes per emitted term, a shared combination counted every
    /// time a row uses it.
    pub fn matrix_bytes(&self) -> usize {
        self.terms * 40
    }

    /// Column of `v` in `z`.
    fn column(&self, v: Variable) -> usize {
        match v {
            Variable::One => 0,
            Variable::Instance(i) => 1 + i,
            Variable::Witness(i) => 1 + self.num_instance + i,
        }
    }

    /// The entries of combination `id`.
    fn span(&self, id: usize) -> Range<usize> {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        start..self.ends[id] as usize
    }

    /// Evaluates combination `id` under `z` (with `z[0] = 1`) as one
    /// [`SumOfProducts`]: a term on the constant wire adds its coefficient
    /// and a term with coefficient one adds its variable, neither
    /// multiplying.
    fn eval(&self, id: usize, z: &[Fr]) -> Fr {
        let mut acc = SumOfProducts::new();
        for e in &self.entries[self.span(id)] {
            let coeff = &self.coeffs[e.coeff as usize];
            if e.col == 0 {
                acc.add(coeff);
            } else if coeff.is_one() {
                acc.add(&z[e.col as usize]);
            } else {
                acc.add_product(&z[e.col as usize], coeff);
            }
        }
        acc.finish()
    }

    /// Evaluates combination `id` under `z` term by term, one reduced
    /// multiply and add each: the independent evaluator of
    /// [`ConstraintMatrix::check`].
    fn eval_per_term(&self, id: usize, z: &[Fr]) -> Fr {
        let mut acc = Fr::ZERO;
        for e in &self.entries[self.span(id)] {
            acc += z[e.col as usize] * self.coeffs[e.coeff as usize];
        }
        acc
    }

    /// Completes and checks an assignment in **one in-order pass** over the
    /// rows: each distinct combination is evaluated once, a row that
    /// defines a witness assigns `z[v] = ⟨A,z⟩·⟨B,z⟩`, and **every** row is
    /// then compared, `⟨A,z⟩·⟨B,z⟩ = ⟨C,z⟩`.
    ///
    /// On entry `z` must hold the constant 1, the public inputs and every
    /// witness no row defines (the circuit's inputs); the other entries are
    /// overwritten. The matrices are the witness program: a defined witness
    /// is only read by its own row's `C` and by later rows, because the
    /// gadget that allocated it could not name it any earlier.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`UnsatisfiedConstraint`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.num_vars()`.
    pub fn solve(&self, z: &mut [Fr]) -> Result<(), UnsatisfiedConstraint> {
        assert_eq!(z.len(), self.num_vars(), "assignment length mismatch");
        debug_assert_eq!(z.first(), Some(&Fr::ONE), "z[0] is the constant 1");
        let mut vals: Vec<Fr> = Vec::with_capacity(self.ends.len());
        for (index, row) in self.rows.iter().enumerate() {
            let (a, b, c) = (row.a as usize, row.b as usize, row.c as usize);
            while vals.len() <= a.max(b) {
                vals.push(self.eval(vals.len(), z));
            }
            let product = vals[a] * vals[b];
            if row.defines != 0 {
                z[row.defines as usize] = product;
            }
            while vals.len() <= c {
                vals.push(self.eval(vals.len(), z));
            }
            if product != vals[c] {
                return Err(UnsatisfiedConstraint {
                    index,
                    label: row.label,
                });
            }
        }
        Ok(())
    }

    /// Checks a complete assignment row by row, evaluating all three sides
    /// of every row afresh and term by term (deliberately neither the
    /// caching pass nor the sum-of-products evaluation of
    /// [`ConstraintMatrix::solve`], which is tested against this).
    fn check(&self, z: &[Fr]) -> Result<(), UnsatisfiedConstraint> {
        for (index, row) in self.rows.iter().enumerate() {
            let [a, b, c] = [row.a, row.b, row.c].map(|id| self.eval_per_term(id as usize, z));
            if a * b != c {
                return Err(UnsatisfiedConstraint {
                    index,
                    label: row.label,
                });
            }
        }
        Ok(())
    }
}

/// An R1CS instance under construction, together with its assignment.
///
/// Gadgets allocate variables with their values and emit constraints;
/// [`ConstraintSystem::enforce`] interns every combination straight into a
/// [`ConstraintMatrix`], so the dense per-term form is never materialized.
/// The same type serves *compilation* (run the gadgets once on a dummy
/// assignment and keep [`ConstraintSystem::into_matrix`]) and the
/// *reference path* (run them on real values and ask
/// [`ConstraintSystem::is_satisfied`]).
///
/// Public inputs come first in `z`, so they are all allocated before the
/// first witness.
///
/// # Examples
///
/// ```
/// use wakurln_zksnark::r1cs::{ConstraintSystem, LinearCombination};
/// use wakurln_crypto::field::Fr;
///
/// // prove knowledge of x with x * x = 9
/// let mut cs = ConstraintSystem::new();
/// let nine = cs.alloc_instance(Fr::from_u64(9));
/// let x = cs.alloc_witness(Fr::from_u64(3));
/// cs.enforce(
///     "square",
///     &LinearCombination::from_var(x),
///     &LinearCombination::from_var(x),
///     &LinearCombination::from_var(nine),
/// );
/// assert!(cs.is_satisfied().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct ConstraintSystem {
    /// The assignment `(1, instance…, witness…)`.
    z: Vec<Fr>,
    matrix: ConstraintMatrix,
    /// Pool index of every coefficient stored so far.
    coeff_index: HashMap<Fr, u32>,
}

impl Default for ConstraintSystem {
    fn default() -> ConstraintSystem {
        ConstraintSystem::new()
    }
}

impl ConstraintSystem {
    /// Creates an empty system.
    pub fn new() -> ConstraintSystem {
        ConstraintSystem {
            z: vec![Fr::ONE],
            matrix: ConstraintMatrix::default(),
            coeff_index: HashMap::new(),
        }
    }

    /// Allocates a public-input variable carrying `value`.
    ///
    /// # Panics
    ///
    /// Panics if a witness has been allocated already.
    pub fn alloc_instance(&mut self, value: Fr) -> Variable {
        assert_eq!(
            self.matrix.num_witness, 0,
            "public inputs are allocated before any witness"
        );
        self.z.push(value);
        self.matrix.num_instance += 1;
        Variable::Instance(self.matrix.num_instance - 1)
    }

    /// Allocates a private witness variable carrying `value`.
    pub fn alloc_witness(&mut self, value: Fr) -> Variable {
        self.z.push(value);
        self.matrix.num_witness += 1;
        Variable::Witness(self.matrix.num_witness - 1)
    }

    /// Adds the constraint `a · b = c`.
    pub fn enforce(
        &mut self,
        label: &'static str,
        a: &LinearCombination,
        b: &LinearCombination,
        c: &LinearCombination,
    ) {
        self.push_row(label, a, b, c, 0);
    }

    /// Allocates the witness `v` carrying `value = ⟨a,z⟩·⟨b,z⟩` and adds
    /// `a · b = v`, marked as the row that defines `v` — reached only
    /// through [`crate::gadgets::Num::mul`], the one allocate-and-multiply
    /// entry point.
    pub(crate) fn alloc_product(
        &mut self,
        label: &'static str,
        a: &LinearCombination,
        b: &LinearCombination,
        value: Fr,
    ) -> Variable {
        let var = self.alloc_witness(value);
        let defines = narrow(self.matrix.column(var));
        self.push_row(label, a, b, &LinearCombination::from_var(var), defines);
        var
    }

    /// Convenience: enforce that two combinations are equal (`a · 1 = c`).
    pub fn enforce_equal(
        &mut self,
        label: &'static str,
        a: &LinearCombination,
        c: &LinearCombination,
    ) {
        self.enforce(label, a, &LinearCombination::constant(Fr::ONE), c);
    }

    fn push_row(
        &mut self,
        label: &'static str,
        a: &LinearCombination,
        b: &LinearCombination,
        c: &LinearCombination,
        defines: u32,
    ) {
        let row = Row {
            a: self.intern(a),
            b: self.intern(b),
            c: self.intern(c),
            defines,
            label,
        };
        self.matrix.rows.push(row);
    }

    /// Stores `lc` in the matrix and returns its combination number: that
    /// of one of the last [`LOOK_BACK`] combinations if `lc` repeats it.
    fn intern(&mut self, lc: &LinearCombination) -> u32 {
        let m = &mut self.matrix;
        m.terms += lc.len();
        let start = m.entries.len();
        for (var, coeff) in lc.iter() {
            let pooled = narrow(m.coeffs.len());
            let coeff_ix = *self.coeff_index.entry(*coeff).or_insert(pooled);
            if coeff_ix == pooled {
                m.coeffs.push(*coeff);
            }
            let col = narrow(m.column(*var));
            m.entries.push(Entry {
                col,
                coeff: coeff_ix,
            });
        }
        let count = m.ends.len();
        for id in (count.saturating_sub(LOOK_BACK)..count).rev() {
            if m.entries[m.span(id)] == m.entries[start..] {
                m.entries.truncate(start);
                return narrow(id);
            }
        }
        m.ends.push(narrow(m.entries.len()));
        narrow(count)
    }

    /// Evaluates a linear combination under the current assignment.
    pub fn eval(&self, lc: &LinearCombination) -> Fr {
        let mut acc = Fr::ZERO;
        for (v, c) in lc.iter() {
            acc += self.z[self.matrix.column(*v)] * *c;
        }
        acc
    }

    /// Checks every constraint against the assignment.
    ///
    /// # Errors
    ///
    /// Returns the first [`UnsatisfiedConstraint`] encountered.
    pub fn is_satisfied(&self) -> Result<(), UnsatisfiedConstraint> {
        self.matrix.check(&self.z)
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.matrix.num_constraints()
    }

    /// Number of public-input variables (excluding the constant one).
    pub fn num_instance(&self) -> usize {
        self.matrix.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.matrix.num_witness
    }

    /// The public-input assignment.
    pub fn instance_values(&self) -> &[Fr] {
        &self.z[1..=self.matrix.num_instance]
    }

    /// The witness assignment.
    pub fn witness_values(&self) -> &[Fr] {
        &self.z[1 + self.matrix.num_instance..]
    }

    /// Drops the constraints and keeps the assignment
    /// `z = (1, instance…, witness…)`.
    pub fn into_assignment(self) -> Vec<Fr> {
        self.z
    }

    /// Drops the assignment and keeps the compiled matrices.
    pub fn into_matrix(self) -> ConstraintMatrix {
        let mut m = self.matrix;
        m.coeffs.shrink_to_fit();
        m.entries.shrink_to_fit();
        m.ends.shrink_to_fit();
        m.rows.shrink_to_fit();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfied_square() {
        let mut cs = ConstraintSystem::new();
        let nine = cs.alloc_instance(Fr::from_u64(9));
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(
            "sq",
            &LinearCombination::from_var(x),
            &LinearCombination::from_var(x),
            &LinearCombination::from_var(nine),
        );
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.num_constraints(), 1);
        assert_eq!(cs.num_instance(), 1);
        assert_eq!(cs.num_witness(), 1);
    }

    #[test]
    fn unsatisfied_reports_label_and_index() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(4));
        cs.enforce(
            "bad-square",
            &LinearCombination::from_var(x),
            &LinearCombination::from_var(x),
            &LinearCombination::constant(Fr::from_u64(9)),
        );
        let err = cs.is_satisfied().unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.label, "bad-square");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn linear_combination_arithmetic() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let b = cs.alloc_witness(Fr::from_u64(7));
        let lc = LinearCombination::zero()
            .add_term(a, Fr::from_u64(2))
            .add_term(b, Fr::from_u64(3))
            .add_term(Variable::One, Fr::from_u64(100));
        assert_eq!(cs.eval(&lc), Fr::from_u64(2 * 5 + 3 * 7 + 100));
    }

    #[test]
    fn add_scaled_combines() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(4));
        let base = LinearCombination::from_var(a);
        let scaled = LinearCombination::constant(Fr::ONE).add_scaled(&base, Fr::from_u64(10));
        assert_eq!(cs.eval(&scaled), Fr::from_u64(41));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let lc = LinearCombination::zero().add_term(Variable::One, Fr::ZERO);
        assert!(lc.is_empty());
    }

    #[test]
    fn enforce_equal_is_satisfied_only_on_equality() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let b = cs.alloc_witness(Fr::from_u64(5));
        cs.enforce_equal(
            "eq",
            &LinearCombination::from_var(a),
            &LinearCombination::from_var(b),
        );
        assert!(cs.is_satisfied().is_ok());

        let mut cs2 = ConstraintSystem::new();
        let a = cs2.alloc_witness(Fr::from_u64(5));
        let b = cs2.alloc_witness(Fr::from_u64(6));
        cs2.enforce_equal(
            "eq",
            &LinearCombination::from_var(a),
            &LinearCombination::from_var(b),
        );
        assert!(cs2.is_satisfied().is_err());
    }

    #[test]
    fn solve_derives_products_and_checks_every_row() {
        // x·x = x2, x2·x = x3 (both define their product), x3 + x + 5 = out
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_instance(Fr::from_u64(35));
        let x = cs.alloc_witness(Fr::from_u64(3));
        let lx = LinearCombination::from_var(x);
        let x2 = cs.alloc_product("x2", &lx, &lx, Fr::from_u64(9));
        let x3 = cs.alloc_product("x3", &x2.into(), &lx, Fr::from_u64(27));
        let sum = LinearCombination::from_var(x3)
            .add_term(x, Fr::ONE)
            .add_term(Variable::One, Fr::from_u64(5));
        cs.enforce_equal("out", &sum, &out.into());
        assert!(cs.is_satisfied().is_ok());
        let reference = cs.clone().into_assignment();
        let matrix = cs.into_matrix();
        // `x` and `x2` are stored once however many sides repeat them; the
        // modeled key size still counts every emitted term
        assert_eq!(matrix.num_entries(), 8);
        assert_eq!(matrix.matrix_bytes(), 11 * 40);

        let inputs = |out: u64| {
            let mut z = vec![Fr::ZERO; matrix.num_vars()];
            for (slot, v) in z
                .iter_mut()
                .zip([Fr::ONE, Fr::from_u64(out), Fr::from_u64(3)])
            {
                *slot = v;
            }
            z
        };
        let mut z = inputs(35);
        assert_eq!(matrix.solve(&mut z), Ok(()));
        assert_eq!(z, reference);
        assert_eq!(
            matrix.solve(&mut inputs(36)),
            Err(UnsatisfiedConstraint {
                index: 2,
                label: "out"
            })
        );
    }

    #[test]
    fn sum_of_products_eval_matches_per_term_on_every_rln_combination() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let compiled = crate::RlnCircuit::new(4).compile();
        let matrix = compiled.matrix();
        let mut rng = StdRng::seed_from_u64(5);
        let mut z: Vec<Fr> = (0..matrix.num_vars())
            .map(|_| Fr::random(&mut rng))
            .collect();
        z[0] = Fr::ONE;
        // the circuit has every shape the prover meets: constant-wire
        // terms, unit coefficients and the long partial-round lane inputs
        let longest = (0..matrix.ends.len()).map(|id| matrix.span(id).len()).max();
        assert!(longest > Some(2 * SumOfProducts::CHUNK as usize));
        for id in 0..matrix.ends.len() {
            assert_eq!(
                matrix.eval(id, &z),
                matrix.eval_per_term(id, &z),
                "combination {id}"
            );
        }
    }

    #[test]
    fn corruption_on_an_unmultiplied_term_fails_solve_and_check_alike() {
        // sq: w0·w0 = s; mix: Σ cᵢ·wᵢ (12 products) + s + u + 9 = out,
        // where s and u carry coefficient one and 9 sits on the constant
        // wire, so none of the three multiplies in `solve`
        let mut cs = ConstraintSystem::new();
        let values: Vec<Fr> = (0..12u64).map(|i| Fr::from_u64(3 * i + 2)).collect();
        let coeffs: Vec<Fr> = (0..12u64).map(|i| -Fr::from_u64(7 * i + 11)).collect();
        let unit = Fr::from_u64(1_000);
        let square = values[0] * values[0];
        let expected = values
            .iter()
            .zip(&coeffs)
            .fold(square + unit + Fr::from_u64(9), |acc, (v, c)| acc + *v * *c);
        let out = cs.alloc_instance(expected);
        let ws: Vec<Variable> = values.iter().map(|v| cs.alloc_witness(*v)).collect();
        let u = cs.alloc_witness(unit);
        let w0 = LinearCombination::from_var(ws[0]);
        let s = cs.alloc_product("sq", &w0, &w0, square);
        let mix = ws
            .iter()
            .zip(&coeffs)
            .fold(LinearCombination::from_var(s), |lc, (w, c)| {
                lc.add_term(*w, *c)
            })
            .add_term(u, Fr::ONE)
            .add_term(Variable::One, Fr::from_u64(9));
        cs.enforce_equal("mix", &mix, &out.into());
        assert_eq!(cs.is_satisfied(), Ok(()));
        let honest = cs.clone().into_assignment();
        let matrix = cs.into_matrix();

        let mut z = honest.clone();
        assert_eq!(matrix.solve(&mut z), Ok(()));
        assert_eq!(z, honest);

        let mix_fails = Err(UnsatisfiedConstraint {
            index: 1,
            label: "mix",
        });
        // the unit-coefficient input and the instance the constant-wire
        // term is compared against, each off by one
        for corrupt in [matrix.column(u), matrix.column(out)] {
            let mut z = honest.clone();
            z[corrupt] += Fr::ONE;
            assert_eq!(matrix.solve(&mut z), mix_fails);
            // the per-term oracle reads the assignment solve left behind
            assert_eq!(matrix.check(&z), mix_fails);
        }
    }

    #[test]
    fn matrix_bytes_scales_with_terms() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::ONE);
        cs.enforce(
            "t",
            &LinearCombination::from_var(x),
            &LinearCombination::from_var(x),
            &LinearCombination::from_var(x),
        );
        assert_eq!(cs.into_matrix().matrix_bytes(), 3 * 40);
    }
}
