//! `SimSnark` — a simulated zkSNARK backend with Groth16-shaped costs.
//!
//! **What is real:** proving synthesizes the full RLN witness and checks
//! every R1CS constraint (work linear in circuit size, exactly like the
//! MSMs of a real Groth16 prover); proofs are constant-size; verification
//! is constant-time and rejects any tampering of proof bytes or public
//! inputs; proofs reveal nothing about the witness (they are a PRF output
//! over fresh prover randomness plus a MAC over public inputs).
//!
//! **What is simulated:** soundness rests on a designated-verifier MAC
//! keyed by a secret shared between the proving and verifying keys (the
//! analogue of a structured reference string), not on pairings. A party
//! holding the proving key could forge. This preserves every property the
//! protocol and the paper's evaluation exercise — see DESIGN.md §2 for the
//! substitution rationale.
//!
//! # Examples
//!
//! ```
//! use wakurln_zksnark::{circuit::{RlnCircuit, RlnWitness}, snark::SimSnark};
//! use wakurln_crypto::{field::Fr, merkle::FullMerkleTree, poseidon};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let depth = 10;
//! let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
//!
//! let sk = Fr::from_u64(42);
//! let mut tree = FullMerkleTree::new(depth)?;
//! let index = tree.append(poseidon::hash1(sk))?;
//!
//! let epoch = Fr::from_u64(1000);
//! let msg_hash = poseidon::hash_bytes_to_field(b"hi");
//! let (public, _) = RlnCircuit::derive_public(sk, tree.root(), epoch, msg_hash);
//! let witness = RlnWitness::new(sk, &tree.proof(index)?);
//!
//! let proof = SimSnark::prove(&pk, &public, &witness, &mut rng).unwrap();
//! assert!(SimSnark::verify(&vk, &public, &proof));
//! # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
//! ```

use crate::circuit::{RlnCircuit, RlnPublicInputs, RlnWitness};
use crate::r1cs::ConstraintSystem;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use wakurln_crypto::sha256::Sha256;

/// Size in bytes of a serialized proof: three simulated group elements
/// (compressed G1 + G2 + G1, as in Groth16) — 32 + 64 + 32.
pub const PROOF_BYTES: usize = 128;

/// Size in bytes of the MAC binding the proof to its public inputs.
pub const BINDING_BYTES: usize = 32;

/// Errors returned by [`SimSnark::prove`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveError {
    /// The witness does not satisfy the circuit; carries the violated
    /// constraint's label.
    Unsatisfied(&'static str),
    /// The witness path length does not match the circuit depth.
    DepthMismatch {
        /// Depth the proving key was set up for.
        expected: usize,
        /// Path length supplied in the witness.
        got: usize,
    },
}

impl fmt::Display for ProveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProveError::Unsatisfied(label) => {
                write!(f, "witness does not satisfy constraint '{label}'")
            }
            ProveError::DepthMismatch { expected, got } => {
                write!(
                    f,
                    "witness path depth {got} does not match circuit depth {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProveError {}

/// The proving key: the circuit plus the SRS secret.
///
/// Its reported size models a Groth16 proving key (linear in the number of
/// constraint-matrix entries) — the paper's §IV quotes ≈3.89 MB for the
/// `kilic/rln` prover key, reproduced by experiment E3.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProvingKey {
    circuit: RlnCircuit,
    srs_secret: [u8; 32],
    matrix_bytes: usize,
}

impl ProvingKey {
    /// The circuit this key proves.
    pub fn circuit(&self) -> RlnCircuit {
        self.circuit
    }

    /// Modeled serialized size in bytes (constraint matrices plus the
    /// per-variable group elements a Groth16 key carries).
    pub fn size_bytes(&self) -> usize {
        self.matrix_bytes
    }
}

/// The verifying key: constant-size, independent of the circuit depth.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VerifyingKey {
    circuit: RlnCircuit,
    srs_secret: [u8; 32],
}

impl VerifyingKey {
    /// The circuit this key verifies.
    pub fn circuit(&self) -> RlnCircuit {
        self.circuit
    }

    /// Serialized size in bytes (a handful of group elements in Groth16;
    /// here the 32-byte SRS secret plus the 8-byte depth tag).
    pub fn size_bytes(&self) -> usize {
        32 + 8
    }
}

/// A constant-size simulated proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proof {
    /// Simulated `π_A` (32 bytes) and `π_C` (32 bytes) around `π_B`
    /// (64 bytes) — jointly random-looking bytes derived from fresh prover
    /// randomness, carrying no witness information. Stored as four 32-byte
    /// words for serde compatibility.
    pub elements: [[u8; 32]; 4],
    /// MAC binding `elements` and the public inputs under the SRS secret.
    pub binding: [u8; BINDING_BYTES],
}

impl Proof {
    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        PROOF_BYTES + BINDING_BYTES
    }
}

/// The simulated SNARK scheme (see module docs for the fidelity contract).
#[derive(Clone, Copy, Debug)]
pub struct SimSnark;

impl SimSnark {
    /// Runs the (simulated) trusted setup for `circuit`.
    pub fn setup<R: RngCore + ?Sized>(
        circuit: RlnCircuit,
        rng: &mut R,
    ) -> (ProvingKey, VerifyingKey) {
        let mut srs_secret = [0u8; 32];
        rng.fill_bytes(&mut srs_secret);
        // Materialize the constraint matrices once to size the proving key.
        let mut cs = ConstraintSystem::new();
        let public = RlnPublicInputs {
            root: Default::default(),
            external_nullifier: Default::default(),
            x: Default::default(),
            y: Default::default(),
            internal_nullifier: Default::default(),
        };
        let witness = RlnWitness {
            sk: Default::default(),
            leaf_index: 0,
            path_siblings: vec![Default::default(); circuit.depth()],
        };
        circuit.synthesize(&mut cs, &public, &witness);
        let matrix_bytes = cs.matrix_bytes();
        (
            ProvingKey {
                circuit,
                srs_secret,
                matrix_bytes,
            },
            VerifyingKey {
                circuit,
                srs_secret,
            },
        )
    }

    /// Produces a proof for `public` under `witness`.
    ///
    /// Performs full witness synthesis and constraint checking — the
    /// honest-prover work that experiment E1 measures.
    ///
    /// # Errors
    ///
    /// * [`ProveError::DepthMismatch`] — witness path length is wrong.
    /// * [`ProveError::Unsatisfied`] — the witness violates the circuit
    ///   (e.g. the key is not in the tree, or the share was tampered with).
    pub fn prove<R: RngCore + ?Sized>(
        pk: &ProvingKey,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
        rng: &mut R,
    ) -> Result<Proof, ProveError> {
        // check first, draw randomness after: a failing prove consumes no
        // RNG state, so seed-pinned simulations that mix failed proves
        // with later RNG use keep reproducing
        Self::synthesize_and_check(pk, public, witness)?;
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Ok(Self::proof_from_seed(pk, public, seed))
    }

    /// The honest-prover work: full witness synthesis plus (parallel)
    /// constraint checking.
    fn synthesize_and_check(
        pk: &ProvingKey,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
    ) -> Result<(), ProveError> {
        if witness.path_siblings.len() != pk.circuit.depth() {
            return Err(ProveError::DepthMismatch {
                expected: pk.circuit.depth(),
                got: witness.path_siblings.len(),
            });
        }
        let mut cs = ConstraintSystem::new();
        pk.circuit.synthesize(&mut cs, public, witness);
        cs.is_satisfied_par()
            .map_err(|e| ProveError::Unsatisfied(e.label))
    }

    /// Builds the constant-size proof from explicit prover randomness.
    fn proof_from_seed(pk: &ProvingKey, public: &RlnPublicInputs, seed: [u8; 32]) -> Proof {
        // Zero-knowledge: the proof elements are a PRF of fresh randomness
        // only — independent of the witness.
        let mut elements = [[0u8; 32]; 4];
        for (i, chunk) in elements.iter_mut().enumerate() {
            let mut h = Sha256::new();
            h.update(b"simsnark-element");
            h.update(&seed);
            h.update(&[i as u8]);
            *chunk = h.finalize();
        }
        let binding = Self::binding(&pk.srs_secret, pk.circuit.depth(), public, &elements);
        Proof { elements, binding }
    }

    /// Verifies a proof in constant time (independent of circuit depth) —
    /// the behaviour experiment E2 measures.
    pub fn verify(vk: &VerifyingKey, public: &RlnPublicInputs, proof: &Proof) -> bool {
        let expected = Self::binding(&vk.srs_secret, vk.circuit.depth(), public, &proof.elements);
        // constant-time-ish comparison (not a side-channel concern in a
        // simulation, but cheap to do right)
        expected
            .iter()
            .zip(proof.binding.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }

    fn binding(
        secret: &[u8; 32],
        depth: usize,
        public: &RlnPublicInputs,
        elements: &[[u8; 32]; 4],
    ) -> [u8; BINDING_BYTES] {
        let mut h = Sha256::new();
        h.update(b"simsnark-binding-v1");
        h.update(secret);
        h.update(&(depth as u64).to_le_bytes());
        for input in public.to_vec() {
            h.update(&input.to_bytes_le());
        }
        for word in elements {
            h.update(word);
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_crypto::field::Fr;
    use wakurln_crypto::merkle::FullMerkleTree;
    use wakurln_crypto::poseidon;

    struct Fixture {
        pk: ProvingKey,
        vk: VerifyingKey,
        tree: FullMerkleTree,
        sk: Fr,
        index: u64,
        rng: StdRng,
    }

    fn fixture(depth: usize) -> Fixture {
        let mut rng = StdRng::seed_from_u64(7);
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let sk = Fr::from_u64(987);
        let mut tree = FullMerkleTree::new(depth).unwrap();
        tree.append(Fr::from_u64(1)).unwrap();
        let index = tree.append(poseidon::hash1(sk)).unwrap();
        Fixture {
            pk,
            vk,
            tree,
            sk,
            index,
            rng,
        }
    }

    fn honest_proof(f: &mut Fixture, epoch: u64, msg: &[u8]) -> (RlnPublicInputs, Proof) {
        let (public, _) = RlnCircuit::derive_public(
            f.sk,
            f.tree.root(),
            Fr::from_u64(epoch),
            poseidon::hash_bytes_to_field(msg),
        );
        let witness = RlnWitness::new(f.sk, &f.tree.proof(f.index).unwrap());
        let proof = SimSnark::prove(&f.pk, &public, &witness, &mut f.rng).unwrap();
        (public, proof)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let mut f = fixture(10);
        let (public, proof) = honest_proof(&mut f, 1, b"hello");
        assert!(SimSnark::verify(&f.vk, &public, &proof));
    }

    #[test]
    fn proof_is_constant_size() {
        let mut f10 = fixture(10);
        let mut f20 = fixture(16);
        let (_, p10) = honest_proof(&mut f10, 1, b"a");
        let (_, p20) = honest_proof(&mut f20, 1, b"a");
        assert_eq!(p10.size_bytes(), p20.size_bytes());
        assert_eq!(p10.size_bytes(), PROOF_BYTES + BINDING_BYTES);
    }

    #[test]
    fn tampered_public_inputs_rejected() {
        let mut f = fixture(10);
        let (mut public, proof) = honest_proof(&mut f, 1, b"hello");
        public.y += Fr::ONE;
        assert!(!SimSnark::verify(&f.vk, &public, &proof));
    }

    #[test]
    fn tampered_proof_bytes_rejected() {
        let mut f = fixture(10);
        let (public, mut proof) = honest_proof(&mut f, 1, b"hello");
        proof.elements[0][0] ^= 1;
        assert!(!SimSnark::verify(&f.vk, &public, &proof));
        let (public, mut proof) = honest_proof(&mut f, 1, b"hello");
        proof.binding[31] ^= 0x80;
        assert!(!SimSnark::verify(&f.vk, &public, &proof));
    }

    #[test]
    fn proof_bound_to_root() {
        // proving against a stale root then verifying against the current
        // root fails — group synchronization matters (§III)
        let mut f = fixture(10);
        let (public, proof) = honest_proof(&mut f, 1, b"hello");
        f.tree.append(Fr::from_u64(5)).unwrap();
        let mut fresh = public;
        fresh.root = f.tree.root();
        assert!(!SimSnark::verify(&f.vk, &fresh, &proof));
        // and the old proof still verifies against the old root
        assert!(SimSnark::verify(&f.vk, &public, &proof));
    }

    #[test]
    fn non_member_cannot_prove() {
        let mut f = fixture(10);
        let outsider = Fr::from_u64(666);
        let (public, _) =
            RlnCircuit::derive_public(outsider, f.tree.root(), Fr::from_u64(1), Fr::from_u64(2));
        // best effort: reuse some member's path
        let witness = RlnWitness::new(outsider, &f.tree.proof(f.index).unwrap());
        let err = SimSnark::prove(&f.pk, &public, &witness, &mut f.rng).unwrap_err();
        assert_eq!(err, ProveError::Unsatisfied("rln/root"));
    }

    #[test]
    fn depth_mismatch_detected() {
        let mut f = fixture(10);
        let (public, _) =
            RlnCircuit::derive_public(f.sk, f.tree.root(), Fr::from_u64(1), Fr::from_u64(2));
        let mut witness = RlnWitness::new(f.sk, &f.tree.proof(f.index).unwrap());
        witness.path_siblings.pop();
        let err = SimSnark::prove(&f.pk, &public, &witness, &mut f.rng).unwrap_err();
        assert!(matches!(
            err,
            ProveError::DepthMismatch {
                expected: 10,
                got: 9
            }
        ));
    }

    #[test]
    fn proofs_are_randomized() {
        // two proofs of the same statement differ (zero-knowledge style
        // rerandomization), yet both verify
        let mut f = fixture(10);
        let (public, p1) = honest_proof(&mut f, 1, b"hello");
        let (_, p2) = honest_proof(&mut f, 1, b"hello");
        assert_ne!(p1.elements, p2.elements);
        assert!(SimSnark::verify(&f.vk, &public, &p1));
        assert!(SimSnark::verify(&f.vk, &public, &p2));
    }

    #[test]
    fn same_rng_stream_gives_identical_proofs() {
        // the other half of `proofs_are_randomized`: a proof is a function
        // of the statement and the RNG stream only, so seed-pinned
        // simulations reproduce proof bytes
        let mut a = fixture(10);
        let mut b = fixture(10);
        let (_, proof_a) = honest_proof(&mut a, 1, b"hello");
        let (_, proof_b) = honest_proof(&mut b, 1, b"hello");
        assert_eq!(proof_a, proof_b);
    }

    #[test]
    fn wrong_verifying_key_rejects() {
        let mut f = fixture(10);
        let (public, proof) = honest_proof(&mut f, 1, b"hello");
        let mut rng = StdRng::seed_from_u64(999);
        let (_, other_vk) = SimSnark::setup(RlnCircuit::new(10), &mut rng);
        assert!(!SimSnark::verify(&other_vk, &public, &proof));
    }

    #[test]
    fn failed_prove_consumes_no_rng_state() {
        // seed-pinned simulations rely on this: a rejected prove must not
        // advance the shared RNG stream
        let f = fixture(10);
        let outsider = Fr::from_u64(666);
        let (bad_public, _) =
            RlnCircuit::derive_public(outsider, f.tree.root(), Fr::from_u64(1), Fr::from_u64(2));
        let bad_witness = RlnWitness::new(outsider, &f.tree.proof(f.index).unwrap());
        let mut rng = StdRng::seed_from_u64(123);
        let mut pristine = StdRng::seed_from_u64(123);
        assert!(SimSnark::prove(&f.pk, &bad_public, &bad_witness, &mut rng).is_err());
        assert_eq!(rng.next_u64(), pristine.next_u64());
    }

    #[test]
    fn prover_key_size_is_megabytes_at_depth_20() {
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(20), &mut rng);
        let mb = pk.size_bytes() as f64 / (1024.0 * 1024.0);
        // paper: ≈3.89 MB prover key; ours lands in the same order
        assert!(mb > 0.5 && mb < 16.0, "got {mb} MB");
        assert!(vk.size_bytes() < 128);
    }
}
