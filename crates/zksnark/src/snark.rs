//! `SimSnark` — a simulated zkSNARK backend with Groth16-shaped costs.
//!
//! **What is real:** the RLN circuit is compiled to its R1CS matrices once
//! per tree depth ([`RlnCircuit::compile`]) and a proving key holds them,
//! as a Groth16 key does. Every proof then derives the *full* witness —
//! each Poseidon round of the membership path, the share and the nullifier
//! — from those matrices and checks *every* constraint of the circuit,
//! refusing with the violated constraint's label: work linear in circuit
//! size per proof, like the MSMs of a real Groth16 prover, with nothing
//! cached between proofs but the circuit itself. Proofs are constant-size;
//! verification is constant-time and rejects any tampering of proof bytes
//! or public inputs; proofs reveal nothing about the witness (they are a
//! PRF output over fresh prover randomness plus a MAC over public inputs).
//!
//! **What is simulated:** soundness rests on a designated-verifier MAC
//! keyed by a secret shared between the proving and verifying keys (the
//! analogue of a structured reference string), not on pairings. A party
//! holding the proving key could forge. This preserves every property the
//! protocol and the paper's evaluation exercise — see `docs/ARCHITECTURE.md`
//! for the substitution rationale. Host time per proof is not the paper's
//! figure either: device cost is the `CostModel`'s, which this crate does
//! not feed.
//!
//! **Compile / prove split:** [`SimSnark::setup`] compiles (or, after the
//! first call at a depth, looks up) the matrices; [`SimSnark::prove`] runs
//! no gadget — it places the public inputs, `sk`, index bits and siblings
//! and makes one in-order solve-and-check pass over the rows
//! ([`crate::r1cs::ConstraintMatrix::solve`]). The gadgets are the
//! compiler's front-end and the reference the tests hold the prover to.
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

use crate::circuit::{CompiledCircuit, RlnCircuit, RlnPublicInputs, RlnWitness};
use rand::RngCore;
use std::fmt;
use std::sync::Arc;
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
    /// The witness leaf index has bits above the circuit depth, which the
    /// circuit (one index bit per tree level) cannot represent.
    IndexOutOfRange {
        /// Leaf index supplied in the witness.
        index: u64,
        /// Depth the proving key was set up for.
        depth: usize,
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
            ProveError::IndexOutOfRange { index, depth } => {
                write!(f, "leaf index {index} is outside a tree of depth {depth}")
            }
        }
    }
}

impl std::error::Error for ProveError {}

/// The proving key: the compiled circuit plus the SRS secret.
///
/// A thin handle — every key for one depth shares the process-wide
/// compiled matrices, so cloning it (one per simulated peer) copies a
/// pointer and the secret. Its reported size models a Groth16 proving key
/// (linear in the number of constraint-matrix entries) — the paper's §IV
/// quotes ≈3.89 MB for the `kilic/rln` prover key; `examples/storage_report.rs`
/// prints ours (`PERF.md` legacy map: E3).
#[derive(Clone)]
pub struct ProvingKey {
    compiled: Arc<CompiledCircuit>,
    srs_secret: [u8; 32],
}

impl ProvingKey {
    /// The circuit this key proves.
    pub fn circuit(&self) -> RlnCircuit {
        self.compiled.circuit()
    }

    /// Modeled serialized size in bytes (constraint matrices plus the
    /// per-variable group elements a Groth16 key carries).
    pub fn size_bytes(&self) -> usize {
        self.compiled.matrix().matrix_bytes()
    }
}

impl fmt::Debug for ProvingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvingKey")
            .field("depth", &self.circuit().depth())
            .field("constraints", &self.compiled.matrix().num_constraints())
            .finish_non_exhaustive()
    }
}

/// The verifying key: constant-size, independent of the circuit depth.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Simulated `π_A` (32 bytes) and `π_C` (32 bytes) around `π_B`
    /// (64 bytes) — jointly random-looking bytes derived from fresh prover
    /// randomness, carrying no witness information. Stored as four 32-byte
    /// words.
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
        (
            ProvingKey {
                compiled: circuit.compile(),
                srs_secret,
            },
            VerifyingKey {
                circuit,
                srs_secret,
            },
        )
    }

    /// Produces a proof for `public` under `witness`.
    ///
    /// Derives the full witness and checks every constraint
    /// ([`CompiledCircuit::solve`]) — the honest-prover work, linear in the
    /// circuit size, that the benchmark reports as `zksnark.prove_ms_p50`
    /// (`PERF.md` legacy map: E1).
    ///
    /// # Errors
    ///
    /// * [`ProveError::DepthMismatch`] — witness path length is wrong.
    /// * [`ProveError::IndexOutOfRange`] — the leaf index does not fit the
    ///   tree (the circuit would silently prove for its low bits).
    /// * [`ProveError::Unsatisfied`] — the witness violates the circuit
    ///   (e.g. the key is not in the tree, or the share was tampered with).
    pub fn prove<R: RngCore + ?Sized>(
        pk: &ProvingKey,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
        rng: &mut R,
    ) -> Result<Proof, ProveError> {
        let depth = pk.circuit().depth();
        if witness.path_siblings.len() != depth {
            return Err(ProveError::DepthMismatch {
                expected: depth,
                got: witness.path_siblings.len(),
            });
        }
        if witness.index_above(depth) != 0 {
            return Err(ProveError::IndexOutOfRange {
                index: witness.leaf_index,
                depth,
            });
        }
        // check first, draw randomness after: a failing prove consumes no
        // RNG state, so seed-pinned simulations that mix failed proves
        // with later RNG use keep reproducing
        pk.compiled
            .solve(public, witness)
            .map_err(|e| ProveError::Unsatisfied(e.label))?;
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Ok(Self::proof_from_seed(pk, public, seed))
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
        let binding = Self::binding(&pk.srs_secret, pk.circuit().depth(), public, &elements);
        Proof { elements, binding }
    }

    /// Verifies a proof in constant time (independent of circuit depth) —
    /// the benchmark's `zksnark.verify_us` (`PERF.md` legacy map: E2).
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
        for input in public.to_array() {
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
    use wakurln_crypto::sha256::to_hex;

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
    fn index_beyond_depth_detected() {
        // the circuit reads one index bit per level: without the check,
        // index + 2^depth would prove as if it were index
        let mut f = fixture(10);
        let (public, _) =
            RlnCircuit::derive_public(f.sk, f.tree.root(), Fr::from_u64(1), Fr::from_u64(2));
        let mut witness = RlnWitness::new(f.sk, &f.tree.proof(f.index).unwrap());
        witness.leaf_index += 1 << 10;
        let err = SimSnark::prove(&f.pk, &public, &witness, &mut f.rng).unwrap_err();
        assert_eq!(
            err,
            ProveError::IndexOutOfRange {
                index: f.index + 1024,
                depth: 10
            }
        );
        assert!(!err.to_string().is_empty());
        witness.leaf_index = f.index;
        assert!(SimSnark::prove(&f.pk, &public, &witness, &mut f.rng).is_ok());
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
        // nor one refused before the constraint pass: a member's own
        // statement with the index shifted out of the tree
        let (public, _) =
            RlnCircuit::derive_public(f.sk, f.tree.root(), Fr::from_u64(1), Fr::from_u64(2));
        let mut shifted = RlnWitness::new(f.sk, &f.tree.proof(f.index).unwrap());
        shifted.leaf_index += 1 << 10;
        assert!(matches!(
            SimSnark::prove(&f.pk, &public, &shifted, &mut rng),
            Err(ProveError::IndexOutOfRange { .. })
        ));
        assert_eq!(rng.next_u64(), pristine.next_u64());
    }

    /// Proof bytes (`elements ‖ binding`) of `fixture(depth)` +
    /// `honest_proof(1, b"hello")`, printed by the commit *before* the
    /// compile/prove split. A speed-only change to the prover must not move
    /// them; a declared change to the proof format updates them in the
    /// same PR.
    const PINNED_PROOFS: [(usize, &str); 2] = [
        (
            10,
            "4c317ef38c90fb8ee5b18db3db1d07013b20aeafa112a25e56a5783fd5020c40\
             3cd8dc34bb36c5fd1fe3568258c456a9aa7126362a25faa60ab1dcab75a08ae4\
             a48a1199ee0491e760bbf24749ccde773d92cb830e387bf08333d522246f81ab\
             67e31f9a21de3b430cf6519844f512069a9561984a42a715a43e1a9fef5d2e93\
             0cf92114f21a8774644272f3d3e0db1a5b70eb7fc31083ae60576388411b8fa7",
        ),
        (
            20,
            "4c317ef38c90fb8ee5b18db3db1d07013b20aeafa112a25e56a5783fd5020c40\
             3cd8dc34bb36c5fd1fe3568258c456a9aa7126362a25faa60ab1dcab75a08ae4\
             a48a1199ee0491e760bbf24749ccde773d92cb830e387bf08333d522246f81ab\
             67e31f9a21de3b430cf6519844f512069a9561984a42a715a43e1a9fef5d2e93\
             15372eb77d3bd7a0a07a731b707e263dbead9bcd9ba6f8a1d0ecd4fa722d5948",
        ),
    ];

    #[test]
    fn proof_bytes_are_pinned() {
        for (depth, expected) in PINNED_PROOFS {
            let mut f = fixture(depth);
            let (_, proof) = honest_proof(&mut f, 1, b"hello");
            let mut bytes = proof.elements.concat();
            bytes.extend_from_slice(&proof.binding);
            assert_eq!(to_hex(&bytes), expected, "depth {depth}");
        }
    }

    #[test]
    fn work_per_proof_and_key_size_are_pinned() {
        // the prover's work as an exact count, not a timing: one
        // multiply-add per stored matrix entry
        let pk10 = fixture(10).pk;
        let pk20 = fixture(20).pk;
        assert_eq!(pk10.compiled.matrix().num_entries(), 30_670);
        assert!(pk20.compiled.matrix().num_entries() <= 60_000);
        // the modeled key size counts the dense form and predates the
        // compact matrices
        assert_eq!(pk10.size_bytes(), 3_547_640);
        assert_eq!(pk20.size_bytes(), 6_322_040);
    }

    #[test]
    fn setups_at_one_depth_share_the_compiled_circuit() {
        let mut rng = StdRng::seed_from_u64(5);
        let (pk_a, vk_a) = SimSnark::setup(RlnCircuit::new(10), &mut rng);
        let (pk_b, vk_b) = SimSnark::setup(RlnCircuit::new(10), &mut rng);
        assert!(Arc::ptr_eq(&pk_a.compiled, &pk_b.compiled));
        assert!(Arc::ptr_eq(&pk_a.compiled, &pk_a.clone().compiled));
        // …but not the SRS secret (see `wrong_verifying_key_rejects`)
        assert_ne!(vk_a.srs_secret, vk_b.srs_secret);
        assert_ne!(pk_a.srs_secret, pk_b.srs_secret);
        fn cheap_to_share<T: Clone + Send + Sync>(_: &T) {}
        cheap_to_share(&pk_a);
        // one line, and no key material
        let debug = format!("{pk_a:?}");
        assert!(!debug.contains('\n') && debug.contains("depth: 10"));
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
