//! Integration: group synchronization (§III) — light trees vs the full
//! mirror under churn, stale witnesses, event ordering, and the anonymity
//! footgun the paper warns about (proving against an old root).

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::crypto::field::Fr;
use waku_rln::crypto::merkle::{
    zero_hashes, FullMerkleTree, MerkleError, SyncedPathTree, EMPTY_LEAF,
};
use waku_rln::rln::{create_signal, verify_signal, Identity, RlnGroup, SignalValidity};
use waku_rln::zksnark::{RlnCircuit, SimSnark};

#[test]
fn light_and_full_views_agree_under_heavy_churn() {
    let depth = 8;
    let mut rng = StdRng::seed_from_u64(77);
    let mut full = FullMerkleTree::new(depth).unwrap();
    let mut light = SyncedPathTree::new(depth).unwrap();

    let mut alive: Vec<(u64, Fr)> = Vec::new();
    for round in 0..60u64 {
        if round % 3 == 2 && !alive.is_empty() {
            // slash a pseudo-random member
            let victim = (round as usize * 7) % alive.len();
            let (idx, leaf) = alive.remove(victim);
            let witness = full.proof(idx).unwrap();
            full.remove(idx).unwrap();
            light
                .apply_update_with_witness(idx, leaf, EMPTY_LEAF, &witness)
                .unwrap();
        } else if full.next_index() < full.capacity() {
            let leaf = Fr::random(&mut rng);
            let idx = full.append(leaf).unwrap();
            light.apply_append(leaf).unwrap();
            alive.push((idx, leaf));
        }
        assert_eq!(light.root(), full.root(), "divergence at round {round}");
    }
}

#[test]
fn out_of_order_slash_event_is_refused() {
    let depth = 6;
    let mut full = FullMerkleTree::new(depth).unwrap();
    let mut light = SyncedPathTree::new(depth).unwrap();
    for v in 1..=4u64 {
        full.append(Fr::from_u64(v)).unwrap();
        light.apply_append(Fr::from_u64(v)).unwrap();
    }
    // craft a witness, then let the tree move on before applying it
    let stale_witness = full.proof(1).unwrap();
    full.append(Fr::from_u64(99)).unwrap();
    light.apply_append(Fr::from_u64(99)).unwrap();
    full.remove(1).unwrap();
    // note: stale_witness proves leaf 1 under the *old* root
    assert_eq!(
        light.apply_update_with_witness(1, Fr::from_u64(2), EMPTY_LEAF, &stale_witness),
        Err(MerkleError::StaleWitness)
    );
}

#[test]
fn proof_against_stale_root_rejected_after_sync() {
    // the paper's anonymity warning: members must stay in sync, and
    // routers only accept proofs under roots they know
    let depth = 10;
    let mut rng = StdRng::seed_from_u64(3);
    let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut group = RlnGroup::new(depth).unwrap();
    let id = Identity::random(&mut rng);
    let index = group.register(id.commitment()).unwrap();

    let stale_root = group.root();
    let stale_proof = group.membership_proof(index).unwrap();

    // group evolves past the router's root window
    for _ in 0..3 {
        group
            .register(Identity::random(&mut rng).commitment())
            .unwrap();
    }

    let signal = create_signal(
        &id,
        &stale_proof,
        stale_root,
        &pk,
        Fr::from_u64(5),
        b"too old",
        &mut rng,
    )
    .unwrap();
    // statelessly: the proof is fine against the stale root…
    assert_eq!(
        verify_signal(&vk, stale_root, &signal),
        SignalValidity::Valid
    );
    // …but not against the current root
    assert_eq!(
        verify_signal(&vk, group.root(), &signal),
        SignalValidity::InvalidProof
    );
}

#[test]
fn empty_group_roots_match_across_representations() {
    for depth in [4usize, 10, 20] {
        let full = FullMerkleTree::new(depth).unwrap();
        let light = SyncedPathTree::new(depth).unwrap();
        let group = RlnGroup::new(depth).unwrap();
        assert_eq!(full.root(), zero_hashes()[depth]);
        assert_eq!(light.root(), full.root());
        assert_eq!(group.root(), full.root());
    }
}

#[test]
fn slashed_member_cannot_rejoin_with_same_commitment_history() {
    let depth = 8;
    let mut group = RlnGroup::new(depth).unwrap();
    let id = Identity::from_secret(Fr::from_u64(1234));
    group.register(id.commitment()).unwrap();
    group.remove_by_secret(id.secret()).unwrap();
    // the contract-level registry would accept a re-registration with a
    // *new stake*; the local group view does too, at a fresh index —
    // economic deterrence, not a permanent ban (matches the paper: Sybil
    // resistance comes from the stake, not identity blacklists)
    let new_index = group.register(id.commitment()).unwrap();
    assert_eq!(new_index, 1);
    assert_eq!(group.member_count(), 1);
}

#[test]
fn light_tree_own_proof_proves_at_the_papers_depth_32() {
    // the paper's 2^32 group size: the O(depth) light tree makes the own
    // path cheap to hold, and the signal built from it verifies
    let depth = 32;
    let mut rng = StdRng::seed_from_u64(2);
    let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut light = SyncedPathTree::new(depth).unwrap();
    for i in 0..100u64 {
        light.apply_append(Fr::from_u64(10_000 + i)).unwrap();
    }
    let id = Identity::random(&mut rng);
    light.register_own(id.commitment()).unwrap();

    let signal = create_signal(
        &id,
        &light.own_proof().unwrap(),
        light.root(),
        &pk,
        Fr::from_u64(1),
        b"deep",
        &mut rng,
    )
    .unwrap();
    assert_eq!(
        verify_signal(&vk, light.root(), &signal),
        SignalValidity::Valid
    );
}
