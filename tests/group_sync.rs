//! Integration: group synchronization (§III) — the light member view vs
//! the full mirror under churn, proving from an O(depth) path at the
//! paper's depth, and the anonymity footgun the paper warns about
//! (proving against an old root).

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::crypto::field::Fr;
use waku_rln::crypto::merkle::{zero_hashes, FullMerkleTree, MemberView, EMPTY_LEAF};
use waku_rln::rln::{create_signal, verify_signal, Identity, SharedGroup, SignalValidity};
use waku_rln::zksnark::{RlnCircuit, SimSnark};

#[test]
fn light_and_full_views_agree_under_heavy_churn() {
    let depth = 8;
    let mut rng = StdRng::seed_from_u64(77);
    let mut full = FullMerkleTree::new(depth).unwrap();
    let mut view = MemberView::new(depth).unwrap();

    // every other member still in the group (the view's own leaf is
    // never slashed, so its path must stay current to the end)
    let mut alive: Vec<u64> = Vec::new();
    for round in 0..60u64 {
        if round % 3 == 2 && !alive.is_empty() {
            // slash a pseudo-random member
            let victim = (round as usize * 7) % alive.len();
            let idx = alive.remove(victim);
            let delta = full.set_with_delta(idx, EMPTY_LEAF).unwrap();
            view.apply_update(&delta).unwrap();
        } else if full.next_index() < full.capacity() {
            // a registration burst of 1–4 members; the view registers
            // as the third member of round 7's burst
            let burst: Vec<Fr> = (0..=round % 4).map(|_| Fr::random(&mut rng)).collect();
            let delta = full.append_batch_with_delta(&burst).unwrap();
            let own_offset = (round == 7).then_some(2);
            view.apply_append(&delta, own_offset).unwrap();
            alive.extend(
                (0..delta.count)
                    .filter(|o| Some(*o) != own_offset)
                    .map(|o| delta.start + o),
            );
        }
        assert_eq!(view.root(), full.root(), "divergence at round {round}");
        if let Some(own_index) = view.own_index() {
            assert_eq!(
                view.own_proof().unwrap(),
                full.proof(own_index).unwrap(),
                "own path diverged at round {round}"
            );
        }
    }
    assert!(view.own_index().is_some(), "the view registered");
}

#[test]
fn proof_against_stale_root_rejected_after_sync() {
    // the paper's anonymity warning: members must stay in sync, and
    // routers only accept proofs under roots they know
    let depth = 10;
    let mut rng = StdRng::seed_from_u64(3);
    let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut group = SharedGroup::new(depth).unwrap();
    let id = Identity::random(&mut rng);
    let index = group.register_batch(&[id.commitment()]).unwrap().0.start;

    let stale_root = group.root();
    let stale_proof = group.membership_proof(index).unwrap();

    // group evolves past the router's root window
    for _ in 0..3 {
        group
            .register_batch(&[Identity::random(&mut rng).commitment()])
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
        let view = MemberView::new(depth).unwrap();
        let group = SharedGroup::new(depth).unwrap();
        assert_eq!(full.root(), zero_hashes()[depth]);
        assert_eq!(view.root(), full.root());
        assert_eq!(group.root(), full.root());
    }
}

#[test]
fn slashed_member_cannot_rejoin_with_same_commitment_history() {
    let depth = 8;
    let mut group = SharedGroup::new(depth).unwrap();
    let id = Identity::from_secret(Fr::from_u64(1234));
    let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
    group.remove(index).unwrap();
    // the contract-level registry would accept a re-registration with a
    // *new stake*; the local group view does too, at a fresh index —
    // economic deterrence, not a permanent ban (matches the paper: Sybil
    // resistance comes from the stake, not identity blacklists)
    let new_index = group.register_batch(&[id.commitment()]).unwrap().0.start;
    assert_eq!(new_index, 1);
    assert_eq!(group.member_count(), 1);
}

#[test]
fn light_tree_own_proof_proves_at_the_papers_depth_32() {
    // the paper's 2^32 group size: the own path is O(depth) to hold, and
    // the signal built from it verifies. The 101 members fill the first
    // 2^7 leaves, so above level 7 every sibling is an empty subtree.
    let depth = 32;
    let mut rng = StdRng::seed_from_u64(2);
    let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut occupied = FullMerkleTree::new(7).unwrap();
    for i in 0..100u64 {
        occupied.append(Fr::from_u64(10_000 + i)).unwrap();
    }
    let id = Identity::random(&mut rng);
    let own_index = occupied.append(id.commitment()).unwrap();
    let mut own_path = occupied.proof(own_index).unwrap();
    own_path
        .siblings
        .extend_from_slice(&zero_hashes()[7..depth]);
    let root = own_path.compute_root(id.commitment());

    let signal = create_signal(
        &id,
        &own_path,
        root,
        &pk,
        Fr::from_u64(1),
        b"deep",
        &mut rng,
    )
    .unwrap();
    assert_eq!(verify_signal(&vk, root, &signal), SignalValidity::Valid);
}
