//! Bytes-per-peer tripwire: the heap a finished `metropolis` run holds,
//! divided by its peers, measured with a counting global allocator and
//! split into gossipsub, validator and the rest.
//!
//! Allocation sizes are a pure function of spec and seed, so the
//! ceiling can sit 5 % above the measured value: a change that grows any
//! per-peer table trips it. This file is its own test binary with a
//! single test, so no other test allocates while it counts. Run it with
//! `cargo test --test peer_memory -- --nocapture` to see the split.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use waku_rln::gossipsub::{GossipsubConfig, GossipsubNode, ScoringConfig};
use waku_rln::netsim::NodeId;
use waku_rln::scenarios::{builtin, run_scenario_detailed};

/// Heap bytes currently allocated (requested sizes; allocator overhead
/// is not counted).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods hand the caller's layout and pointer to `System`
// unchanged, so `System` upholds the `GlobalAlloc` contract; the only
// addition is a counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations on `layout` pass straight through
    // to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: every pointer this allocator hands out came from
    // `System::alloc` with the same `layout`, which the caller passes back.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Heap bytes `value` owns, measured by dropping it.
fn freed_by<T>(value: T) -> usize {
    let before = live();
    drop(value);
    before - live()
}

/// Heap bytes per peer held by the finished testbed of `metropolis` @
/// 2 000, seed 1: 5 % above the measured 5 989 B (gossipsub 2 168,
/// validator 1 024, rest 2 797). With per-peer hash and B-tree tables
/// the same run held 7 748 B (3 016 / 1 568 / 3 163).
const CEILING_BYTES_PER_PEER: usize = 6_288;

#[test]
fn metropolis_heap_per_peer_stays_under_its_ceiling() {
    let spec = builtin("metropolis", 2_000, 1).expect("a built-in scenario");
    let (report, mut tb) = run_scenario_detailed(&spec);
    assert_eq!(report.delivery_rate, 1.0);
    drop(report);
    let peers = tb.peer_count();

    // a validator holding no per-peer state, swapped in for each peer's
    let mut blank = tb.net.node(NodeId(0)).validator().clone();
    blank.reset_state(blank.current_root());
    let blank_bytes = freed_by(blank.clone());
    let placeholder = || {
        GossipsubNode::new(
            GossipsubConfig::default(),
            ScoringConfig::default(),
            Vec::new(),
            blank.clone(),
        )
    };
    let placeholder_bytes = freed_by(placeholder());

    let mut validator = 0;
    for i in 0..peers {
        let node = tb.net.node_mut(NodeId(i));
        validator += freed_by(std::mem::replace(node.validator_mut(), blank.clone()));
    }
    // each gossipsub node now holds a blank validator: not its share
    let mut gossipsub = 0;
    for i in 0..peers {
        let node = tb.net.node_mut(NodeId(i)).gossipsub_mut();
        gossipsub += freed_by(std::mem::replace(node, placeholder())) - blank_bytes;
    }
    let rest = freed_by(tb) - peers * placeholder_bytes;

    let total = gossipsub + validator + rest;
    let per_peer = total / peers;
    println!(
        "metropolis @ {peers}, seed 1: {per_peer} heap bytes per peer \
         (gossipsub {}, validator {}, rest {})",
        gossipsub / peers,
        validator / peers,
        rest / peers
    );
    assert!(
        per_peer <= CEILING_BYTES_PER_PEER,
        "per-peer heap grew: {per_peer} B > ceiling {CEILING_BYTES_PER_PEER} B"
    );
}
