//! Bytes-per-peer tripwire: the heap a finished `metropolis` run holds,
//! divided by its peers, measured with a counting global allocator and
//! split into gossipsub, validator and the rest. A second run of the
//! same spec with more traffic rounds gives the heap each extra message
//! leaves in every peer.
//!
//! Allocation sizes are a pure function of spec and seed, so the
//! ceilings can sit 5 % above the measured values: a change that grows
//! any per-peer table or per-message entry trips them. This file is its
//! own test binary with a single test, so no other test allocates while
//! it counts. Run it with `cargo test --test peer_memory -- --nocapture`
//! to see the split.

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
/// 2 000, seed 1: 5 % above the 4 631 B (gossipsub 1 628, validator 575,
/// rest 2 427) measured before the neighbour table kept its peer keys in
/// a column of their own. It now holds 4 720 B (gossipsub 1 676,
/// validator 575, rest 2 468): the key column's 4 B per row (+48) and,
/// inline in each node, the column's `Vec` header and the table's
/// heartbeat count, invalid-row count and liveness floor (+41). With
/// every node of the mirror's tree stored the same run held 4 698 B
/// (rest 2 494); with a `Box` per queued event 4 936 B (rest 2 731);
/// before the per-message state was right-sized 5 981 B (2 168 / 1 024 /
/// 2 789), and with per-peer hash and B-tree tables 7 748 B (3 016 /
/// 1 568 / 3 163).
const CEILING_BYTES_PER_PEER: usize = 4_863;

/// Traffic rounds of the second run: three times the built-in's two, so
/// its two publishers send eight more messages.
const MORE_ROUNDS: usize = 6;

/// Heap bytes per peer that each of those extra messages leaves behind at
/// the end of the run: 5 % above the measured 89 B (gossipsub 81,
/// validator 8). Before the per-message state was right-sized: 149 B,
/// all of it gossipsub.
const CEILING_BYTES_PER_PEER_PER_MESSAGE: usize = 93;

/// Heap bytes a finished run holds, split by owner.
struct Split {
    peers: usize,
    messages: usize,
    gossipsub: usize,
    validator: usize,
    rest: usize,
}

impl Split {
    fn total(&self) -> usize {
        self.gossipsub + self.validator + self.rest
    }

    fn print(&self, label: &str) {
        let peers = self.peers;
        println!(
            "{label}: {} heap bytes per peer (gossipsub {}, validator {}, rest {})",
            self.total() / peers,
            self.gossipsub / peers,
            self.validator / peers,
            self.rest / peers
        );
    }
}

/// Runs `metropolis` @ 2 000, seed 1 with `rounds` traffic rounds and
/// measures what its testbed holds: each validator, then each gossipsub
/// node, then the rest, dropped in turn.
fn measure(rounds: usize) -> Split {
    let mut spec = builtin("metropolis", 2_000, 1).expect("a built-in scenario");
    spec.traffic.rounds = rounds;
    let messages = spec.traffic.publishers * rounds;
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
    Split {
        peers,
        messages,
        gossipsub,
        validator,
        rest,
    }
}

/// Both checks share one test so that nothing else allocates while the
/// runs are measured.
#[test]
fn metropolis_heap_per_peer_stays_under_its_ceiling() {
    let base = measure(2);
    base.print("metropolis @ 2000, seed 1");
    let per_peer = base.total() / base.peers;
    assert!(
        per_peer <= CEILING_BYTES_PER_PEER,
        "per-peer heap grew: {per_peer} B > ceiling {CEILING_BYTES_PER_PEER} B"
    );

    // what each message leaves behind in every peer: seen entries, the
    // delivery tape, nullifier-map entries
    let more = measure(MORE_ROUNDS);
    more.print(&format!("metropolis @ 2000, seed 1, {MORE_ROUNDS} rounds"));
    let extra = more.messages - base.messages;
    let per_message = |bytes: fn(&Split) -> usize| {
        (bytes(&more).saturating_sub(bytes(&base))) / base.peers / extra
    };
    let per_peer_per_message = per_message(Split::total);
    println!(
        "per peer per extra message: {per_peer_per_message} B (gossipsub {}, validator {}, rest {})",
        per_message(|s| s.gossipsub),
        per_message(|s| s.validator),
        per_message(|s| s.rest)
    );
    assert!(
        per_peer_per_message <= CEILING_BYTES_PER_PEER_PER_MESSAGE,
        "per-message heap grew: {per_peer_per_message} B per peer per message \
         > ceiling {CEILING_BYTES_PER_PEER_PER_MESSAGE} B"
    );
}
