//! Hierarchical timing wheel: the simulator's event queue.
//!
//! Replaces the global `BinaryHeap` with a calendar-queue structure
//! tuned for the scheduler's access pattern — `pop everything at the
//! earliest timestamp, in sequence order` — which a heap serves in
//! `O(k log n)` per round but the wheel serves in amortized `O(k)`:
//!
//! * **11 levels × 64 slots** (6 bits per level, 66 ≥ 64 bits) cover
//!   every `u64` millisecond timestamp. An event's level is the highest
//!   6-bit group in which its timestamp differs from the wheel's
//!   current time; its slot is that group's value. Level 0 therefore
//!   resolves single milliseconds inside the current 64 ms window.
//! * **Occupancy bitmasks** (one `u64` per level) make "earliest
//!   non-empty slot" a `trailing_zeros` instruction.
//! * **Slab-indexed events**: slots store `u32` handles into a slab
//!   `Vec` with an intrusive free list, so cascading a slot to lower
//!   levels moves 4-byte handles, never message payloads, and handles
//!   are reused. Each occupied entry is a `Box`ed event — one allocation
//!   per queued event, freed when it pops — so that a slab entry stays
//!   16 bytes: the slab only ever grows to the high-water mark of
//!   in-flight events, and inline entries of event size would pin peak
//!   RSS there for the rest of the run (measured on the benchmark's
//!   `mesh_10k`: un-boxed entries cut `run_s` 9 % and raise peak RSS
//!   5 %). The level-0 slot `Vec`s, drained once per round, do keep
//!   their capacity.
//!
//! # Determinism contract
//!
//! The wheel preserves the exact `(at, seq)` pop order of the heap it
//! replaces (the contract the in-order round scheduler depends on). The argument:
//!
//! 1. Sequence numbers are globally monotonic and events are pushed in
//!    sequence order, so every slot `Vec` is seq-ordered as pushed.
//! 2. A 64 ms window's events cascade to level 0 *in one operation*,
//!    exactly when the wheel's time first enters that window — before
//!    any new push inside the window can occur (pushes always carry
//!    `at ≥ now ≥ cur`). Cascading iterates the slot in order, so
//!    seq order is preserved, and later pushes append after it.
//! 3. A level-0 slot holds exactly one timestamp, so draining it yields
//!    the full `(at == min)` batch in seq order — byte-identical to
//!    popping the heap until the head's timestamp changes.
//!
//! The equivalence is additionally property-tested against a real
//! `BinaryHeap` over random `(at, seq)` workloads below.

use crate::sim::QueuedEvent;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// ⌈64 / 6⌉ levels cover the full u64 timestamp range.
const LEVELS: usize = 11;
const NO_FREE: u32 = u32::MAX;

#[derive(Clone)]
enum SlabEntry<M> {
    Occupied(Box<QueuedEvent<M>>),
    /// Free-list link to the next vacant slab index (`NO_FREE` ends it).
    Vacant(u32),
}

/// The event queue: see the module docs for structure and invariants.
///
/// Key invariant maintained throughout: `cur` only advances by entering
/// the window of the globally earliest event, and entering a window
/// cascades that window's slot entirely — so every stored handle's
/// (level, slot) position remains consistent with `cur` at all times,
/// and the earliest event is always in the first occupied slot of the
/// lowest non-empty level.
pub(crate) struct EventWheel<M> {
    levels: Vec<[Vec<u32>; SLOTS]>,
    occupied: [u64; LEVELS],
    slab: Vec<SlabEntry<M>>,
    free_head: u32,
    /// The wheel's reference time: the timestamp of the last popped
    /// batch. All queued events satisfy `at ≥ cur`.
    cur: u64,
    len: usize,
}

impl<M: Clone> Clone for EventWheel<M> {
    fn clone(&self) -> EventWheel<M> {
        EventWheel {
            levels: self.levels.clone(),
            occupied: self.occupied,
            slab: self.slab.clone(),
            free_head: self.free_head,
            cur: self.cur,
            len: self.len,
        }
    }
}

impl<M> EventWheel<M> {
    pub(crate) fn new() -> EventWheel<M> {
        EventWheel {
            levels: (0..LEVELS)
                .map(|_| std::array::from_fn(|_| Vec::new()))
                .collect(),
            occupied: [0; LEVELS],
            slab: Vec::new(),
            free_head: NO_FREE,
            cur: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Level and slot for `at`, relative to the wheel's current time.
    fn level_slot(&self, at: u64) -> (usize, usize) {
        debug_assert!(at >= self.cur, "event scheduled in the past");
        let diff = at ^ self.cur;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((at >> (SLOT_BITS as usize * level) as u32) & SLOT_MASK) as usize;
        (level, slot)
    }

    fn insert_handle(&mut self, handle: u32, at: u64) {
        let (level, slot) = self.level_slot(at);
        self.levels[level][slot].push(handle);
        self.occupied[level] |= 1 << slot;
    }

    fn event_at(&self, handle: u32) -> u64 {
        match &self.slab[handle as usize] {
            SlabEntry::Occupied(ev) => ev.at,
            SlabEntry::Vacant(_) => unreachable!("queued handle points at a vacant slab entry"),
        }
    }

    /// Enqueues an event (`ev.at` must be ≥ the last popped timestamp).
    pub(crate) fn push(&mut self, ev: QueuedEvent<M>) {
        let at = ev.at;
        let handle = if self.free_head != NO_FREE {
            let handle = self.free_head;
            match std::mem::replace(
                &mut self.slab[handle as usize],
                SlabEntry::Occupied(Box::new(ev)),
            ) {
                SlabEntry::Vacant(next) => self.free_head = next,
                SlabEntry::Occupied(_) => unreachable!("free list points at an occupied entry"),
            }
            handle
        } else {
            assert!(self.slab.len() < u32::MAX as usize, "event slab full");
            self.slab.push(SlabEntry::Occupied(Box::new(ev)));
            (self.slab.len() - 1) as u32
        };
        self.insert_handle(handle, at);
        self.len += 1;
    }

    /// Timestamp of the earliest queued event, without popping.
    pub(crate) fn next_event_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let level = (0..LEVELS)
            .find(|&l| self.occupied[l] != 0)
            // lint:allow(panic-path, reason = "occupancy invariant: len > 0 means some level has a set bit")
            .expect("len > 0 but no occupied slot");
        let slot = self.occupied[level].trailing_zeros() as usize;
        if level == 0 {
            // a level-0 slot is a single millisecond in the current window
            Some((self.cur & !SLOT_MASK) | slot as u64)
        } else {
            // a coarser slot spans many timestamps: scan it for the min
            self.levels[level][slot]
                .iter()
                .map(|&h| self.event_at(h))
                .min()
        }
    }

    /// Pops **every** event at the earliest queued timestamp into `out`
    /// (in `(at, seq)` order), provided that timestamp is ≤ `limit`.
    /// Returns the batch timestamp, or `None` if the queue is empty or
    /// the earliest event lies beyond `limit` (queue untouched).
    pub(crate) fn pop_next_batch(
        &mut self,
        limit: u64,
        out: &mut Vec<QueuedEvent<M>>,
    ) -> Option<u64> {
        let at = self.next_event_at()?;
        if at > limit {
            return None;
        }
        // Advance into the target window. `at` is the global minimum, so
        // this changes `cur` only within the window of the first occupied
        // slot of the lowest non-empty level — every other stored
        // position stays consistent (see struct docs).
        self.cur = at;
        loop {
            let level = (0..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                // lint:allow(panic-path, reason = "occupancy invariant: a recorded minimum implies a set bit at some level")
                .expect("min exists but no occupied slot");
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                debug_assert_eq!(slot as u64, at & SLOT_MASK, "min not in the current window");
                // lint:allow(panic-path, reason = "level 0 always exists and slot comes from a SLOT_MASK-masked index")
                let mut handles = std::mem::take(&mut self.levels[0][slot]);
                self.occupied[0] &= !(1 << slot);
                self.len -= handles.len();
                out.reserve(handles.len());
                for handle in handles.drain(..) {
                    let entry = std::mem::replace(
                        &mut self.slab[handle as usize],
                        SlabEntry::Vacant(self.free_head),
                    );
                    self.free_head = handle;
                    match entry {
                        SlabEntry::Occupied(ev) => {
                            debug_assert_eq!(ev.at, at);
                            out.push(*ev);
                        }
                        SlabEntry::Vacant(_) => unreachable!("popped handle was vacant"),
                    }
                }
                // hand the emptied Vec back: the slot comes round again
                // every 64 ms and refills without reallocating
                self.levels[level][slot] = handles;
                return Some(at);
            }
            // cascade: redistribute the slot to lower levels relative to
            // the new `cur`, preserving (seq) order
            let handles = std::mem::take(&mut self.levels[level][slot]);
            self.occupied[level] &= !(1 << slot);
            for handle in handles {
                let at_h = self.event_at(handle);
                self.insert_handle(handle, at_h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EventKind, NodeId};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> QueuedEvent<Vec<u8>> {
        QueuedEvent {
            at,
            seq,
            node: NodeId(0),
            kind: EventKind::Timer { token: seq },
        }
    }

    /// Drains both queues batch-by-batch, checking identical order.
    fn assert_matches_heap(
        mut wheel: EventWheel<Vec<u8>>,
        mut heap: BinaryHeap<QueuedEvent<Vec<u8>>>,
    ) {
        let mut batch = Vec::new();
        loop {
            batch.clear();
            let at = wheel.pop_next_batch(u64::MAX, &mut batch);
            match at {
                None => {
                    assert!(heap.is_empty(), "wheel drained before the heap");
                    break;
                }
                Some(at) => {
                    for got in &batch {
                        let want = heap.pop().expect("heap drained before the wheel");
                        assert_eq!((got.at, got.seq), (want.at, want.seq));
                        assert_eq!(got.at, at);
                    }
                    assert!(
                        heap.peek().map(|h| h.at != at).unwrap_or(true),
                        "wheel batch at t={at} did not take every event of the timestamp"
                    );
                }
            }
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn single_timestamp_batch_pops_in_seq_order() {
        let mut wheel = EventWheel::new();
        for seq in 1..=5u64 {
            wheel.push(ev(100, seq));
        }
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_next_batch(u64::MAX, &mut batch), Some(100));
        let seqs: Vec<u64> = batch.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn limit_defers_future_events() {
        let mut wheel = EventWheel::new();
        wheel.push(ev(50, 1));
        wheel.push(ev(5_000, 2));
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_next_batch(100, &mut batch), Some(50));
        batch.clear();
        assert_eq!(wheel.pop_next_batch(100, &mut batch), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_event_at(), Some(5_000));
        assert_eq!(wheel.pop_next_batch(u64::MAX, &mut batch), Some(5_000));
    }

    #[test]
    fn interleaved_push_pop_at_same_timestamp() {
        // zero-latency sends: new events land at the timestamp just popped
        let mut wheel = EventWheel::new();
        wheel.push(ev(10, 1));
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_next_batch(u64::MAX, &mut batch), Some(10));
        wheel.push(ev(10, 2)); // same instant, pushed mid-round
        wheel.push(ev(11, 3));
        batch.clear();
        assert_eq!(wheel.pop_next_batch(u64::MAX, &mut batch), Some(10));
        assert_eq!(batch[0].seq, 2);
        batch.clear();
        assert_eq!(wheel.pop_next_batch(u64::MAX, &mut batch), Some(11));
        assert_eq!(batch[0].seq, 3);
    }

    #[test]
    fn distant_timestamps_cascade_across_levels() {
        let mut wheel = EventWheel::new();
        // one event per level distance: 1, 64, 64², … plus u64 extremes
        let times = [
            1u64,
            63,
            64,
            65,
            4_095,
            4_096,
            262_144,
            1 << 40,
            u64::MAX - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            wheel.push(ev(t, i as u64 + 1));
        }
        let mut popped = Vec::new();
        let mut batch = Vec::new();
        while let Some(at) = wheel.pop_next_batch(u64::MAX, &mut batch) {
            popped.push(at);
            batch.clear();
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn slab_reuses_freed_entries() {
        let mut wheel = EventWheel::new();
        let mut batch = Vec::new();
        for round in 0..100u64 {
            for k in 0..8u64 {
                wheel.push(ev(round * 10, round * 8 + k + 1));
            }
            batch.clear();
            wheel.pop_next_batch(u64::MAX, &mut batch);
            assert_eq!(batch.len(), 8);
        }
        // the slab never grew past one round's worth of live events
        assert!(wheel.slab.len() <= 8, "slab grew to {}", wheel.slab.len());
    }

    proptest! {
        /// The tentpole equivalence property: over random `(at, seq)`
        /// workloads with interleaved pushes (monotone seq, timestamps
        /// at mixed magnitudes), the wheel pops byte-identically to a
        /// `BinaryHeap` ordered by `(at, seq)`.
        #[test]
        fn pops_match_binary_heap(
            jumps in proptest::collection::vec((0u64..3, 0u64..200_000, 1usize..6), 1..60)
        ) {
            let mut wheel = EventWheel::new();
            let mut heap: BinaryHeap<QueuedEvent<Vec<u8>>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut base = 0u64;
            for (scale, offset, burst) in jumps {
                // mixed magnitudes: near, mid and far future
                let at = base + (offset << (scale * 13));
                for _ in 0..burst {
                    seq += 1;
                    wheel.push(ev(at, seq));
                    heap.push(ev(at, seq));
                }
                // occasionally advance time by popping one batch from both
                if seq.is_multiple_of(3) {
                    let mut batch = Vec::new();
                    if let Some(t) = wheel.pop_next_batch(u64::MAX, &mut batch) {
                        base = base.max(t);
                        for got in &batch {
                            let want = heap.pop().unwrap();
                            prop_assert_eq!((got.at, got.seq), (want.at, want.seq));
                        }
                    }
                }
            }
            assert_matches_heap(wheel, heap);
        }

        /// Dense same-timestamp bursts (the scheduler's hot case) keep
        /// strict seq order through cascades.
        #[test]
        fn bursty_rounds_preserve_seq_order(
            rounds in proptest::collection::vec((0u64..500, 1usize..20), 1..40)
        ) {
            let mut wheel = EventWheel::new();
            let mut heap: BinaryHeap<QueuedEvent<Vec<u8>>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut at = 0u64;
            for (gap, burst) in rounds {
                at += gap;
                for _ in 0..burst {
                    seq += 1;
                    wheel.push(ev(at, seq));
                    heap.push(ev(at, seq));
                }
            }
            assert_matches_heap(wheel, heap);
        }
    }
}
