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
//! * **Chunked inline slots**: each slot holds its events by value, in
//!   push order, as a list of chunks of at most `CHUNK` (256) events.
//!   A push appends to the slot's last chunk or opens a new one; a
//!   level-0 pop moves the slot's chunks into the caller's batch; a
//!   cascade drains them into lower levels. An emptied chunk goes back
//!   to the allocator, so the queue holds about as much memory as it has
//!   events in flight. A chunk of the relay's events is ≈ 18 KB, far
//!   below glibc's 128 KiB mmap threshold, so no chunk is ever mmapped
//!   and freeing one never slides that threshold (PERF.md). One
//!   unchunked `Vec` per slot does not have that property: a publish
//!   wave's level-1 slot grows to a ≈ 1.4 MB mmapped buffer, and on the
//!   benchmark's `mesh_10k` it raised peak RSS 9.5 % when freed and
//!   23 % when kept.
//!
//! # Determinism contract
//!
//! The wheel preserves the exact `(at, seq)` pop order of the heap it
//! replaces (the contract the in-order round scheduler depends on). The argument:
//!
//! 1. Sequence numbers are globally monotonic and events are pushed in
//!    sequence order, so every slot's chunk list is seq-ordered as
//!    pushed.
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
/// Events per chunk (see the module docs for why it stays small).
const CHUNK: usize = 256;

/// A slot's events in push order, split into chunks that are allocated
/// with capacity `CHUNK` and never grown.
type Slot<M> = Vec<Vec<QueuedEvent<M>>>;

/// The event queue: see the module docs for structure and invariants.
///
/// Key invariant maintained throughout: `cur` only advances by entering
/// the window of the globally earliest event, and entering a window
/// cascades that window's slot entirely — so every stored event's
/// (level, slot) position remains consistent with `cur` at all times,
/// and the earliest event is always in the first occupied slot of the
/// lowest non-empty level.
#[derive(Clone)]
pub(crate) struct EventWheel<M> {
    levels: Vec<[Slot<M>; SLOTS]>,
    occupied: [u64; LEVELS],
    /// The wheel's reference time: the timestamp of the last popped
    /// batch. All queued events satisfy `at ≥ cur`.
    cur: u64,
    len: usize,
}

impl<M> EventWheel<M> {
    pub(crate) fn new() -> EventWheel<M> {
        EventWheel {
            levels: (0..LEVELS)
                .map(|_| std::array::from_fn(|_| Vec::new()))
                .collect(),
            occupied: [0; LEVELS],
            cur: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every queued event, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &QueuedEvent<M>> {
        self.levels.iter().flatten().flatten().flatten()
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

    /// Appends `ev` to its slot, opening a new chunk when the last one is
    /// full (a cloned chunk is full at any length: its capacity is its
    /// length).
    fn insert(&mut self, ev: QueuedEvent<M>) {
        let (level, slot) = self.level_slot(ev.at);
        let chunks = &mut self.levels[level][slot];
        debug_assert!(
            chunks
                .last()
                .and_then(|c| c.last())
                .is_none_or(|last| last.seq < ev.seq),
            "slot pushed out of seq order"
        );
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(ev),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(ev);
                chunks.push(chunk);
            }
        }
        self.occupied[level] |= 1 << slot;
    }

    /// Level and slot of the first occupied slot of the lowest non-empty
    /// level, or `None` when the wheel is empty.
    fn first_occupied(&self) -> Option<(usize, usize)> {
        let level = self.occupied.iter().position(|&bits| bits != 0)?;
        Some((level, self.occupied[level].trailing_zeros() as usize))
    }

    /// Enqueues an event (`ev.at` must be ≥ the last popped timestamp).
    pub(crate) fn push(&mut self, ev: QueuedEvent<M>) {
        self.insert(ev);
        self.len += 1;
    }

    /// Timestamp of the earliest queued event, without popping.
    pub(crate) fn next_event_at(&self) -> Option<u64> {
        let (level, slot) = self.first_occupied()?;
        if level == 0 {
            // a level-0 slot is a single millisecond in the current window
            Some((self.cur & !SLOT_MASK) | slot as u64)
        } else {
            // a coarser slot spans many timestamps: scan it for the min
            self.levels[level][slot]
                .iter()
                .flatten()
                .map(|ev| ev.at)
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
            let (level, slot) = self.first_occupied()?;
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                debug_assert_eq!(slot as u64, at & SLOT_MASK, "min not in the current window");
                let chunks = &mut self.levels[level][slot];
                out.reserve(chunks.iter().map(Vec::len).sum());
                for mut chunk in chunks.drain(..) {
                    debug_assert!(chunk.iter().all(|ev| ev.at == at));
                    self.len -= chunk.len();
                    out.append(&mut chunk);
                }
                return Some(at);
            }
            // cascade: redistribute the slot to lower levels relative to
            // the new `cur`, preserving (seq) order
            for chunk in std::mem::take(&mut self.levels[level][slot]) {
                for ev in chunk {
                    self.insert(ev);
                }
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

    /// Every chunk of every slot, with its level.
    fn chunks(
        wheel: &EventWheel<Vec<u8>>,
    ) -> impl Iterator<Item = (usize, &Vec<QueuedEvent<Vec<u8>>>)> {
        wheel
            .levels
            .iter()
            .enumerate()
            .flat_map(|(level, slots)| slots.iter().flatten().map(move |chunk| (level, chunk)))
    }

    #[test]
    fn chunks_stay_bounded_and_drained_slots_release_them() {
        let mut wheel = EventWheel::new();
        let mut seq = 0u64;
        // three chunks at one level-0 instant, and three in one level-5
        // slot spanning 7 ms, which cascades down level by level
        for (at, spread) in [(5u64, 1), (1 << 30, 7)] {
            for k in 0..3 * CHUNK as u64 {
                seq += 1;
                wheel.push(ev(at + k % spread, seq));
            }
        }
        // a clone's chunks are exactly full, so a push opens a seventh
        let mut wheel = wheel.clone();
        seq += 1;
        wheel.push(ev(1 << 30, seq));
        assert_eq!(chunks(&wheel).count(), 7);
        assert!(chunks(&wheel).all(|(_, chunk)| chunk.capacity() <= CHUNK));
        let mut batch = Vec::new();
        while wheel.pop_next_batch(u64::MAX, &mut batch).is_some() {
            assert!(chunks(&wheel).all(|(_, chunk)| chunk.capacity() <= CHUNK));
        }
        assert_eq!(batch.len() as u64, seq);
        assert_eq!(wheel.len(), 0);
        assert!(
            chunks(&wheel).all(|(level, _)| level == 0),
            "a drained wheel kept a chunk above level 0"
        );
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

        /// Same-timestamp bursts and coarse windows of up to three chunks:
        /// each round pushes `burst` events spread over `spread`
        /// consecutive milliseconds `gap` ms past the last popped batch,
        /// so slots fill past `CHUNK` at level 0 and cascade several
        /// chunks at once from the levels above.
        #[test]
        fn multi_chunk_slots_match_binary_heap(
            rounds in proptest::collection::vec(
                (0u64..300_000, 1usize..3 * CHUNK, 1u64..300, 0usize..3),
                1..12,
            )
        ) {
            let mut wheel = EventWheel::new();
            let mut heap: BinaryHeap<QueuedEvent<Vec<u8>>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut base = 0u64;
            for (gap, burst, spread, pops) in rounds {
                let at = base + gap;
                for k in 0..burst as u64 {
                    seq += 1;
                    wheel.push(ev(at + k % spread, seq));
                    heap.push(ev(at + k % spread, seq));
                }
                for _ in 0..pops {
                    let mut batch = Vec::new();
                    if let Some(t) = wheel.pop_next_batch(u64::MAX, &mut batch) {
                        base = t;
                        for got in &batch {
                            let want = heap.pop().unwrap();
                            prop_assert_eq!((got.at, got.seq), (want.at, want.seq));
                        }
                    }
                }
            }
            assert_matches_heap(wheel, heap);
        }
    }
}
