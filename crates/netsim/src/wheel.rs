//! A hierarchical timer wheel for the simulator event queue.
//!
//! The simulator orders events by `(at, key)`: firing instant first, then
//! the provenance key as the tie-break (see `sim::provenance_key`). A binary heap gives that
//! order in `O(log n)` per operation with poor locality once the queue is
//! thousands of entries deep (retransmission timers, serialized bursts).
//! This module provides the same total order with amortized `O(1)` push
//! and pop, using the hashed-and-hierarchical wheel design of Varghese &
//! Lauck as adapted by modern runtimes.
//!
//! # Geometry
//!
//! Six levels of 64 slots each, with slot widths of `64^L` microseconds:
//! level 0 resolves single microseconds over a 64 µs window, level 5 slots
//! span ~73 minutes, and the whole wheel covers `64^6` µs ≈ 19 simulated
//! hours ahead of `base`. Events beyond that horizon wait in an unsorted
//! `overflow` list and are folded in when the wheel drains — far-future
//! timers are rare and pay their `O(n)` promotion once, not per tick.
//!
//! Shallow queues (at most [`LIST_MAX`] pending events while no slot is
//! occupied) skip the wheel entirely and run as a sorted list in `ready`
//! — see [`TimerWheel::push`]. Both regimes implement the same total
//! order, so the switch is invisible to the pop stream.
//!
//! An event's level is the position of the highest bit in which its firing
//! time differs from `base` (the wheel's current origin); its slot within
//! the level is just that 6-bit field of the firing time. As `base`
//! advances, higher-level slots are *cascaded*: their events re-insert at
//! lower levels, gaining resolution as they get closer — classic timer-
//! wheel behaviour.
//!
//! # Why the exact `(at, key)` order is preserved
//!
//! * The slot an event lands in is a pure function of its firing time and
//!   the level geometry, so two events with the same `at` always share a
//!   slot (or are both in `ready`/`overflow`). No ordering decision is
//!   ever made *between* slots for equal times.
//! * `base` only moves to the start of the next occupied slot of the first
//!   non-empty level. Since every stored event fires strictly after the
//!   old `base`, and lower levels are empty, that slot contains the global
//!   minimum firing time (events at higher levels differ from `base` in a
//!   higher bit, hence fire later).
//! * A drained level-0 slot spans exactly one microsecond, so all its
//!   events share one `at`; they are sorted by `key` before being handed
//!   out, which restores the tie-break order regardless of the order they
//!   were inserted (including re-insertion of an already-popped event when
//!   a run slice hits its deadline).
//! * The `ready` queue holds events at (or, defensively, before) `base`
//!   in `(at, key)` order. A fresh push usually sorts last (provenance
//!   keys grow with the scheduling clock), and any out-of-order arrival —
//!   a deadline push-back, or a same-instant key inversion — re-inserts
//!   at its sorted position.
//!
//! Together these give byte-identical pop streams to the reference
//! `BinaryHeap` backend; `crates/netsim/tests/wheel_oracle.rs` and the
//! property tests below enforce that equivalence.

use std::collections::VecDeque;

use crate::sim::Scheduled;

/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Number of levels; the wheel spans `2^(SLOT_BITS * LEVELS)` µs.
const LEVELS: usize = 6;
/// While the wheel proper is empty, up to this many events are kept as a
/// plain sorted list in `ready` (list mode). Shallow queues — request/
/// response traffic keeps two or three events pending — are cheaper to
/// serve from a contiguous sorted deque than through slot indexing, and
/// a fresh push is almost always a trailing append. Beyond this depth the
/// list migrates into the wheel and stays there until the queue drains.
const LIST_MAX: usize = 32;
/// Upper bound the adaptive list threshold may grow to. Each migration
/// into the wheel doubles the threshold (the workload evidently runs
/// deeper than the list assumed), and a full drain decays it back toward
/// [`LIST_MAX`]; the cap keeps the ordered-insert cost of list mode
/// bounded even for pathological grow/drain cycles.
const LIST_ADAPT_CAP: usize = 256;

/// Level an event with firing time `at` occupies relative to `base`.
/// Requires `at > base`. Returns `LEVELS` (or more) for the overflow list.
#[inline]
fn level_of(base: u64, at: u64) -> usize {
    debug_assert!(at > base);
    // `| SLOT_MASK` pins the result into level 0 when only the low 6 bits
    // differ (avoids a branch on leading_zeros of zero).
    let masked = (base ^ at) | SLOT_MASK;
    ((63 - masked.leading_zeros()) / SLOT_BITS) as usize
}

/// The shared firing time of `events`, if they all agree (and there is at
/// least one event).
#[inline]
fn uniform_at(events: &[Scheduled]) -> Option<u64> {
    let first = events.first()?.at.as_micros();
    events[1..]
        .iter()
        .all(|e| e.at.as_micros() == first)
        .then_some(first)
}

/// Hierarchical timer wheel holding [`Scheduled`] events in exact
/// `(at, key)` order.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    /// Origin of the wheel, in µs. Every event stored in `slots` or
    /// `overflow` fires strictly after `base`; events at (or before)
    /// `base` live in `ready`.
    base: u64,
    /// Total number of stored events across `ready`, `slots`, `overflow`.
    len: usize,
    /// One occupancy bitmap per level (bit `s` set ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` buckets; vectors keep their capacity across use.
    slots: Vec<Vec<Scheduled>>,
    /// Events beyond the wheel horizon, unordered.
    overflow: Vec<Scheduled>,
    /// Events due now, in `(at, key)` order; popped from the front.
    ready: VecDeque<Scheduled>,
    /// Scratch buffer reused by cascades to avoid re-allocation.
    cascade_buf: Vec<Scheduled>,
    /// Adaptive list-mode threshold: starts at [`LIST_MAX`], doubles on
    /// each forced migration into the wheel (capped at
    /// [`LIST_ADAPT_CAP`]), and decays toward [`LIST_MAX`] when the queue
    /// fully drains. Queues that repeatedly hover just past a fixed
    /// threshold would otherwise pay the migration on every burst.
    list_max: usize,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            base: 0,
            len: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            ready: VecDeque::new(),
            cascade_buf: Vec::new(),
            list_max: LIST_MAX,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, event: Scheduled) {
        self.len += 1;
        let at = event.at.as_micros();
        if self.len - 1 == self.ready.len() {
            // List mode: the wheel proper is empty, so `ready` holds the
            // whole queue as a sorted list and pushes are a (usually
            // trailing) ordered insert. At ping-pong depths this beats
            // both the heap and the wheel machinery; the wheel engages
            // only once the queue is deep enough to pay for itself.
            if self.ready.len() < self.list_max {
                self.push_ready(event);
                return;
            }
            self.migrate_to_wheel();
        }
        if at <= self.base {
            self.push_ready(event);
        } else {
            self.insert(event);
        }
    }

    /// Leaves list mode: re-bases the wheel at the earliest pending
    /// instant and files everything later than it into slots/overflow.
    fn migrate_to_wheel(&mut self) {
        debug_assert!(self.occupied.iter().all(|&o| o == 0) && self.overflow.is_empty());
        // The workload outgrew list mode; be slower to re-enter it.
        self.list_max = (self.list_max * 2).min(LIST_ADAPT_CAP);
        let min_at = self
            .ready
            .front()
            .expect("migration only happens on a full list")
            .at
            .as_micros();
        self.base = min_at;
        let split = self
            .ready
            .iter()
            .position(|e| e.at.as_micros() != min_at)
            .unwrap_or(self.ready.len());
        let rest = self.ready.split_off(split);
        for event in rest {
            self.insert(event);
        }
    }

    /// Pops the event with the smallest `(at, key)`, advancing `base` as
    /// needed.
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        loop {
            if let Some(event) = self.ready.pop_front() {
                self.len -= 1;
                if self.len == 0 {
                    // Full drain: halve the adaptive threshold back toward
                    // its base, so a one-off deep burst does not leave a
                    // permanently expensive list mode behind.
                    self.list_max = (self.list_max / 2).max(LIST_MAX);
                }
                return Some(event);
            }
            if self.len == 0 {
                return None;
            }
            if !self.advance() {
                self.promote_overflow();
            }
        }
    }

    /// The earliest pending event without removing it. Shares the advance
    /// machinery with [`TimerWheel::pop`]: the head must first be surfaced
    /// into `ready`, which moves `base` exactly as popping would.
    pub(crate) fn peek(&mut self) -> Option<&Scheduled> {
        loop {
            // NLL workaround: probing `self.ready.front()` directly holds
            // the borrow across the advance calls below.
            if !self.ready.is_empty() {
                return self.ready.front();
            }
            if self.len == 0 {
                return None;
            }
            if !self.advance() {
                self.promote_overflow();
            }
        }
    }

    /// Appends to `ready`, keeping `(at, key)` order. The fast path is a
    /// plain append: provenance keys lead with the scheduling instant, so
    /// a freshly scheduled event almost always sorts after everything
    /// already stored. The sorted insert runs when a popped event is
    /// pushed back (run-slice deadline) or a same-instant key inversion
    /// arrives.
    fn push_ready(&mut self, event: Scheduled) {
        let key = (event.at, event.key);
        match self.ready.back() {
            Some(last) if (last.at, last.key) > key => {
                // `ready` is sorted and `(at, key)` is unique, so the
                // first entry after `key` is found by bisection.
                let pos = self.ready.partition_point(|e| (e.at, e.key) <= key);
                self.ready.insert(pos, event);
            }
            _ => self.ready.push_back(event),
        }
    }

    /// Files an event into its wheel slot (or overflow). Requires
    /// `event.at > base`. Does not touch `len`.
    fn insert(&mut self, event: Scheduled) {
        let at = event.at.as_micros();
        let level = level_of(self.base, at);
        if level >= LEVELS {
            self.overflow.push(event);
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(event);
    }

    /// Drains the next occupied slot of the first non-empty level into
    /// `ready` (level 0) or back into lower levels (cascade). Returns
    /// `false` when every level is empty and only `overflow` holds events.
    fn advance(&mut self) -> bool {
        let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
            return false;
        };
        let shift = SLOT_BITS * level as u32;
        let slot = self.occupied[level].trailing_zeros() as u64;
        // Every stored event fires after `base` and shares its bits above
        // this level with `base` (see module docs), so the next occupied
        // slot is always ahead of the cursor — never a wrapped leftover.
        debug_assert!(slot > (self.base >> shift) & SLOT_MASK);
        let window = self.base & !((1u64 << (shift + SLOT_BITS)) - 1);
        let deadline = window + (slot << shift);
        debug_assert!(deadline > self.base);
        self.occupied[level] &= !(1 << slot);
        self.base = deadline;

        let index = level * SLOTS + slot as usize;
        if self.slots[index].len() == 1 {
            // Sparse-queue fast path (ping-pong style traffic keeps one
            // event per slot): the slot's only event is the global
            // minimum, so jump `base` to its instant and hand it straight
            // to `ready` — no buffer swap, no sort, no re-insertion.
            let event = self.slots[index].pop().expect("slot has one event");
            self.base = event.at.as_micros();
            self.ready.push_back(event);
            return true;
        }
        let mut drained = std::mem::take(&mut self.cascade_buf);
        std::mem::swap(&mut drained, &mut self.slots[index]);
        if level == 0 {
            // A level-0 slot spans one microsecond: every event shares
            // `at == deadline`, so sorting by `key` restores the
            // tie-break order exactly.
            drained.sort_unstable_by_key(|e| e.key);
            debug_assert!(drained.iter().all(|e| e.at.as_micros() == deadline));
            self.ready.extend(drained.drain(..));
        } else if let Some(common_at) = uniform_at(&drained) {
            // Every event in the slot fires at one instant — the common
            // case for sparse queues (one pending delivery per link). The
            // slot held the global minimum, same-`at` events always share
            // a slot, and everything else in the wheel fires in a later
            // window — so `base` can jump straight to that instant and
            // the events go to `ready` directly, skipping the cascade
            // re-insertion and the follow-up level-0 drain.
            self.base = common_at;
            drained.sort_unstable_by_key(|e| e.key);
            self.ready.extend(drained.drain(..));
        } else {
            for event in drained.drain(..) {
                debug_assert!(event.at.as_micros() >= deadline);
                if event.at.as_micros() == self.base {
                    self.ready.push_back(event);
                } else {
                    self.insert(event);
                }
            }
            self.ready.make_contiguous().sort_unstable_by_key(|e| e.key);
        }
        self.cascade_buf = drained;
        true
    }

    /// All levels are empty but `overflow` is not: jump `base` to the
    /// earliest overflow deadline and file every event that now fits.
    fn promote_overflow(&mut self) {
        debug_assert!(self.ready.is_empty() && !self.overflow.is_empty());
        let min_at = self
            .overflow
            .iter()
            .map(|e| e.at.as_micros())
            .min()
            .expect("overflow is non-empty");
        self.base = min_at;
        let mut i = 0;
        while i < self.overflow.len() {
            let at = self.overflow[i].at.as_micros();
            if at == min_at {
                let event = self.overflow.swap_remove(i);
                self.ready.push_back(event);
            } else if level_of(min_at, at) < LEVELS {
                let event = self.overflow.swap_remove(i);
                self.insert(event);
            } else {
                i += 1;
            }
        }
        self.ready.make_contiguous().sort_unstable_by_key(|e| e.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EventKind, TimerId};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use svckit_model::Instant;

    fn event(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: Instant::from_micros(at),
            key: seq as u128,
            kind: EventKind::Timer {
                slot: 0,
                id: TimerId(seq),
                generation: 1,
                ctx: None,
            },
        }
    }

    fn key(e: &Scheduled) -> (u64, u128) {
        (e.at.as_micros(), e.key)
    }

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut wheel = TimerWheel::new();
        for (at, seq) in [(5, 3), (5, 1), (0, 2), (1000, 4), (64, 5), (63, 6)] {
            wheel.push(event(at, seq));
        }
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push(key(&e));
        }
        assert_eq!(
            out,
            vec![(0, 2), (5, 1), (5, 3), (63, 6), (64, 5), (1000, 4)]
        );
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut wheel = TimerWheel::new();
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        wheel.push(event(horizon + 17, 1));
        wheel.push(event(3, 2));
        wheel.push(event(horizon * 3, 3));
        assert_eq!(wheel.len(), 3);
        assert_eq!(key(&wheel.pop().unwrap()), (3, 2));
        assert_eq!(key(&wheel.pop().unwrap()), (horizon + 17, 1));
        assert_eq!(key(&wheel.pop().unwrap()), (horizon * 3, 3));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn popped_event_can_be_pushed_back_and_pops_first_again() {
        // run_to_quiescence pops one event past its deadline and re-inserts
        // it; the wheel must hand it out first on the next pop even though
        // its sequence number is older than other same-instant events.
        let mut wheel = TimerWheel::new();
        wheel.push(event(10, 1));
        wheel.push(event(10, 2));
        wheel.push(event(10, 3));
        let first = wheel.pop().unwrap();
        assert_eq!(key(&first), (10, 1));
        wheel.push(first);
        assert_eq!(key(&wheel.pop().unwrap()), (10, 1));
        assert_eq!(key(&wheel.pop().unwrap()), (10, 2));
        assert_eq!(key(&wheel.pop().unwrap()), (10, 3));
    }

    #[test]
    fn drained_at_rollover_boundaries() {
        // Events straddling exact 64^k boundaries exercise the cascade's
        // window arithmetic (slot 0 of the next higher-level rotation).
        let mut wheel = TimerWheel::new();
        let ats = [63, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145];
        for (i, &at) in ats.iter().enumerate() {
            wheel.push(event(at, i as u64 + 1));
        }
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop() {
            popped.push(e.at.as_micros());
        }
        let mut expected = ats.to_vec();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    #[test]
    fn list_mode_migrates_into_wheel_past_threshold() {
        // More than LIST_MAX live events forces the sorted-list fast path
        // to migrate into wheel slots; order must be seamless across the
        // regime change, including ties at the migration minimum.
        let mut wheel = TimerWheel::new();
        let mut expected = Vec::new();
        for seq in 1..=(LIST_MAX as u64 + 16) {
            let at = (seq * 37) % 11; // clustered, tie-heavy instants
            wheel.push(event(at, seq));
            expected.push((at, seq as u128));
        }
        expected.sort_unstable();
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop() {
            popped.push(key(&e));
        }
        assert_eq!(popped, expected);
    }

    /// Interleaved script against the reference heap; `at` deltas are drawn
    /// from boundary-rich ranges, pops interleave with pushes, and popped
    /// events are occasionally pushed back (run-slice deadline pattern).
    fn run_oracle(script: &[(u8, u64)]) {
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut clock = 0u64; // max at popped so far; pushes never go below
        for &(op, delta) in script {
            match op {
                // push at clock + delta
                0..=5 => {
                    seq += 1;
                    let at = clock + delta;
                    wheel.push(event(at, seq));
                    heap.push(Reverse(event(at, seq)));
                }
                // pop from both, compare
                6..=8 => {
                    let w = wheel.pop();
                    let h = heap.pop().map(|Reverse(e)| e);
                    assert_eq!(w.as_ref().map(key), h.as_ref().map(key));
                    if let Some(e) = &w {
                        clock = clock.max(e.at.as_micros());
                    }
                }
                // pop then push back (deadline pattern), compare
                _ => {
                    let w = wheel.pop();
                    let h = heap.pop().map(|Reverse(e)| e);
                    assert_eq!(w.as_ref().map(key), h.as_ref().map(key));
                    if let (Some(we), Some(he)) = (w, h) {
                        clock = clock.max(we.at.as_micros());
                        wheel.push(we);
                        heap.push(Reverse(he));
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        // Drain both completely.
        loop {
            let w = wheel.pop();
            let h = heap.pop().map(|Reverse(e)| e);
            assert_eq!(w.as_ref().map(key), h.as_ref().map(key));
            if w.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wheel_matches_heap_on_arbitrary_scripts(
            script in proptest::collection::vec(
                (0u8..10, prop_oneof![
                    0u64..4,              // same-instant ties
                    60u64..70,            // level-0/1 boundary
                    4_090u64..4_102,      // level-1/2 boundary
                    1u64..100_000,        // general small delays
                    (1u64 << 36) - 5..(1u64 << 36) + 5, // wheel horizon
                    (1u64 << 37)..(1u64 << 38), // deep overflow
                ]),
                0..120,
            )
        ) {
            run_oracle(&script);
        }

        #[test]
        fn wheel_matches_heap_on_dense_same_instant_bursts(
            script in proptest::collection::vec((0u8..10, 0u64..3), 0..200)
        ) {
            run_oracle(&script);
        }
    }
}
