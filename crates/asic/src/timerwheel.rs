//! A hierarchical timer wheel for the discrete-event queue.
//!
//! The simulation schedules almost every event a few hundred nanoseconds
//! into the future (recirculation RTTs, serialization delays, link
//! propagation), so a comparison-based priority queue pays `O(log n)` per
//! event for ordering information the timestamps' structure already gives
//! away.  The wheel buckets events by their arrival *tick* (2^12 ps ≈ 4 ns)
//! across `LEVELS` levels of `SLOTS` slots each — level `l` slot spans
//! `2^(12+6l)` ps — and keeps per-level occupancy bitmasks, so advancing to
//! the next event is a couple of `trailing_zeros` instructions.  Events
//! beyond the wheel horizon (2^48 ps ≈ 281 s) overflow into a fallback
//! binary heap and migrate in as the horizon advances.
//!
//! Storage follows the live events, not the history of each slot: a slot
//! is a `u32` head of a list linking nodes of one pool (a `Vec` plus a free
//! list), a cascade relinks nodes without copying them, and the pool never
//! holds more nodes than the queue's peak depth.
//!
//! Ordering is `(at, key)` for a caller-chosen tie-break key `K: Ord` —
//! the world's schedule-independent [`EvKey`](crate::sim::EvKey) in
//! production, a plain insertion sequence (`u64`, the default) in tests:
//! events of the tick currently being served drain into a small "near"
//! buffer — a `Vec` kept sorted descending, so the minimum pops from the
//! back without heap sift machinery — and same-instant events still pop in
//! key order, keeping every run bit-for-bit deterministic.  A push at or
//! before the cursor tick while `near` is empty *parks* in the cursor's
//! own level-0 slot, so a burst (the pre-run injections) costs one sort
//! rather than one sorted insert per event.  A property test
//! (`crates/asic/tests/timerwheel_prop.rs`) checks the equivalence against
//! a reference heap under arbitrary push/pop interleavings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Bitmask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// log2 of the tick length in the caller's time unit (picoseconds here):
/// 2^12 ps = 4.096 ns, comfortably under the 6.4 ns minimal template
/// inter-arrival, so a tick rarely holds more than a handful of events.
const TICK_BITS: u32 = 12;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;
/// Most entries the wheel slots can hold at once: node indices are `u32`
/// and `NIL` is reserved.
const MAX_NODES: usize = NIL as usize - 1;

/// One queued entry: the priority key `(at, key)`, the payload, and the
/// index of the next node in its slot list or the free list (meaningless
/// in `near` and `overflow`).
#[derive(Debug, Clone, Copy)]
struct Entry<T, K> {
    at: u64,
    key: K,
    item: T,
    next: u32,
}

impl<T, K: Ord> PartialEq for Entry<T, K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<T, K: Ord> Eq for Entry<T, K> {}
impl<T, K: Ord> PartialOrd for Entry<T, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, K: Ord> Ord for Entry<T, K> {
    /// Reversed comparison so a max-`BinaryHeap` pops the *smallest*
    /// `(at, key)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, &other.key).cmp(&(self.at, &self.key))
    }
}

#[derive(Debug)]
struct Level {
    /// Bitmask of non-empty slots.
    occupied: u64,
    /// Each slot's first node, `NIL` when empty.
    heads: [u32; SLOTS],
}

const EMPTY_LEVEL: Level = Level { occupied: 0, heads: [NIL; SLOTS] };

/// A hierarchical timer wheel ordered by `(at, key)`, with a heap fallback
/// for events beyond the wheel horizon.
#[derive(Debug)]
pub struct TimerWheel<T, K = u64> {
    levels: [Level; LEVELS],
    /// Every entry held in a wheel slot; freed nodes chain from `free`.
    nodes: Vec<Entry<T, K>>,
    free: u32,
    /// Events of ticks `<= elapsed_tick`, kept sorted *descending* by
    /// `(at, key)` so the minimum pops from the back in O(1).
    near: Vec<Entry<T, K>>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Entry<T, K>>,
    /// Tick of the slot currently being served; the wheel cursor.
    elapsed_tick: u64,
    len: usize,
    peak: usize,
}

impl<T: Copy, K: Copy + Ord> Default for TimerWheel<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, K: Copy + Ord> TimerWheel<T, K> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            levels: [EMPTY_LEVEL; LEVELS],
            nodes: Vec::new(),
            free: NIL,
            near: Vec::new(),
            overflow: BinaryHeap::new(),
            elapsed_tick: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest number of events ever queued at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Queues `item` with priority `(at, key)`.  `key` must be unique
    /// across live entries of the same `at` (the world's event key).
    ///
    /// # Panics
    ///
    /// When the wheel slots would hold more than `u32::MAX - 1` entries at
    /// once (node indices are `u32`).
    pub fn push(&mut self, at: u64, key: K, item: T) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.insert(Entry { at, key, item, next: NIL });
    }

    /// Removes and returns the minimum-`(at, key)` entry.
    pub fn pop(&mut self) -> Option<(u64, K, T)> {
        if !self.settle() {
            return None;
        }
        let e = self.near.pop().expect("settle guarantees a near event");
        self.len -= 1;
        Some((e.at, e.key, e.item))
    }

    /// The `at` of the next entry [`pop`](Self::pop) would return, without
    /// removing it.  (Advances internal cursors; ordering is unaffected.)
    pub fn peek_min_at(&mut self) -> Option<u64> {
        if self.settle() {
            self.near.last().map(|e| e.at)
        } else {
            None
        }
    }

    /// The full `(at, key, item)` of the next entry [`pop`](Self::pop)
    /// would return, without removing it.  (Advances internal cursors;
    /// ordering is unaffected.)
    pub fn peek(&mut self) -> Option<(u64, &K, &T)> {
        if self.settle() {
            self.near.last().map(|e| (e.at, &e.key, &e.item))
        } else {
            None
        }
    }

    fn tick_of(at: u64) -> u64 {
        at >> TICK_BITS
    }

    /// Inserts into the descending-sorted near buffer.  Near holds only the
    /// events of a single tick (a handful at most), so the linear shift is
    /// cheaper than heap sifts.
    fn push_near(near: &mut Vec<Entry<T, K>>, e: Entry<T, K>) {
        let key = (e.at, &e.key);
        let idx = near.partition_point(|x| (x.at, &x.key) > key);
        near.insert(idx, e);
    }

    /// `(level, slot)` for an entry at `at`; a level `>= LEVELS` is past
    /// the horizon.  The highest bit where the tick differs from the cursor
    /// picks the level: events sharing all upper bits with the cursor go
    /// low.  A tick at or before the cursor parks in the cursor's own
    /// level-0 slot, which no later tick maps to and which, when occupied,
    /// is the next slot to expire.
    fn slot_of(&self, at: u64) -> (usize, usize) {
        let tick = Self::tick_of(at).max(self.elapsed_tick);
        let masked = (tick ^ self.elapsed_tick) | SLOT_MASK;
        let level = ((63 - masked.leading_zeros()) / SLOT_BITS) as usize;
        (level, ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize)
    }

    /// Routes an entry to the near buffer (only while it is non-empty), a
    /// wheel slot, or the overflow heap.
    fn insert(&mut self, e: Entry<T, K>) {
        if Self::tick_of(e.at) <= self.elapsed_tick && !self.near.is_empty() {
            Self::push_near(&mut self.near, e);
            return;
        }
        let (level, slot) = self.slot_of(e.at);
        if level >= LEVELS {
            self.overflow.push(e);
            return;
        }
        // Reuse a free node; grow the pool only when none is left.
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.nodes[idx as usize], e).next;
            idx
        } else {
            assert!(
                self.nodes.len() < MAX_NODES,
                "timer wheel slots hold at most u32::MAX - 1 = {MAX_NODES} entries"
            );
            self.nodes.push(e);
            (self.nodes.len() - 1) as u32
        };
        self.link(idx, level, slot);
    }

    /// Prepends node `idx` to the list of `slot` on `level`.
    fn link(&mut self, idx: u32, level: usize, slot: usize) {
        let l = &mut self.levels[level];
        self.nodes[idx as usize].next = l.heads[slot];
        l.heads[slot] = idx;
        l.occupied |= 1 << slot;
    }

    /// The lowest occupied level's next slot: `(level, slot, start tick)`.
    ///
    /// Within a level, every occupied slot index is strictly greater than
    /// the cursor's slot index (a wrapped-around slot would differ from the
    /// cursor in a higher bit and live on a higher level) — bar the parked
    /// cursor slot on level 0 — so the earliest slot is simply the lowest
    /// set occupancy bit, and the lowest occupied level always precedes
    /// every higher level.
    fn next_expiration(&self) -> Option<(usize, usize, u64)> {
        for (level, l) in self.levels.iter().enumerate() {
            if l.occupied != 0 {
                let slot = l.occupied.trailing_zeros() as u64;
                let shift = SLOT_BITS * level as u32;
                let span_mask = (1u64 << (shift + SLOT_BITS)) - 1;
                let tick = (self.elapsed_tick & !span_mask) | (slot << shift);
                return Some((level, slot as usize, tick));
            }
        }
        None
    }

    /// Advances cursors/cascades until the global minimum entry sits in the
    /// near buffer.  Returns `false` when the wheel is empty.
    fn settle(&mut self) -> bool {
        loop {
            if !self.near.is_empty() {
                return true;
            }
            let exp = self.next_expiration();
            // Migrate overflow entries that now precede (or tie) the
            // wheel's next slot; they re-insert within the horizon.
            if let Some(o) = self.overflow.peek() {
                // (Empty on the hot path: the peek above compiles to a
                // length check, so the migration logic costs nothing.)
                let due = match exp {
                    Some((_, _, tick)) => Self::tick_of(o.at) <= tick,
                    None => true,
                };
                if due {
                    if exp.is_none() {
                        // Wheel empty: jump the cursor straight to the
                        // overflow minimum so it parks at the cursor.
                        self.elapsed_tick = self.elapsed_tick.max(Self::tick_of(o.at));
                    }
                    // Migrate everything up to the bound tick (the next
                    // slot, or the new cursor when the wheel was empty);
                    // later overflow entries wait for the horizon.
                    let bound = match exp {
                        Some((_, _, tick)) => tick,
                        None => self.elapsed_tick,
                    };
                    while let Some(o) = self.overflow.peek() {
                        if Self::tick_of(o.at) > bound {
                            break;
                        }
                        let e = self.overflow.pop().expect("peeked");
                        self.insert(e);
                    }
                    continue;
                }
            }
            let Some((level, slot, tick)) = exp else {
                return false;
            };
            self.elapsed_tick = tick;
            let l = &mut self.levels[level];
            l.occupied &= !(1 << slot);
            let mut idx = std::mem::replace(&mut l.heads[slot], NIL);
            if level == 0 {
                // A level-0 slot holds exactly one tick — the new cursor
                // tick — so its nodes become the near buffer and return to
                // the free list.  Sort once (Entry's reversed Ord →
                // descending `(at, key)`).
                while idx != NIL {
                    let node = self.nodes[idx as usize];
                    self.near.push(node);
                    self.nodes[idx as usize].next = self.free;
                    self.free = idx;
                    idx = node.next;
                }
                self.near.sort_unstable();
            } else {
                // Higher-level nodes cascade strictly downward, or park in
                // the cursor's level-0 slot: relinked, not copied.
                while idx != NIL {
                    let Entry { at, next, .. } = self.nodes[idx as usize];
                    let (level, slot) = self.slot_of(at);
                    self.link(idx, level, slot);
                    idx = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_at_key_order() {
        let mut w = TimerWheel::new();
        w.push(5_000, 2u64, "b");
        w.push(5_000, 1, "a");
        w.push(100, 3, "first");
        w.push(10_000_000, 4, "late");
        assert_eq!(w.pop(), Some((100, 3, "first")));
        assert_eq!(w.pop(), Some((5_000, 1, "a")));
        assert_eq!(w.pop(), Some((5_000, 2, "b")));
        assert_eq!(w.pop(), Some((10_000_000, 4, "late")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        for (i, at) in [7u64, 70_000, 3, 9_999_999_999].into_iter().enumerate() {
            w.push(at, i as u64, at);
        }
        while let Some(at) = w.peek_min_at() {
            let (got, _, item) = w.pop().unwrap();
            assert_eq!(at, got);
            assert_eq!(item, got);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_beyond_horizon_still_orders() {
        let mut w = TimerWheel::new();
        let far = 1u64 << 55; // past the 2^48 ps wheel horizon
        w.push(far, 1u64, "far");
        w.push(far - 1, 2, "near-far");
        w.push(64, 3, "soon");
        assert_eq!(w.pop(), Some((64, 3, "soon")));
        assert_eq!(w.pop(), Some((far - 1, 2, "near-far")));
        assert_eq!(w.pop(), Some((far, 1, "far")));
    }

    #[test]
    fn interleaved_push_pop_after_advance() {
        let mut w = TimerWheel::new();
        w.push(1_000_000, 1u64, 1u32);
        assert_eq!(w.pop(), Some((1_000_000, 1, 1)));
        // Push "in the past" relative to the cursor: pops immediately.
        w.push(500, 2, 2);
        w.push(2_000_000, 3, 3);
        assert_eq!(w.pop(), Some((500, 2, 2)));
        assert_eq!(w.pop(), Some((2_000_000, 3, 3)));
    }

    #[test]
    fn peak_depth_tracks_maximum() {
        let mut w = TimerWheel::new();
        for i in 0..10 {
            w.push(i * 100, i, i);
        }
        for _ in 0..10 {
            w.pop();
        }
        w.push(1, 11, 11);
        assert_eq!(w.peak_len(), 10);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn node_pool_stays_within_peak_depth() {
        // The `linerate_64b` shape: 4 ports send 64 B frames 6.72 ns apart,
        // ~7 000 deliveries stay queued, their port backlogs staggered
        // 0–1 ms ahead, and each pop re-queues its port's next frame.
        // Served for over two level-2 rotations (2 × 1.07 ms), per-slot
        // buffers would keep every slot's high-water mark; the pool must
        // stay at the live depth.
        const GAP: u64 = 6_720;
        const PER_PORT: u64 = 1_750;
        let mut w: TimerWheel<usize, u64> = TimerWheel::new();
        let mut next = [0, 329_000_000, 658_000_000, 987_000_000];
        let mut key = 0;
        for (port, t) in next.iter_mut().enumerate() {
            for _ in 0..PER_PORT {
                w.push(*t, key, port);
                key += 1;
                *t += GAP;
            }
        }
        let mut last = 0;
        while w.elapsed_tick << TICK_BITS < 2_200_000_000 {
            let (at, _, port) = w.pop().expect("the queue stays full");
            assert!(at >= last, "popped {at} after {last}");
            last = at;
            w.push(next[port], key, port);
            key += 1;
            next[port] += GAP;
            assert!(
                w.nodes.len() <= w.peak_len(),
                "pool {} > peak {}",
                w.nodes.len(),
                w.peak_len()
            );
        }
        assert_eq!(w.peak_len(), 4 * PER_PORT as usize);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        // The production key is a struct; any `Ord` key must tie-break.
        let mut w: TimerWheel<&str, (u64, u32)> = TimerWheel::new();
        w.push(1_000, (5, 2), "later-src");
        w.push(1_000, (5, 1), "earlier-src");
        w.push(1_000, (4, 9), "earlier-birth");
        assert_eq!(w.pop(), Some((1_000, (4, 9), "earlier-birth")));
        assert_eq!(w.pop(), Some((1_000, (5, 1), "earlier-src")));
        assert_eq!(w.pop(), Some((1_000, (5, 2), "later-src")));
    }
}
