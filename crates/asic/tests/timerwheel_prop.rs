//! Property test: the hierarchical timer wheel dequeues in exactly the
//! same `(at, key)` order as a reference `BinaryHeap`, under arbitrary
//! interleavings of pushes (near, far, past-cursor, beyond the wheel
//! horizon, and bursts at the cursor tick) and pops.

use ht_asic::timerwheel::TimerWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Picoseconds per wheel tick.
const TICK: u64 = 1 << 12;

/// The wheel under test beside its oracle.  Every item carries its own
/// `(at, key)`, so a payload swapped between two nodes fails the pop check.
struct Pair {
    wheel: TimerWheel<(u64, u64), u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    key: u64,
    /// Latest `at` popped or peeked: the wheel cursor lies in its tick.
    cursor_at: u64,
}

impl Pair {
    fn push(&mut self, at: u64) {
        self.key += 1;
        self.wheel.push(at, self.key, (at, self.key));
        self.heap.push(Reverse((at, self.key)));
    }

    fn pop(&mut self) {
        let expect = self.heap.pop().map(|Reverse(e)| e);
        let got = self.wheel.pop();
        if let Some((at, key, item)) = got {
            assert_eq!(item, (at, key), "payload does not match its key");
            self.cursor_at = self.cursor_at.max(at);
        }
        assert_eq!(got.map(|(at, key, _)| (at, key)), expect, "pop diverged");
    }

    /// `n` pushes inside the cursor tick or before it.  With `near` empty
    /// they park in the cursor's level-0 slot; otherwise each is a sorted
    /// insert into `near`.
    fn burst(&mut self, n: u8, mut raw: u64) {
        for _ in 0..n {
            raw =
                raw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let at = if raw >> 63 == 0 {
                (self.cursor_at & !(TICK - 1)) + (raw >> 32) % TICK
            } else {
                self.cursor_at.saturating_sub((raw >> 32) % (64 * TICK))
            };
            self.push(at);
        }
    }

    /// Pops every event of the cursor tick, which leaves `near` empty.
    fn drain_cursor_tick(&mut self) {
        while self.heap.peek().is_some_and(|Reverse((at, _))| at / TICK <= self.cursor_at / TICK) {
            self.pop();
        }
    }

    /// `len` always; with `peek_each`, also that `peek` (and
    /// `peek_min_at`) name exactly the entry the oracle pops next.  Peeking
    /// settles the wheel, so it steers later cursor-tick pushes away from
    /// parking; scripts therefore run both with and without it.
    fn check(&mut self, peek_each: bool) {
        assert_eq!(self.wheel.len(), self.heap.len(), "len diverged");
        if peek_each {
            let expect = self.heap.peek().map(|&Reverse((at, key))| (at, key, (at, key)));
            let got = self.wheel.peek().map(|(at, &key, &item)| (at, key, item));
            assert_eq!(got, expect, "peek diverged");
            assert_eq!(self.wheel.peek_min_at(), expect.map(|e| e.0), "peek_min_at diverged");
            self.cursor_at = self.cursor_at.max(got.map_or(0, |e| e.0));
        }
    }
}

/// Runs one script of `(op, raw, shift)` operations: pushes whose `shift`
/// spreads the arrival times across every wheel level (and past the
/// 2^48 ps horizon into the overflow heap), pops, bursts at the cursor tick
/// with `near` as left by the previous operation, and bursts after
/// draining the cursor tick, so that they park.
fn apply_ops(ops: &[(u8, u64, u8)], peek_each: bool) {
    let mut p = Pair { wheel: TimerWheel::new(), heap: BinaryHeap::new(), key: 0, cursor_at: 0 };
    for &(op, raw, shift) in ops {
        match op % 8 {
            0..=3 => p.push(raw & ((1u64 << (shift % 60)) - 1).max(1)),
            4 | 5 => p.pop(),
            6 => p.burst(shift % 32 + 1, raw),
            _ => {
                p.drain_cursor_tick();
                p.burst(shift % 32 + 1, raw);
            }
        }
        p.check(peek_each);
    }
    // Drain the remainder: full order must agree.
    while !p.heap.is_empty() {
        p.pop();
        p.check(peek_each);
    }
    assert!(p.wheel.is_empty());
    assert_eq!(p.wheel.pop(), None);
}

proptest! {
    /// Wheel and heap agree on every pop, peek and length across random
    /// interleavings.
    #[test]
    fn wheel_matches_heap_order(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..400),
    ) {
        apply_ops(&ops, false);
        apply_ops(&ops, true);
    }
}
