//! Thread-local slab recycling for per-packet allocations.
//!
//! Every packet in flight owns a PHV — a `Vec<u64>` of field slots — and
//! the simulator clones one per template copy, per multicast replica, and
//! per recirculation hop.  With a global allocator that is one
//! malloc/free pair per packet on the hottest path of the whole simulator.
//! This module keeps a per-thread free list of retired slot buffers:
//! [`Phv`](crate::phv::Phv) buffers are drawn from the pool on
//! allocation/clone and returned on drop, so a steady-state simulation
//! world performs (almost) no allocator traffic per packet.
//!
//! A device is only ever driven by one thread at a time — the world's
//! thread, or the thread of the engine that owns it in a partitioned run —
//! so a plain `thread_local!` free list needs no locking; a buffer retired
//! on another thread than it was drawn on simply joins that thread's pool.
//! [`stats`] exposes hit/miss counters per thread so the optimization is
//! provable — the benchmark harness records them per experiment in
//! `BENCH.json`.  A partitioned run folds its engine threads' counters into
//! the owning thread's when the engines are joined.

use std::cell::{Cell, RefCell};

/// Upper bound on pooled buffers per thread; beyond it, retired buffers
/// fall back to the allocator (a world in teardown releases thousands at
/// once and the next world rarely needs them all).
const POOL_CAP: usize = 8192;

/// Allocation counters of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers created fresh from the allocator.
    pub allocs: u64,
    /// Buffers served from the thread-local free list.
    pub reuses: u64,
    /// Buffers returned to the free list on drop.
    pub returns: u64,
}

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REUSES: Cell<u64> = const { Cell::new(0) };
    static RETURNS: Cell<u64> = const { Cell::new(0) };
}

/// A zeroed buffer of exactly `len` slots, recycled when possible.
pub(crate) fn acquire(len: usize) -> Vec<u64> {
    if let Some(mut v) = POOL.with(|p| p.borrow_mut().pop()) {
        REUSES.with(|c| c.set(c.get() + 1));
        v.clear();
        v.resize(len, 0);
        return v;
    }
    ALLOCS.with(|c| c.set(c.get() + 1));
    vec![0; len]
}

/// A recycled buffer holding a copy of `src` (the clone path — skips the
/// zero fill [`acquire`] pays).
pub(crate) fn acquire_copy(src: &[u64]) -> Vec<u64> {
    if let Some(mut v) = POOL.with(|p| p.borrow_mut().pop()) {
        REUSES.with(|c| c.set(c.get() + 1));
        v.clear();
        v.extend_from_slice(src);
        return v;
    }
    ALLOCS.with(|c| c.set(c.get() + 1));
    src.to_vec()
}

/// Retires a buffer into the calling thread's free list.
pub(crate) fn release(v: Vec<u64>) {
    if v.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_CAP {
            RETURNS.with(|c| c.set(c.get() + 1));
            p.push(v);
        }
    });
}

/// Cumulative allocation counters of the calling thread.
pub fn stats() -> ArenaStats {
    ArenaStats {
        allocs: ALLOCS.with(Cell::get),
        reuses: REUSES.with(Cell::get),
        returns: RETURNS.with(Cell::get),
    }
}

/// Adds the counters an engine thread of a partitioned run accumulated to
/// the calling (owning) thread's.
pub(crate) fn absorb(engine: &ArenaStats) {
    ALLOCS.with(|c| c.set(c.get() + engine.allocs));
    REUSES.with(|c| c.set(c.get() + engine.reuses));
    RETURNS.with(|c| c.set(c.get() + engine.returns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_and_zeroes() {
        let before = stats();
        let mut a = acquire(8);
        a[3] = 77;
        release(a);
        let b = acquire(8);
        assert!(b.iter().all(|&x| x == 0), "recycled buffer must be zeroed");
        let after = stats();
        assert!(after.reuses > before.reuses || after.allocs > before.allocs);
    }

    #[test]
    fn resizes_across_lengths() {
        release(acquire(4));
        let v = acquire(9);
        assert_eq!(v.len(), 9);
        assert!(v.iter().all(|&x| x == 0));
    }
}
