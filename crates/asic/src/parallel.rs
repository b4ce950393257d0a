//! Partitioned event engines synchronized by conservative lookahead.
//!
//! A topology whose device groups are separated by *nonzero-delay* links
//! can run as independent event engines: a packet crossing a link with
//! delay `d` sent while the sender is at time `t` arrives at `t + d`, so
//! an engine may safely process every event up to
//! `min over in-neighbors n of (commit(n) + delay(n→me))` — the
//! *lookahead horizon* — without ever seeing an event out of order.  The
//! classic Chandy–Misra–Bryant argument gives both safety (an engine that
//! committed `c` has processed everything `≤ c` and every later send
//! arrives strictly after `c + d`) and progress (the minimum-commit engine
//! always has a horizon strictly above its commit, so commits strictly
//! increase until `t_end`).
//!
//! The protocol is barrier-free: each engine loops
//! *snapshot neighbor commits → drain inboxes → process to horizon →
//! flush sends → publish commit*, with the commit stored `Release` after
//! the sends so a peer that observes the commit also observes every
//! message it covers.  Cross-engine packets travel through bounded
//! per-(sender, receiver) channels (single producer, single consumer by
//! construction); a sender facing a full channel drains its own inboxes
//! while it waits, so a cycle of full channels cannot deadlock.
//!
//! Each engine is an `EventLoop` (the private `evloop` module) — the same
//! pop → window → dispatch → flush code the serial world runs — so "process
//! to horizon" is `step_batch(u64::MAX, horizon)` in a loop and engines
//! batch same-instant bursts and lookahead windows exactly as a serial run
//! does.  This module adds only the protocol around that loop; it never
//! pops an event for dispatch or assigns an event key itself.
//!
//! Determinism: the event key ([`crate::sim::EvKey`]) is a pure
//! function of each device's behavior, never of engine interleaving, so
//! the partitioned pop order per device group equals the serial order and
//! results are bit-for-bit identical at any engine count.
//!
//! **Partitioning policy** (see `try_run_until`): zero-delay links merge
//! their endpoints into one group (no lookahead across them); any link
//! with faults (loss, corruption, jitter) pins the whole world to the
//! serial loop, because fault decisions consume the world's single RNG in
//! global event order; one resulting group, one granted thread, or an
//! empty horizon likewise fall back to the serial loop.

use crate::evloop::{EventLoop, Scheduled};
use crate::sim::{metrics, SimThreads};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The process-wide engine-thread pool shared by experiment-level and
/// engine-level parallelism.
///
/// `htctl --sim-threads N` configures `N - 1` *extra* tokens; a world
/// built with [`SimThreads::Auto`] acquires up to `groups - 1` tokens for
/// the duration of one `run_until` and releases them afterwards, so
/// concurrently running experiments share one budget instead of
/// oversubscribing the machine.  [`SimThreads::Fixed`] bypasses the pool
/// (the caller asked for an exact engine count).
pub mod budget {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static EXTRA: AtomicUsize = AtomicUsize::new(0);

    /// Sets the number of extra engine threads available process-wide
    /// (`--sim-threads N` ⇒ `N - 1`).  Zero (the default) keeps every
    /// `Auto` world serial.
    pub fn configure(extra: usize) {
        EXTRA.store(extra, Ordering::SeqCst);
    }

    /// Extra engine threads currently unclaimed.
    pub fn available() -> usize {
        EXTRA.load(Ordering::SeqCst)
    }

    /// Claims up to `want` tokens, returning how many were granted.
    pub(crate) fn try_acquire(want: usize) -> usize {
        let mut cur = EXTRA.load(Ordering::SeqCst);
        loop {
            let take = want.min(cur);
            if take == 0 {
                return 0;
            }
            match EXTRA.compare_exchange(cur, cur - take, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return take,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns `n` previously claimed tokens to the pool.
    pub(crate) fn release(n: usize) {
        if n > 0 {
            EXTRA.fetch_add(n, Ordering::SeqCst);
        }
    }
}

/// Soft bound on queued messages per cross-engine channel; a sender seeing
/// the channel at capacity waits (draining its own inboxes) until the
/// receiver catches up.
const CHAN_CAP: usize = 1 << 16;
/// Sends buffered per target before they are published mid-horizon.
const FLUSH_BATCH: usize = 256;

/// Read-mostly state shared by all engines of one partitioned run.
struct Shared {
    /// Committed time per engine: everything `≤ commits[e]` is processed
    /// and flushed.  `u64::MAX` once the engine exits.
    commits: Vec<AtomicU64>,
    /// `chan[to][from]`: single-producer single-consumer queues of
    /// deliveries crossing engines.  The key travels with the event, so
    /// the receiver's queue reproduces the serial pop order.
    chan: Vec<Vec<Mutex<VecDeque<Scheduled>>>>,
    /// `in_delay[to][from]`: minimum delay of any link from engine `from`
    /// into engine `to`; `SimTime::MAX` when no such link exists.
    in_delay: Vec<Vec<SimTime>>,
    t_end: SimTime,
}

impl Shared {
    fn channel(&self, to: usize, from: usize) -> std::sync::MutexGuard<'_, VecDeque<Scheduled>> {
        self.chan[to][from].lock().expect("an engine panicked holding a channel")
    }
}

/// Moves every pending inbox message into the engine's queue.  Returns
/// whether anything arrived.
fn drain_inboxes(e: &mut EventLoop, sh: &Shared) -> bool {
    let me = e.engine_id();
    let mut any = false;
    for from in 0..sh.chan.len() {
        if from == me || sh.in_delay[me][from] == SimTime::MAX {
            continue;
        }
        for ev in sh.channel(me, from).drain(..) {
            e.enqueue(ev);
            any = true;
        }
    }
    any
}

/// Appends every send buffer holding at least `min_len` events to its
/// target's channel, waiting (and draining our own inboxes, to stay
/// deadlock-free) while a channel is at capacity.  Only called between
/// `step_batch` calls, never inside one.
fn publish(e: &mut EventLoop, sh: &Shared, min_len: usize) {
    let me = e.engine_id();
    for target in 0..sh.chan.len() {
        if e.sends_mut(target).len() < min_len {
            continue;
        }
        loop {
            {
                let mut ch = sh.channel(target, me);
                if ch.len() < CHAN_CAP {
                    ch.extend(e.sends_mut(target).drain(..));
                    break;
                }
            }
            drain_inboxes(e, sh);
            std::thread::yield_now();
        }
    }
}

/// Publishes `u64::MAX` as the engine's commit when the engine leaves its
/// loop — normally or by unwinding — so peers never spin on a dead engine.
struct CommitGuard<'a>(&'a AtomicU64);

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// The engine worker loop: the barrier-free horizon protocol.
fn run_engine(e: &mut EventLoop, sh: &Shared) {
    let me = e.engine_id();
    let _guard = CommitGuard(&sh.commits[me]);
    loop {
        // 1. Snapshot in-neighbor commits (Acquire pairs with their
        //    post-flush Release store, so observing a commit implies
        //    observing every message it covers).
        let mut horizon = sh.t_end;
        let mut all_done = true;
        for n in 0..sh.commits.len() {
            if n == me {
                continue;
            }
            let d = sh.in_delay[me][n];
            if d == SimTime::MAX {
                continue;
            }
            let c = sh.commits[n].load(Ordering::Acquire);
            if c < sh.t_end {
                all_done = false;
            }
            horizon = horizon.min(c.saturating_add(d));
        }
        // 2. Ingest everything those commits cover.
        let mut progress = drain_inboxes(e, sh);
        // 3. Process local events up to the horizon (inclusive: a
        //    neighbor's later sends arrive strictly after commit + delay),
        //    batched exactly as the serial loop batches them.
        while e.peek_min_at().is_some_and(|at| at <= horizon) {
            e.step_batch(u64::MAX, horizon);
            publish(e, sh, FLUSH_BATCH);
            progress = true;
        }
        // 4. Publish the remaining sends, then the commit.
        publish(e, sh, 1);
        let prev = sh.commits[me].load(Ordering::Relaxed);
        if horizon > prev {
            sh.commits[me].store(horizon, Ordering::Release);
        }
        // 5. Exit once every in-neighbor had committed t_end *before* the
        //    drain above — no event ≤ t_end can still be in flight to us.
        if horizon >= sh.t_end && all_done {
            return;
        }
        if !progress {
            std::thread::yield_now();
        }
    }
}

/// Disjoint-set find with path halving.
fn find(dsu: &mut [usize], mut x: usize) -> usize {
    while dsu[x] != x {
        dsu[x] = dsu[dsu[x]];
        x = dsu[x];
    }
    x
}

/// Attempts to run a world's event loop `core` partitioned until `t_end`.
/// Returns the events processed, or `None` when the serial fallback applies
/// (see the module docs for the policy).
pub(crate) fn try_run_until(
    core: &mut EventLoop,
    threads: SimThreads,
    t_end: SimTime,
) -> Option<u64> {
    let want = match threads {
        SimThreads::Fixed(n) => n,
        SimThreads::Auto => usize::MAX,
    };
    let n_dev = core.device_count();
    if want <= 1 || n_dev < 2 || core.has_faulty_links() {
        return None;
    }
    match core.peek_min_at() {
        Some(at) if at <= t_end => {}
        _ => return None, // nothing to do before t_end
    }

    // Contract zero-delay links: no lookahead exists across them.
    let mut dsu: Vec<usize> = (0..n_dev).collect();
    for (a, l) in core.links() {
        if l.delay == 0 {
            let (ra, rb) = (find(&mut dsu, a), find(&mut dsu, l.peer.0));
            dsu[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut group_of = vec![usize::MAX; n_dev];
    let mut n_groups = 0;
    for d in 0..n_dev {
        let r = find(&mut dsu, d);
        if group_of[r] == usize::MAX {
            group_of[r] = n_groups;
            n_groups += 1;
        }
        group_of[d] = group_of[r];
    }
    if n_groups < 2 {
        return None;
    }

    // Resolve the engine count, drawing from the shared pool under Auto.
    let (n_eng, from_pool) = match threads {
        SimThreads::Fixed(n) => (n.min(n_groups), 0),
        SimThreads::Auto => {
            let got = budget::try_acquire(n_groups - 1);
            (1 + got, got)
        }
    };
    if n_eng < 2 {
        budget::release(from_pool);
        return None;
    }

    // LPT: biggest groups first onto the least-loaded engine.  The
    // assignment only affects speed — the event key is partition-
    // independent, so any assignment yields identical results.
    let mut g_size = vec![0usize; n_groups];
    for d in 0..n_dev {
        g_size[group_of[d]] += 1;
    }
    let mut order: Vec<usize> = (0..n_groups).collect();
    order.sort_by_key(|&g| (std::cmp::Reverse(g_size[g]), g));
    let mut load = vec![0usize; n_eng];
    let mut eng_of_group = vec![0u32; n_groups];
    for g in order {
        let e = (0..n_eng).min_by_key(|&e| (load[e], e)).expect("n_eng >= 2");
        eng_of_group[g] = e as u32;
        load[e] += g_size[g];
    }
    let dev_engine: Vec<u32> = (0..n_dev).map(|d| eng_of_group[group_of[d]]).collect();

    // Minimum directed cross-engine delay (every cross link has delay > 0
    // — zero-delay links were contracted into one group).
    let mut in_delay = vec![vec![SimTime::MAX; n_eng]; n_eng];
    for (a, l) in core.links() {
        let (ea, eb) = (dev_engine[a] as usize, dev_engine[l.peer.0] as usize);
        if ea != eb {
            let d = &mut in_delay[eb][ea];
            *d = (*d).min(l.delay);
        }
    }

    let shared = Shared {
        commits: (0..n_eng).map(|_| AtomicU64::new(core.now())).collect(),
        chan: (0..n_eng)
            .map(|_| (0..n_eng).map(|_| Mutex::new(VecDeque::new())).collect())
            .collect(),
        in_delay,
        t_end,
    };

    // One event loop per engine, each on its own thread.  A thread hands
    // back, with its loop, the profile counters its devices recorded in
    // that thread's cells.
    let engines = core.partition(&dev_engine, n_eng);
    let engines: Vec<EventLoop> = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = engines
            .into_iter()
            .map(|mut e| {
                s.spawn(move || {
                    run_engine(&mut e, shared);
                    (e, metrics::profile_snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (e, profile) = h.join().expect("engine thread panicked");
                metrics::absorb_engine_thread(&profile);
                e
            })
            .collect()
    });
    budget::release(from_pool);

    let total = core.reassemble(engines);
    // Channel residue: deliveries beyond t_end sent after the receiver
    // exited (protocol invariant: anything ≤ t_end was consumed).
    for ch in shared.chan.into_iter().flatten() {
        for ev in ch.into_inner().expect("an engine panicked holding a channel") {
            debug_assert!(ev.0 > t_end, "in-flight event within the horizon");
            core.enqueue(ev);
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_acquire_is_clamped_and_released() {
        // Single test touching the global pool (the suite runs tests
        // concurrently; other tests use SimThreads::Fixed, which bypasses
        // it).
        budget::configure(3);
        assert_eq!(budget::available(), 3);
        assert_eq!(budget::try_acquire(2), 2);
        assert_eq!(budget::try_acquire(5), 1);
        assert_eq!(budget::try_acquire(1), 0);
        budget::release(3);
        assert_eq!(budget::available(), 3);
        budget::configure(0);
    }

    #[test]
    fn find_contracts_chains() {
        let mut dsu = vec![0, 0, 1, 3];
        assert_eq!(find(&mut dsu, 2), 0);
        assert_eq!(find(&mut dsu, 3), 3);
    }
}
