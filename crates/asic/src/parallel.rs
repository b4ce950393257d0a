//! Partitioned event engines synchronized by conservative lookahead.
//!
//! A topology whose device groups are separated by *nonzero-delay* links
//! can run as independent event engines.  A device handling an event at
//! `t` emits nothing before `t + lookahead` (the [`Device::lookahead`]
//! contract) and the link then adds its delay, so with
//! `d = lookahead + delay` what an engine sends while at `t` arrives at
//! `t + d` or later.  Each engine publishes a *commit* `c`: every event it
//! owns strictly before `c` is processed, its sends are published, and no
//! such event will appear again.  (The bound is exclusive so that a world
//! starting at time 0 can say "nothing processed yet"; it is the inclusive
//! commit of the textbook protocol plus one.)  An engine may therefore run
//! every event strictly before
//! `min over in-neighbors n of (commit(n) + d(n→me))` — the *lookahead
//! horizon* — without ever seeing an event out of order.  The classic
//! Chandy–Misra–Bryant argument gives safety (what a neighbor committed at
//! `c` still sends comes from events at `≥ c`, so it arrives at or after
//! the horizon) and progress (`d ≥ 1`, so the engine with the lowest
//! commit always has a horizon strictly above it and either processes an
//! event or raises its commit; commits rise until they pass `t_end`).
//!
//! The protocol is barrier-free: each engine loops *snapshot neighbor
//! commits → drain inboxes → process to the horizon*, and **after every
//! batch** publishes all pending sends and then stores
//! `commit = min(horizon, next local event)` (`Release`, after the sends,
//! so a peer that observes the commit also observes every message it
//! covers).  That value is safe: every local event before the queue
//! minimum has been processed and flushed, and anything not yet drained
//! arrives at or after the horizon.  Committing per batch rather than once
//! per horizon is what lets neighbors overlap: a peer's horizon follows
//! this engine's progress batch by batch instead of waiting for it to
//! finish a whole round, after which the two would only ever alternate.
//! Cross-engine packets travel through bounded per-(sender, receiver)
//! channels (single producer, single consumer by construction); a sender
//! facing a full channel drains its own inboxes while it waits, so a cycle
//! of full channels cannot deadlock.
//!
//! Each engine is an `EventLoop` (the private `evloop` module) — the same
//! pop → window → dispatch → flush code the serial world runs — so "process
//! to the horizon" is `step_batch(u64::MAX, horizon − 1)` in a loop and
//! engines batch same-instant bursts and lookahead windows exactly as a
//! serial run does.  This module adds only the protocol around that loop;
//! it never pops an event for dispatch or assigns an event key itself.
//!
//! Determinism: the event key ([`crate::sim::EvKey`]) is a pure
//! function of each device's behavior, never of engine interleaving, so
//! the partitioned pop order per device group equals the serial order and
//! results are bit-for-bit identical at any engine count.
//!
//! **Partitioning policy** (see `try_run_until`): zero-delay links merge
//! their endpoints into one group (no lookahead across them); the groups
//! are laid out in depth-first order over the links that remain and cut
//! into contiguous chunks of about equal device count, one per engine, so
//! neighbors share an engine and few links cross (a ring of 8 on 2
//! engines cuts 2 links).  Any link with faults (loss, corruption, jitter)
//! pins the whole world to the serial loop, because fault decisions
//! consume the world's single RNG in global event order; one resulting
//! group, one granted thread, or nothing due before `t_end` likewise fall
//! back to the serial loop ([`SerialFallback`]).  [`World::last_partition`]
//! reports which of these happened.
//!
//! [`Device::lookahead`]: crate::sim::Device::lookahead
//! [`World::last_partition`]: crate::sim::World::last_partition

use crate::arena;
use crate::evloop::{EventLoop, Scheduled};
use crate::sim::{metrics, SimThreads};
use crate::time::SimTime;
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

/// Why a `run_until` stayed on the serial loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialFallback {
    /// The world was built for one engine (`SimThreads::Fixed(1)`, the
    /// default).
    OneEngine,
    /// Fewer than two device groups remain once zero-delay links are
    /// contracted: there is no lookahead to run on.
    OneGroup,
    /// A link draws from the fault RNG (loss, corruption or jitter), whose
    /// stream is defined by global event order.
    FaultyLinks,
    /// No event is scheduled at or before `t_end`.
    NothingDue,
    /// `SimThreads::Auto` found no token in the shared [`budget`] pool.
    NoPoolTokens,
}

/// One engine of a partitioned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Devices the engine owned.
    pub devices: usize,
    /// Events it processed.
    pub events: u64,
    /// Events it sent to other engines.
    pub sends: u64,
}

/// What the partitioner decided for one `run_until`
/// ([`World::last_partition`](crate::sim::World::last_partition)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionReport {
    /// The run used the serial loop.
    Serial(SerialFallback),
    /// The run was partitioned.
    Partitioned {
        /// Per engine, in engine order.
        engines: Vec<EngineReport>,
        /// Links whose two endpoints were owned by different engines.
        cut_links: usize,
    },
}

/// An engine's commit, alone on its cache line: its owner stores it once
/// per batch while every out-neighbor polls it.
#[repr(align(64))]
struct Commit(AtomicU64);

/// Read-mostly state shared by all engines of one partitioned run.
struct Shared {
    /// Per engine: every event it owns strictly before its commit is
    /// processed and its sends published.  `u64::MAX` once the engine
    /// exits.
    commits: Vec<Commit>,
    /// `chan[to][from]`: single-producer single-consumer queues of
    /// deliveries crossing engines.  The key travels with the event, so
    /// the receiver's queue reproduces the serial pop order.
    chan: Vec<Vec<Mutex<Vec<Scheduled>>>>,
    /// `in_delay[to][from]`: the least `lookahead(source device) + delay`
    /// over the links from engine `from` into engine `to`;
    /// `SimTime::MAX` when nothing can arrive that way.
    in_delay: Vec<Vec<SimTime>>,
    /// `t_end + 1`: where every commit stops.
    end: SimTime,
}

impl Shared {
    fn channel(&self, to: usize, from: usize) -> std::sync::MutexGuard<'_, Vec<Scheduled>> {
        self.chan[to][from].lock().expect("an engine panicked holding a channel")
    }
}

/// Moves every pending inbox message into the engine's queue.  The channel
/// is swapped against the (empty) `inbox` under the lock and enqueued
/// outside it, so a sender never waits on the receiver's wheel inserts.
/// Returns whether anything arrived.
fn drain_inboxes(e: &mut EventLoop, sh: &Shared, inbox: &mut Vec<Scheduled>) -> bool {
    let me = e.engine_id();
    let mut any = false;
    for from in 0..sh.chan.len() {
        if from == me || sh.in_delay[me][from] == SimTime::MAX {
            continue;
        }
        {
            let mut ch = sh.channel(me, from);
            if ch.is_empty() {
                continue;
            }
            std::mem::swap(&mut *ch, inbox);
        }
        any = true;
        for ev in inbox.drain(..) {
            e.enqueue(ev);
        }
    }
    any
}

/// Appends every pending send to its target's channel, waiting (and
/// draining our own inboxes, to stay deadlock-free) while a channel is at
/// capacity.  Only called between `step_batch` calls, never inside one.
/// Returns the number of events published.
fn publish(e: &mut EventLoop, sh: &Shared, inbox: &mut Vec<Scheduled>) -> u64 {
    let me = e.engine_id();
    let mut sent = 0;
    for target in 0..sh.chan.len() {
        if e.sends_mut(target).is_empty() {
            continue;
        }
        sent += e.sends_mut(target).len() as u64;
        loop {
            {
                let mut ch = sh.channel(target, me);
                if ch.len() < CHAN_CAP {
                    ch.append(e.sends_mut(target));
                    break;
                }
            }
            drain_inboxes(e, sh, inbox);
            std::thread::yield_now();
        }
    }
    sent
}

/// Publishes `u64::MAX` as the engine's commit when the engine leaves its
/// loop — normally or by unwinding — so peers never spin on a dead engine.
struct CommitGuard<'a>(&'a AtomicU64);

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// The engine worker loop: the barrier-free horizon protocol.  Returns the
/// number of events sent to other engines.
fn run_engine(e: &mut EventLoop, sh: &Shared) -> u64 {
    let me = e.engine_id();
    let commit = &sh.commits[me].0;
    let _guard = CommitGuard(commit);
    let mut inbox = Vec::new();
    let mut sent = 0;
    loop {
        // 1. Snapshot in-neighbor commits (Acquire pairs with their
        //    post-publish Release store, so observing a commit implies
        //    observing every message it covers).
        let mut horizon = sh.end;
        let mut all_done = true;
        for n in 0..sh.commits.len() {
            let d = sh.in_delay[me][n];
            if n == me || d == SimTime::MAX {
                continue;
            }
            let c = sh.commits[n].0.load(Ordering::Acquire);
            all_done &= c >= sh.end;
            horizon = horizon.min(c.saturating_add(d));
        }
        // 2. Ingest everything those commits cover.
        let mut progress = drain_inboxes(e, sh, &mut inbox);
        // 3. Process local events strictly before the horizon, batched
        //    exactly as the serial loop batches them.  After each batch
        //    publish its sends, then the commit: nothing local is left
        //    before the queue minimum, and whatever is not yet drained
        //    arrives at or after `horizon`.
        loop {
            let next = e.peek_min_at().unwrap_or(SimTime::MAX);
            let reached = horizon.min(next);
            if reached > commit.load(Ordering::Relaxed) {
                commit.store(reached, Ordering::Release);
            }
            if next >= horizon {
                break;
            }
            e.step_batch(u64::MAX, horizon - 1);
            sent += publish(e, sh, &mut inbox);
            progress = true;
        }
        // 4. Exit once every in-neighbor had passed `t_end` *before* the
        //    drain above (which also puts our own horizon there) — no
        //    event ≤ t_end can still be in flight to us.
        if all_done {
            return sent;
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

/// Assigns each group an engine: the groups in depth-first order over
/// `adj` (roots and neighbors in ascending id), cut into `n_eng` contiguous
/// chunks of about `n_dev / n_eng` devices.  Neighbors in the traversal are
/// neighbors in the topology, so a chunk boundary cuts few links.  The
/// assignment only affects speed — the event key is partition-independent,
/// so any assignment yields identical results.
fn assign_engines(adj: &[Vec<usize>], g_size: &[usize], n_eng: usize) -> Vec<u32> {
    let n_groups = adj.len();
    let n_dev: usize = g_size.iter().sum();
    let mut order = Vec::with_capacity(n_groups);
    let mut seen = vec![false; n_groups];
    let mut stack = Vec::new();
    for root in 0..n_groups {
        stack.push(root);
        while let Some(g) = stack.pop() {
            if !std::mem::replace(&mut seen[g], true) {
                order.push(g);
                stack.extend(adj[g].iter().rev().filter(|&&n| !seen[n]));
            }
        }
    }
    let mut eng_of_group = vec![0u32; n_groups];
    let (mut eng, mut placed) = (0, 0);
    for (i, &g) in order.iter().enumerate() {
        eng_of_group[g] = eng as u32;
        placed += g_size[g];
        // Close the chunk at its share of the devices — or sooner, when
        // only one group per remaining engine is left.
        let (groups_left, engines_left) = (n_groups - i - 1, n_eng - eng - 1);
        if engines_left > 0 && (placed * n_eng >= (eng + 1) * n_dev || groups_left == engines_left)
        {
            eng += 1;
        }
    }
    eng_of_group
}

/// Attempts to run a world's event loop `core` partitioned until `t_end`
/// and reports what it did; on [`PartitionReport::Serial`] nothing has run
/// and the caller runs the serial loop (see the module docs for the
/// policy).
pub(crate) fn try_run_until(
    core: &mut EventLoop,
    threads: SimThreads,
    t_end: SimTime,
) -> PartitionReport {
    use SerialFallback::*;
    let n_dev = core.device_count();
    if threads == SimThreads::Fixed(1) {
        return PartitionReport::Serial(OneEngine);
    }
    if core.has_faulty_links() {
        return PartitionReport::Serial(FaultyLinks);
    }
    if core.peek_min_at().is_none_or(|at| at > t_end) {
        return PartitionReport::Serial(NothingDue);
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
    let mut g_size = Vec::new();
    for d in 0..n_dev {
        let r = find(&mut dsu, d);
        if group_of[r] == usize::MAX {
            group_of[r] = g_size.len();
            g_size.push(0);
        }
        group_of[d] = group_of[r];
        g_size[group_of[d]] += 1;
    }
    let n_groups = g_size.len();
    if n_groups < 2 {
        return PartitionReport::Serial(OneGroup);
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
        return PartitionReport::Serial(NoPoolTokens);
    }

    let mut adj = vec![Vec::new(); n_groups];
    for (a, l) in core.links() {
        let (ga, gb) = (group_of[a], group_of[l.peer.0]);
        if ga != gb {
            adj[ga].push(gb);
        }
    }
    for n in &mut adj {
        n.sort_unstable();
        n.dedup();
    }
    let eng_of_group = assign_engines(&adj, &g_size, n_eng);
    let dev_engine: Vec<u32> = group_of.iter().map(|&g| eng_of_group[g]).collect();

    // The least directed cross-engine `lookahead + delay`: nothing leaves
    // a device before `now + lookahead` (the `Device::lookahead` contract)
    // and the link then adds its delay, which is nonzero — zero-delay
    // links were contracted into one group.
    let mut in_delay = vec![vec![SimTime::MAX; n_eng]; n_eng];
    let mut engines: Vec<EngineReport> =
        (0..n_eng).map(|_| EngineReport { devices: 0, events: 0, sends: 0 }).collect();
    for &e in &dev_engine {
        engines[e as usize].devices += 1;
    }
    let mut cut_links = 0;
    for (a, l) in core.links() {
        let (ea, eb) = (dev_engine[a] as usize, dev_engine[l.peer.0] as usize);
        if ea != eb {
            let d = &mut in_delay[eb][ea];
            *d = (*d).min(l.delay.saturating_add(core.lookahead(a)));
            // `World::link` installs both directions; count each link once.
            cut_links += usize::from(a < l.peer.0);
        }
    }

    let shared = Shared {
        // Nothing below `now` is left to process; events *at* `now` may be.
        commits: (0..n_eng).map(|_| Commit(AtomicU64::new(core.now()))).collect(),
        chan: (0..n_eng).map(|_| (0..n_eng).map(|_| Mutex::new(Vec::new())).collect()).collect(),
        in_delay,
        end: t_end.saturating_add(1),
    };

    // One event loop per engine, each on its own thread.  A thread hands
    // back, with its loop, what it recorded in that thread's cells: the
    // profile counters of its devices and its arena counters.
    let loops = core.partition(&dev_engine, n_eng);
    let loops: Vec<EventLoop> = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = loops
            .into_iter()
            .map(|mut e| {
                s.spawn(move || {
                    let sends = run_engine(&mut e, shared);
                    (e, sends, metrics::profile_snapshot(), arena::stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(&mut engines)
            .map(|(h, report)| {
                let (e, sends, profile, arena) = h.join().expect("engine thread panicked");
                metrics::absorb_engine_thread(&profile);
                arena::absorb(&arena);
                report.events = e.stats().events;
                report.sends = sends;
                e
            })
            .collect()
    });
    budget::release(from_pool);

    core.reassemble(loops);
    // Channel residue: deliveries beyond t_end sent after the receiver
    // exited (protocol invariant: anything ≤ t_end was consumed).
    for ch in shared.chan.into_iter().flatten() {
        for ev in ch.into_inner().expect("an engine panicked holding a channel") {
            debug_assert!(ev.0 > t_end, "in-flight event within the horizon");
            core.enqueue(ev);
        }
    }
    PartitionReport::Partitioned { engines, cut_links }
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
