//! The discrete-event simulation world: devices, links and the event queue.
//!
//! A [`World`] owns a set of [`Device`]s (switches, servers, sinks) wired
//! together by point-to-point links ([`LinkSpec`]).  Devices communicate
//! only through the event queue: a handler returns emissions/wake requests
//! in an [`Outbox`], and the world turns emissions into future `Deliver`
//! events on the link peer.  Same-instant events are ordered by a
//! *schedule-independent* key ([`EvKey`]): the creating handler's instant,
//! the creator's identity, and a per-creator counter.  The key depends only
//! on what each device did, never on which thread ran it, so a run is
//! bit-for-bit deterministic for a given seed at any engine count.
//!
//! Worlds are constructed through [`World::builder`]; topologies whose
//! device groups are separated by nonzero-delay links can run partitioned
//! across worker threads (see [`crate::parallel`]), falling back to the
//! serial loop otherwise.  Either way every event goes through the one
//! event loop of the private `evloop` module, which a world owns once and
//! a partitioned run instantiates per engine.
//!
//! Links support smoltcp-style fault injection (random drop, corruption
//! and jitter) for the failure-handling tests.

use crate::evloop::{EventKind, EventLoop};
use crate::packet::SimPacket;
use crate::parallel::PartitionReport;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;

/// Per-thread simulation counters, aggregated across every [`World`] that
/// ran on the thread.  The parallel experiment harness snapshots these
/// around each job to report events and queue pressure per experiment
/// without threading a context object through every device.  A partitioned
/// run folds its engines' counters back into the owning world and thread
/// when the engines are reassembled, so the numbers stay complete under
/// `--sim-threads`.
pub mod metrics {
    use std::cell::Cell;

    /// Number of batch-occupancy histogram buckets: 1, 2–3, 4–7, 8–15,
    /// 16–31, 32–63, 64–127, 128+.
    pub const BATCH_BUCKETS: usize = 8;
    /// Number of [`super::DeviceKind`] values.
    pub const KIND_COUNT: usize = 4;

    thread_local! {
        static EVENTS: Cell<u64> = const { Cell::new(0) };
        static PEAK_QUEUE: Cell<u64> = const { Cell::new(0) };
        static FP_KEYS: Cell<u64> = const { Cell::new(0) };
        static OPS: Cell<u64> = const { Cell::new(0) };
        static BATCH_HIST: Cell<[u64; BATCH_BUCKETS]> = const { Cell::new([0; BATCH_BUCKETS]) };
        static BY_KIND: Cell<[u64; KIND_COUNT]> = const { Cell::new([0; KIND_COUNT]) };
        static VEC_BATCHES: Cell<u64> = const { Cell::new(0) };
        static VEC_LANES: Cell<u64> = const { Cell::new(0) };
    }

    /// Cumulative events processed by worlds on this thread (flushed when
    /// each world is dropped).
    pub fn thread_events() -> u64 {
        EVENTS.with(Cell::get)
    }

    /// The deepest event queue any world on this thread reached since the
    /// last [`take_thread_peak_queue`] call; resets the high-water mark.
    pub fn take_thread_peak_queue() -> u64 {
        PEAK_QUEUE.with(|c| c.replace(0))
    }

    /// Cumulative keys hashed by the false-positive precompute on this
    /// thread (recorded by `ht-ntapi`'s `compute_fp_indices`).
    pub fn thread_fp_keys() -> u64 {
        FP_KEYS.with(Cell::get)
    }

    /// Adds `n` to the thread's false-positive precompute key counter.
    pub fn record_fp_keys(n: u64) {
        FP_KEYS.with(|c| c.set(c.get() + n));
    }

    /// Adds `n` to the thread's retired-op counter.  The compiled executor
    /// ([`crate::exec`]) calls this once per pipeline pass with the number
    /// of ops its decode loop retired.
    pub fn record_ops(n: u64) {
        OPS.with(|c| c.set(c.get() + n));
    }

    /// Records one vector-executor ingress dispatch of `lanes` PHV lanes
    /// (the batch-occupancy signal of the `--exec vector` fast path).
    pub fn record_vector_dispatch(lanes: u64) {
        VEC_BATCHES.with(|c| c.set(c.get() + 1));
        VEC_LANES.with(|c| c.set(c.get() + lanes));
    }

    /// Cumulative profile counters of this thread, for `--profile`
    /// reports.  Counters are cumulative across jobs; snapshot before and
    /// after a run and subtract ([`ProfileSnapshot::delta_since`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProfileSnapshot {
        /// Events processed (same counter as [`thread_events`]).
        pub events: u64,
        /// Ops retired by the compiled executor.
        pub ops_retired: u64,
        /// Batch-occupancy histogram: number of dispatched per-device
        /// batches of size 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64–127, 128+.
        pub batch_hist: [u64; BATCH_BUCKETS],
        /// Events by target [`super::DeviceKind`], indexed by
        /// [`super::DeviceKind::index`].
        pub by_kind: [u64; KIND_COUNT],
        /// Vector-executor ingress dispatches.
        pub vector_batches: u64,
        /// Total PHV lanes processed by those dispatches
        /// (`vector_lanes / vector_batches` = mean occupancy).
        pub vector_lanes: u64,
    }

    impl ProfileSnapshot {
        /// Adds another snapshot's counters into this one (merging shard
        /// deltas of one experiment).
        pub fn absorb(&mut self, other: &ProfileSnapshot) {
            self.events += other.events;
            self.ops_retired += other.ops_retired;
            for (a, b) in self.batch_hist.iter_mut().zip(other.batch_hist) {
                *a += b;
            }
            for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
                *a += b;
            }
            self.vector_batches += other.vector_batches;
            self.vector_lanes += other.vector_lanes;
        }

        /// Counter deltas since an earlier snapshot.
        pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
            let mut d = *self;
            d.events -= earlier.events;
            d.ops_retired -= earlier.ops_retired;
            for (a, b) in d.batch_hist.iter_mut().zip(earlier.batch_hist) {
                *a -= b;
            }
            for (a, b) in d.by_kind.iter_mut().zip(earlier.by_kind) {
                *a -= b;
            }
            d.vector_batches -= earlier.vector_batches;
            d.vector_lanes -= earlier.vector_lanes;
            d
        }
    }

    /// The thread's cumulative profile counters.
    pub fn profile_snapshot() -> ProfileSnapshot {
        ProfileSnapshot {
            events: EVENTS.with(Cell::get),
            ops_retired: OPS.with(Cell::get),
            batch_hist: BATCH_HIST.with(Cell::get),
            by_kind: BY_KIND.with(Cell::get),
            vector_batches: VEC_BATCHES.with(Cell::get),
            vector_lanes: VEC_LANES.with(Cell::get),
        }
    }

    /// Adds the counters an engine thread of a partitioned run
    /// accumulated to the calling (owning) thread's.
    pub(crate) fn absorb_engine_thread(engine: &ProfileSnapshot) {
        OPS.with(|c| c.set(c.get() + engine.ops_retired));
        VEC_BATCHES.with(|c| c.set(c.get() + engine.vector_batches));
        VEC_LANES.with(|c| c.set(c.get() + engine.vector_lanes));
    }

    pub(super) fn record(events: u64, peak_queue: u64) {
        EVENTS.with(|c| c.set(c.get() + events));
        PEAK_QUEUE.with(|c| c.set(c.get().max(peak_queue)));
    }

    pub(super) fn record_batches(hist: [u64; BATCH_BUCKETS], by_kind: [u64; KIND_COUNT]) {
        BATCH_HIST.with(|c| {
            let mut cur = c.get();
            for (a, b) in cur.iter_mut().zip(hist) {
                *a += b;
            }
            c.set(cur);
        });
        BY_KIND.with(|c| {
            let mut cur = c.get();
            for (a, b) in cur.iter_mut().zip(by_kind) {
                *a += b;
            }
            c.set(cur);
        });
    }
}

/// Index of a device within its world.
pub type DeviceId = usize;

/// Emissions and wake requests produced by one device handler invocation
/// (or, with [`checkpoint`](Outbox::checkpoint) marks, by one *batch* of
/// invocations).
#[derive(Debug, Default)]
pub struct Outbox {
    /// Packets leaving the device: `(source port, packet, departure time)`.
    pub emits: Vec<(u16, SimPacket, SimTime)>,
    /// Timer requests: `(opaque token, fire time)`.
    pub wakes: Vec<(u64, SimTime)>,
    /// Segment boundaries `(wakes.len(), emits.len())` recorded between
    /// batch items, so a single batched flush can reproduce the per-event
    /// wakes-then-emits key-assignment order of the serial loop.
    pub(crate) marks: Vec<(usize, usize)>,
}

impl Outbox {
    /// Queues a packet emission out of `port` at time `at`.
    pub fn emit(&mut self, port: u16, pkt: SimPacket, at: SimTime) {
        self.emits.push((port, pkt, at));
    }

    /// Requests a wake callback with `token` at time `at`.
    pub fn wake_at(&mut self, token: u64, at: SimTime) {
        self.wakes.push((token, at));
    }

    /// Marks the end of one batch item's output.  The flush walks the
    /// marked segments in order, issuing each segment's wakes before its
    /// emissions — exactly the event keys a per-event flush would assign.
    pub fn checkpoint(&mut self) {
        self.marks.push((self.wakes.len(), self.emits.len()));
    }
}

/// Coarse device classification for the `--profile` event breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceKind {
    /// A programmable switch ([`crate::Switch`]).
    Switch,
    /// A device under test or traffic endpoint (servers, responders).
    Host,
    /// A terminal sink/collector.
    Sink,
    /// Anything unclassified.
    #[default]
    Other,
}

impl DeviceKind {
    /// Index into [`metrics::ProfileSnapshot::by_kind`].
    pub fn index(self) -> usize {
        match self {
            DeviceKind::Switch => 0,
            DeviceKind::Host => 1,
            DeviceKind::Sink => 2,
            DeviceKind::Other => 3,
        }
    }

    /// Stable lowercase name, for report keys.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Switch => "switch",
            DeviceKind::Host => "host",
            DeviceKind::Sink => "sink",
            DeviceKind::Other => "other",
        }
    }

    /// All kinds, in [`DeviceKind::index`] order.
    pub const ALL: [DeviceKind; 4] =
        [DeviceKind::Switch, DeviceKind::Host, DeviceKind::Sink, DeviceKind::Other];
}

/// One event of a batch handed to [`Device::rx_batch`].  Items of one
/// batch share a device but — under lookahead windowing — not necessarily
/// an instant, so each carries its own event time.
#[derive(Debug)]
pub enum BatchItem {
    /// A packet delivery on `port`.
    Deliver {
        /// Arrival port.
        port: u16,
        /// The packet.
        pkt: SimPacket,
        /// Event time of this delivery.
        at: SimTime,
    },
    /// A timer wake.
    Wake {
        /// The token passed to [`Outbox::wake_at`].
        token: u64,
        /// Fire time of this wake.
        at: SimTime,
    },
}

impl BatchItem {
    /// The event time of this item.
    pub fn at(&self) -> SimTime {
        match *self {
            BatchItem::Deliver { at, .. } | BatchItem::Wake { at, .. } => at,
        }
    }
}

/// A network element participating in the simulation.
///
/// Devices are `Send` so a partitioned world can move them onto engine
/// worker threads; they are still only ever driven by one thread at a time.
pub trait Device: Any + Send {
    /// Device name, for diagnostics.
    fn name(&self) -> &str;

    /// Handles a packet arriving on `port` at time `now`.
    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox);

    /// Handles a timer previously requested via [`Outbox::wake_at`].
    fn wake(&mut self, _token: u64, _now: SimTime, _out: &mut Outbox) {}

    /// Handles a batch of events, draining `items` in order.
    ///
    /// The world only batches events it has *proven* the serial loop would
    /// process back-to-back on this device (same instant, ordered before
    /// anything the batch itself can create — or, for devices with a
    /// nonzero [`lookahead`](Device::lookahead), a time window the
    /// lookahead guarantees no batch-created event can land inside), so an
    /// implementation must process items strictly in order at their own
    /// [`BatchItem::at`] times and call [`Outbox::checkpoint`] after each
    /// one — the default does exactly that by delegating to
    /// [`rx`](Device::rx)/[`wake`](Device::wake).  `now` is the first
    /// item's time.
    fn rx_batch(&mut self, items: &mut Vec<BatchItem>, now: SimTime, out: &mut Outbox) {
        let _ = now;
        for item in items.drain(..) {
            match item {
                BatchItem::Deliver { port, pkt, at } => self.rx(port, pkt, at, out),
                BatchItem::Wake { token, at } => self.wake(token, at, out),
            }
            out.checkpoint();
        }
    }

    /// Conservative lookahead: the minimum delta between an input event at
    /// `t` and the earliest event (emission arrival or wake) any handler of
    /// this device may create.  `0` (the default) promises nothing and
    /// keeps the device on the same-instant batching rule; a nonzero value
    /// lets the event loop widen batches across instants inside the
    /// lookahead window (DESIGN.md §5a).  A device returning `t_la` here
    /// MUST never emit or wake earlier than `now + t_la` — the ordering
    /// proof of the windowed batch depends on it.
    fn lookahead(&self) -> SimTime {
        0
    }

    /// Coarse classification for the `--profile` event breakdown.
    fn device_kind(&self) -> DeviceKind {
        DeviceKind::Other
    }

    /// Upcast for typed post-run access ([`World::device`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed builder for a bidirectional link: propagation delay plus optional
/// fault injection.  The scenario layer's single extension point for link
/// impairments.
///
/// ```
/// # use ht_asic::sim::{LinkSpec, World};
/// # let mut w = World::builder().build().unwrap();
/// # let a = 0; let b = 0;
/// // w.link((a, 0), (b, 0), LinkSpec::new().delay(5_000).loss(0.01));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkSpec {
    delay: SimTime,
    drop_chance: f64,
    corrupt_chance: f64,
    jitter: SimTime,
}

impl LinkSpec {
    /// A zero-delay, fault-free link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Propagation delay added to every delivery.
    pub fn delay(mut self, delay: SimTime) -> Self {
        self.delay = delay;
        self
    }

    /// Probability a packet is silently dropped.
    pub fn loss(mut self, chance: f64) -> Self {
        self.drop_chance = chance;
        self
    }

    /// Probability one header field gets a bit flipped.
    pub fn corrupt(mut self, chance: f64) -> Self {
        self.corrupt_chance = chance;
        self
    }

    /// Uniform random extra delay in `0..=jitter` per delivery.
    pub fn jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }
}

/// One direction of a link out of a `(device, port)` endpoint.
#[derive(Debug, Clone)]
pub struct Link {
    /// Receiving endpoint.
    pub peer: (DeviceId, u16),
    /// Propagation delay added to every delivery.
    pub delay: SimTime,
    /// Probability a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability one header field gets a bit flipped.
    pub corrupt_chance: f64,
    /// Uniform random extra delay in `0..=jitter` per delivery.
    pub jitter: SimTime,
    /// The engine owning the peer device: 0 in a serial world, filled in
    /// per run when a world is partitioned.
    pub(crate) engine: u32,
}

impl Link {
    /// Whether this link consumes the world's fault RNG (drop, corruption
    /// or jitter) — any such link pins the world to the serial engine,
    /// because the RNG stream is defined by global event order.
    pub(crate) fn has_faults(&self) -> bool {
        self.drop_chance > 0.0 || self.corrupt_chance > 0.0 || self.jitter > 0
    }
}

/// Schedule-independent event ordering key.
///
/// Same-instant events order by `(birth, src, ctr)`: the instant the
/// creating handler ran, the creator's rank (pre-run injections first,
/// then devices by id, then mid-run injections), and a per-creator
/// monotone counter.  Unlike a global insertion sequence, the key is a
/// pure function of each device's own behavior, so the serial loop and a
/// partitioned run produce the identical pop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvKey {
    /// Instant of the creating handler (0 for pre-run injections).
    pub(crate) birth: SimTime,
    /// Creator rank: [`EvKey::SRC_INJECT_PRE`], device id + 1, or
    /// [`EvKey::SRC_INJECT_MID`].
    pub(crate) src: u32,
    /// Per-creator monotone counter.
    pub(crate) ctr: u64,
}

impl EvKey {
    /// Rank of injections scheduled before the first event pops — they
    /// sort ahead of every same-instant device creation, matching the
    /// historical insertion-sequence order.
    pub(crate) const SRC_INJECT_PRE: u32 = 0;
    /// Rank of injections scheduled once the run has started — they sort
    /// after every same-instant creation made up to that point.
    pub(crate) const SRC_INJECT_MID: u32 = u32::MAX;

    /// The key a device-created event gets: the processing instant plus
    /// the device's own creation counter.
    #[inline]
    pub(crate) fn device(now: SimTime, device: DeviceId, ctr: u64) -> Self {
        EvKey { birth: now, src: device as u32 + 1, ctr }
    }
}

/// Statistics of a world run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Events processed.
    pub events: u64,
    /// Packets dropped by link fault injection.
    pub link_drops: u64,
    /// Header fields corrupted by link fault injection.
    pub link_corruptions: u64,
    /// Emissions out of ports with no link attached.
    pub dangling_emits: u64,
}

/// How many engine threads a partitioned run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimThreads {
    /// Draw extra engine threads from the shared pool configured via
    /// [`crate::parallel::budget`] (zero by default, so worlds stay
    /// serial unless `--sim-threads` granted capacity).
    Auto,
    /// Use exactly this many engines (clamped to the partition count),
    /// bypassing the shared pool.  `Fixed(1)` is the serial loop.
    Fixed(usize),
}

impl Default for SimThreads {
    fn default() -> Self {
        SimThreads::Fixed(1)
    }
}

/// Rejected [`World::builder`] configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldConfigError {
    /// `partitions(SimThreads::Fixed(0))` — a world needs at least one
    /// engine; use `Fixed(1)` for the serial loop.
    ZeroSimThreads,
}

impl std::fmt::Display for WorldConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldConfigError::ZeroSimThreads => {
                write!(f, "sim threads must be at least 1 (use SimThreads::Fixed(1) for serial)")
            }
        }
    }
}

impl std::error::Error for WorldConfigError {}

/// Builder for [`World`] — the only way to construct one.
///
/// Mirrors `TesterConfig::builder()`: chain setters, then
/// [`build`](Self::build) validates and returns the world.
///
/// ```
/// use ht_asic::sim::{SimThreads, World};
/// let w = World::builder()
///     .seed(42)
///     .partitions(SimThreads::Auto)
///     .build()
///     .unwrap();
/// assert_eq!(w.now(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    seed: u64,
    partitions: SimThreads,
    trace: usize,
}

impl WorldBuilder {
    /// Seed of the fault-injection RNG (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Engine-thread policy for partitioned runs (default: serial).
    pub fn partitions(mut self, threads: SimThreads) -> Self {
        self.partitions = threads;
        self
    }

    /// Keep a ring of the last `depth` processed events ([`World::trace`]);
    /// 0 (the default) disables tracing.  The trace is merged
    /// deterministically across engines in partitioned runs.
    pub fn trace(mut self, depth: usize) -> Self {
        self.trace = depth;
        self
    }

    /// Validates the configuration and builds the world.
    pub fn build(self) -> Result<World, WorldConfigError> {
        if self.partitions == SimThreads::Fixed(0) {
            return Err(WorldConfigError::ZeroSimThreads);
        }
        Ok(World {
            core: EventLoop::new(StdRng::seed_from_u64(self.seed), self.trace),
            inj_ctr: 0,
            sim_threads: self.partitions,
            last_partition: None,
            stats: WorldStats::default(),
        })
    }
}

/// What a [`TraceEntry`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet delivery.
    Deliver,
    /// A timer wake.
    Wake,
}

/// One processed event in the world's debug trace (see
/// [`WorldBuilder::trace`]).
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry {
    /// Event time.
    pub at: SimTime,
    /// Ordering key (used to merge engine traces deterministically).
    pub key: EvKey,
    /// Target device.
    pub device: DeviceId,
    /// Delivery or wake.
    pub kind: TraceKind,
}

/// The simulation world.
pub struct World {
    /// The event loop and everything it runs on: devices, links, queue,
    /// clock.  A partitioned run splits it per engine and folds it back.
    core: EventLoop,
    /// Injection counter shared by pre- and mid-run injections.
    inj_ctr: u64,
    sim_threads: SimThreads,
    last_partition: Option<PartitionReport>,
    /// Run statistics, as of the last [`step`](Self::step) or run call.
    pub stats: WorldStats,
}

impl Drop for World {
    fn drop(&mut self) {
        // Fold this world's counters into the per-thread aggregate the
        // experiment harness reads (see [`metrics`]).
        metrics::record(self.core.stats().events, self.peak_queue_depth());
        let (batch_hist, by_kind) = self.core.profile();
        metrics::record_batches(batch_hist, by_kind);
    }
}

impl World {
    /// Starts building a world (seed 1, serial, no trace).
    pub fn builder() -> WorldBuilder {
        WorldBuilder { seed: 1, partitions: SimThreads::default(), trace: 0 }
    }

    /// The deepest the event queue has ever been in this world (the
    /// engine-local maximum in partitioned runs).
    pub fn peak_queue_depth(&self) -> u64 {
        self.core.peak_queue_depth()
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, dev: Box<dyn Device>) -> DeviceId {
        self.core.add_device(dev)
    }

    /// Connects two endpoints bidirectionally as described by `spec`.
    ///
    /// # Panics
    /// Panics when a probability is outside `0..=1`.
    pub fn link(&mut self, a: (DeviceId, u16), b: (DeviceId, u16), spec: LinkSpec) {
        assert!((0.0..=1.0).contains(&spec.drop_chance));
        assert!((0.0..=1.0).contains(&spec.corrupt_chance));
        let mk = |peer| Link {
            peer,
            delay: spec.delay,
            drop_chance: spec.drop_chance,
            corrupt_chance: spec.corrupt_chance,
            jitter: spec.jitter,
            engine: 0,
        };
        self.core.set_link(a, mk(b));
        self.core.set_link(b, mk(a));
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The key for an externally injected event.  Pre-run injections rank
    /// before every same-instant device creation (they were queued first);
    /// mid-run injections rank after everything created so far.
    fn injection_key(&mut self) -> EvKey {
        let ctr = self.inj_ctr;
        self.inj_ctr += 1;
        if self.core.started() {
            EvKey { birth: self.core.now(), src: EvKey::SRC_INJECT_MID, ctr }
        } else {
            EvKey { birth: 0, src: EvKey::SRC_INJECT_PRE, ctr }
        }
    }

    /// Schedules a packet delivery straight into a device port (external
    /// traffic injection, e.g. templates from a test driver).
    pub fn schedule_rx(&mut self, device: DeviceId, port: u16, pkt: SimPacket, at: SimTime) {
        let key = self.injection_key();
        self.core.enqueue((at, key, EventKind::Deliver { device, port, pkt }));
    }

    /// Schedules a wake for a device (external timer injection).
    pub fn schedule_wake(&mut self, device: DeviceId, token: u64, at: SimTime) {
        let key = self.injection_key();
        self.core.enqueue((at, key, EventKind::Wake { device, token }));
    }

    /// The last `trace` events processed (empty unless
    /// [`WorldBuilder::trace`] enabled tracing).
    pub fn trace(&self) -> &[TraceEntry] {
        self.core.trace()
    }

    /// Processes a single event.  Returns `false` when the queue is empty.
    ///
    /// This is the batching loop held to one event per call — the
    /// reference order the batched and partitioned runs are tested
    /// against.
    pub fn step(&mut self) -> bool {
        let ran = self.core.step_batch(1, SimTime::MAX) == 1;
        self.stats = self.core.stats();
        ran
    }

    /// Runs until the queue drains or simulated time exceeds `t_end`
    /// (events beyond `t_end` stay queued).  Returns the number of events
    /// processed.
    ///
    /// When the topology splits into multiple device groups across
    /// nonzero-delay, fault-free links and the world was granted more than
    /// one engine thread ([`WorldBuilder::partitions`]), the run executes
    /// partitioned under the conservative-lookahead protocol; results are
    /// bit-identical to the serial loop either way.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        let report = crate::parallel::try_run_until(&mut self.core, self.sim_threads, t_end);
        let n = match &report {
            PartitionReport::Partitioned { engines, .. } => engines.iter().map(|e| e.events).sum(),
            PartitionReport::Serial(_) => {
                // Batches never take an event past `t_end`: both batching
                // rules bound every follower by `t_bound`.
                let mut n = 0;
                while self.core.peek_min_at().is_some_and(|at| at <= t_end) {
                    n += self.core.step_batch(u64::MAX, t_end);
                }
                n
            }
        };
        self.last_partition = Some(report);
        self.core.advance_to(t_end);
        self.stats = self.core.stats();
        n
    }

    /// What the partitioner decided for the most recent
    /// [`run_until`](Self::run_until): the engines it used, or why the run
    /// stayed serial.  `None` before the first `run_until`.
    pub fn last_partition(&self) -> Option<&PartitionReport> {
        self.last_partition.as_ref()
    }

    /// Runs until the queue is empty or `max_events` is hit (a runaway
    /// guard for tests).  Always serial: "the queue is empty" is a global
    /// property no engine can observe locally.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let k = self.core.step_batch(max_events - n, SimTime::MAX);
            if k == 0 {
                break;
            }
            n += k;
        }
        self.stats = self.core.stats();
        n
    }

    /// Typed access to a device after (or during) a run.
    ///
    /// # Panics
    /// Panics when the id is out of range or the type does not match.
    pub fn device<T: 'static>(&self, id: DeviceId) -> &T {
        self.core.device(id).as_any().downcast_ref::<T>().expect("device type mismatch")
    }

    /// Typed mutable access to a device.
    pub fn device_mut<T: 'static>(&mut self, id: DeviceId) -> &mut T {
        self.core.device_mut(id).as_any_mut().downcast_mut::<T>().expect("device type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::FieldTable;

    /// Echoes every packet back out the port it arrived on after 10 ns.
    struct Echo {
        rx_times: Vec<SimTime>,
    }

    impl Device for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
            self.rx_times.push(now);
            out.emit(port, pkt, now + 10_000);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts received packets.
    struct Counter {
        count: u64,
        woken: Vec<u64>,
    }

    impl Device for Counter {
        fn name(&self) -> &str {
            "counter"
        }

        fn rx(&mut self, _port: u16, _pkt: SimPacket, _now: SimTime, _out: &mut Outbox) {
            self.count += 1;
        }

        fn wake(&mut self, token: u64, _now: SimTime, _out: &mut Outbox) {
            self.woken.push(token);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn world(seed: u64) -> World {
        World::builder().seed(seed).build().unwrap()
    }

    fn blank_packet() -> SimPacket {
        let t = FieldTable::new();
        SimPacket { phv: t.new_phv(), body: None, uid: 0 }
    }

    #[test]
    fn delivery_respects_link_delay() {
        let mut w = world(1);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().delay(5_000));
        w.schedule_rx(e, 0, blank_packet(), 100);
        w.run_to_idle(100);
        // Echo got it at t=100, re-emitted at 110 ns, counter at 115 ns.
        assert_eq!(w.device::<Echo>(e).rx_times, vec![100]);
        assert_eq!(w.device::<Counter>(c).count, 1);
        assert_eq!(w.now(), 100 + 10_000 + 5_000);
    }

    #[test]
    fn wakes_fire_in_time_order() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 2, 200);
        w.schedule_wake(c, 1, 100);
        w.schedule_wake(c, 3, 300);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_preserve_insertion_order() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..10 {
            w.schedule_wake(c, token, 500);
        }
        w.run_to_idle(100);
        assert_eq!(w.device::<Counter>(c).woken, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 1, 100);
        w.schedule_wake(c, 2, 1_000);
        let n = w.run_until(500);
        assert_eq!(n, 1);
        assert_eq!(w.now(), 500);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2]);
    }

    #[test]
    fn dangling_emission_is_counted_not_fatal() {
        let mut w = world(1);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        w.schedule_rx(e, 7, blank_packet(), 0); // port 7 has no link
        w.run_to_idle(10);
        assert_eq!(w.stats.dangling_emits, 1);
    }

    #[test]
    fn lossy_link_drops_roughly_the_configured_fraction() {
        let mut w = world(42);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().loss(0.3));
        for i in 0..1000 {
            w.schedule_rx(e, 0, blank_packet(), i * 100);
        }
        w.run_to_idle(10_000);
        let delivered = w.device::<Counter>(c).count;
        assert_eq!(delivered + w.stats.link_drops, 1000);
        assert!((500..900).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn corrupting_link_flips_fields() {
        let mut w = world(7);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().corrupt(1.0));
        w.schedule_rx(e, 0, blank_packet(), 0);
        w.run_to_idle(10);
        assert_eq!(w.stats.link_corruptions, 1);
        assert_eq!(w.device::<Counter>(c).count, 1, "corrupted packets still deliver");
    }

    #[test]
    fn jittered_link_spreads_deliveries() {
        let mut w = world(5);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().delay(1_000).jitter(500));
        for i in 0..50 {
            w.schedule_rx(e, 0, blank_packet(), i * 10_000);
        }
        w.run_to_idle(1_000);
        assert_eq!(w.device::<Counter>(c).count, 50, "jitter never loses packets");
    }

    #[test]
    fn builder_rejects_zero_threads() {
        let err =
            World::builder().partitions(SimThreads::Fixed(0)).build().map(|_| ()).unwrap_err();
        assert_eq!(err, WorldConfigError::ZeroSimThreads);
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn trace_keeps_the_last_events() {
        let mut w = World::builder().trace(3).build().unwrap();
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..10 {
            w.schedule_wake(c, token, 100 + token * 10);
        }
        w.run_to_idle(100);
        let t: Vec<SimTime> = w.trace().iter().map(|e| e.at).collect();
        assert_eq!(t, vec![170, 180, 190]);
        assert!(w.trace().iter().all(|e| e.kind == TraceKind::Wake && e.device == c));
    }

    #[test]
    fn batched_run_matches_single_stepping() {
        // Same-instant bursts exercise the loop's gather path; the
        // batched loop must leave devices, stats, the clock and the fault
        // RNG exactly where the one-event-at-a-time loop does.
        let script = |w: &mut World| {
            let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
            let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
            w.link((e, 0), (c, 0), LinkSpec::new().delay(2_500).loss(0.2).jitter(300));
            for i in 0..400u64 {
                // Four same-instant deliveries per burst, with wakes mixed
                // into some bursts.
                w.schedule_rx(e, 0, blank_packet(), (i / 4) * 1_000);
                if i % 3 == 0 {
                    w.schedule_wake(c, i, (i / 4) * 1_000);
                }
            }
            (e, c)
        };

        let mut serial = world(9);
        let (e1, c1) = script(&mut serial);
        let mut n_serial = 0u64;
        while serial.step() {
            n_serial += 1;
        }

        let mut batched = world(9);
        let (e2, c2) = script(&mut batched);
        let n_batched = batched.run_to_idle(u64::MAX);

        assert_eq!(n_batched, n_serial);
        assert_eq!(batched.device::<Echo>(e2).rx_times, serial.device::<Echo>(e1).rx_times);
        assert_eq!(batched.device::<Counter>(c2).woken, serial.device::<Counter>(c1).woken);
        assert_eq!(batched.device::<Counter>(c2).count, serial.device::<Counter>(c1).count);
        assert_eq!(batched.stats, serial.stats);
        assert_eq!(batched.now(), serial.now());
    }

    /// Emits each packet back out exactly its declared lookahead later —
    /// the minimal device exercising the windowed batcher.
    struct Paced {
        rx_times: Vec<SimTime>,
        la: SimTime,
    }

    impl Device for Paced {
        fn name(&self) -> &str {
            "paced"
        }

        fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
            self.rx_times.push(now);
            out.emit(port, pkt, now + self.la);
        }

        fn lookahead(&self) -> SimTime {
            self.la
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Absorbs packets and promises it never creates events.
    struct Absorb {
        rx_times: Vec<SimTime>,
    }

    impl Device for Absorb {
        fn name(&self) -> &str {
            "absorb"
        }

        fn rx(&mut self, _port: u16, _pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
            self.rx_times.push(now);
        }

        fn lookahead(&self) -> SimTime {
            SimTime::MAX
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn windowed_run_matches_single_stepping() {
        // Dense cross-instant traffic through a lookahead device: the
        // windowed batcher must reproduce the serial loop's per-device
        // event times, stats and clock exactly, while actually forming
        // multi-event windows (the same-instant rule would see only
        // singletons here).
        let script = |w: &mut World| {
            let p = w.add_device(Box::new(Paced { rx_times: Vec::new(), la: 1_000 }));
            let a = w.add_device(Box::new(Absorb { rx_times: Vec::new() }));
            w.link((p, 0), (a, 0), LinkSpec::new());
            w.link((p, 1), (a, 1), LinkSpec::new());
            for i in 0..300u64 {
                w.schedule_rx(p, (i % 2) as u16, blank_packet(), i * 100);
            }
            (p, a)
        };

        let mut serial = world(7);
        let (p1, a1) = script(&mut serial);
        let mut n_serial = 0u64;
        while serial.core.peek_min_at().is_some_and(|at| at <= 20_000) {
            serial.step();
            n_serial += 1;
        }

        let before = metrics::profile_snapshot();
        let mut batched = world(7);
        let (p2, a2) = script(&mut batched);
        let n_batched = batched.run_until(20_000);

        assert_eq!(n_batched, n_serial);
        assert_eq!(batched.device::<Paced>(p2).rx_times, serial.device::<Paced>(p1).rx_times);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);
        assert_eq!(batched.stats, serial.stats);

        // Continuing past the bound still matches a full serial drain.
        while serial.step() {
            n_serial += 1;
        }
        let n2 = batched.run_to_idle(u64::MAX);
        assert_eq!(n_batched + n2, n_serial);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);

        drop(batched);
        let d = metrics::profile_snapshot().delta_since(&before);
        assert!(
            d.batch_hist[0] < d.events,
            "windows never formed: {:?} over {} events",
            d.batch_hist,
            d.events
        );
    }

    #[test]
    fn windowed_batches_disable_under_link_faults() {
        // A fault-consuming link pins the world to the same-instant rule
        // (dispatch reorder would shift the fault RNG stream), and the
        // outcome still matches serial stepping.
        let script = |w: &mut World| {
            let p = w.add_device(Box::new(Paced { rx_times: Vec::new(), la: 1_000 }));
            let a = w.add_device(Box::new(Absorb { rx_times: Vec::new() }));
            w.link((p, 0), (a, 0), LinkSpec::new().loss(0.3));
            for i in 0..100u64 {
                w.schedule_rx(p, 0, blank_packet(), i * 100);
            }
            (p, a)
        };
        let mut serial = world(11);
        let (_, a1) = script(&mut serial);
        while serial.step() {}
        let mut batched = world(11);
        let (_, a2) = script(&mut batched);
        batched.run_to_idle(u64::MAX);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);
        assert_eq!(batched.stats, serial.stats);
        assert!(batched.stats.link_drops > 0, "faults should have fired");
    }

    #[test]
    fn batched_run_to_idle_respects_the_event_cap() {
        // A burst bigger than the remaining budget must not overshoot.
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..20 {
            w.schedule_wake(c, token, 500);
        }
        assert_eq!(w.run_to_idle(7), 7);
        assert_eq!(w.device::<Counter>(c).woken, (0..7).collect::<Vec<_>>());
        assert_eq!(w.run_to_idle(100), 13);
    }

    #[test]
    fn profile_counters_track_events_and_batches() {
        let before = metrics::profile_snapshot();
        let mut w = world(3);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..32 {
            w.schedule_wake(c, token, 500);
        }
        w.run_to_idle(1_000);
        drop(w); // folds the world's histograms into the thread-locals
        let d = metrics::profile_snapshot().delta_since(&before);
        assert_eq!(d.events, 32);
        assert_eq!(d.by_kind.iter().sum::<u64>(), 32);
        // 32 same-instant wakes for one plain device gather into one
        // 32–63-bucket batch.
        assert_eq!(d.batch_hist, [0, 0, 0, 0, 0, 1, 0, 0]);
        assert_eq!(d.by_kind[DeviceKind::Other.index()], 32);
    }

    #[test]
    fn mid_run_injections_sort_after_prior_creations() {
        // An injection scheduled between runs lands after events the run
        // already created for the same instant — the historical
        // insertion-sequence order.
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 1, 100);
        w.run_until(200);
        w.schedule_wake(c, 2, 300);
        w.schedule_wake(c, 3, 300);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2, 3]);
    }
}
