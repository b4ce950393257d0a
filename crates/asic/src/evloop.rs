//! The one event loop: pop → window → dispatch → flush.
//!
//! An [`EventLoop`] owns a queue, the devices it may dispatch to, their
//! creation counters and lookaheads, and the `[device][port]` link table.
//! The serial [`World`](crate::sim::World) owns exactly one; a partitioned
//! run ([`crate::parallel`]) splits it into one loop per engine with
//! [`partition`](EventLoop::partition) and folds them back with
//! [`reassemble`](EventLoop::reassemble).  Every event of every run —
//! single-stepped, batched, serial or partitioned — is popped, dispatched
//! and flushed by [`step_batch`](EventLoop::step_batch), so the ordering
//! argument is made once.  It has three parts.
//!
//! **Same-instant rule.**  After popping the queue minimum `(at, key)` for
//! device `d`, the loop may also take queued followers that share `at` and
//! `d` and whose key is below `(at, d, ctr₀)`, `ctr₀` being `d`'s creation
//! counter when the batch starts.  Handlers of the batch can only create
//! keys `(at, d, ctr ≥ ctr₀)`, so every such follower pops before anything
//! the batch creates no matter when the handlers run.
//!
//! **Lookahead window.**  When `d` declares a nonzero
//! [`Device::lookahead`] (and no link consumes the fault RNG), the batch
//! is instead a *contiguous prefix* of the `(at, key)` pop order: each
//! candidate is the queue's current minimum and is taken only when its
//! time is `≤ t_bound`, strictly below the window horizon, and its device
//! declares a nonzero lookahead.  The horizon is the minimum over member
//! devices of `first_occurrence_time + lookahead`; anything a member
//! creates from an item at `t` lands at `≥ t + lookahead ≥ horizon`,
//! strictly after every window item, so a one-at-a-time loop would process
//! exactly these items in exactly this order before touching anything the
//! window creates.  Items are dispatched grouped per device (per-device
//! pop order preserved).  The cross-device reorder is invisible: devices
//! interact only through events, all of which land past the horizon;
//! creation counters are per device; and the fault RNG is untouched.
//! Created events take their creating item's time as key birth and clamp
//! (per-segment flushing), so keys equal the one-at-a-time loop's.
//!
//! **Remote-send rule.**  A link-table entry records which engine owns its
//! peer.  The flush pushes an emission whose peer is local into its own
//! queue and appends any other to a per-target send buffer, key and
//! arrival time already assigned.  Only the owner of the loop moves those
//! buffers, and only *between* `step_batch` calls, so nothing enters or
//! leaves the queue behind a batch's back.  A partitioned engine calls
//! `step_batch(u64::MAX, horizon − 1)` with `horizon` the conservative
//! bound before which no remote event can still arrive; both batching
//! rules take events `≤ t_bound` only, so they hold per engine exactly as
//! they do serially.  The serial world has one engine, hence no remote
//! entries.

use crate::packet::SimPacket;
use crate::phv::{fields, FieldId};
use crate::sim::{
    metrics, BatchItem, Device, DeviceId, EvKey, Link, Outbox, TraceEntry, TraceKind, WorldStats,
};
use crate::time::SimTime;
use crate::timerwheel::TimerWheel;
use rand::rngs::StdRng;
use rand::Rng;

#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver { device: DeviceId, port: u16, pkt: SimPacket },
    Wake { device: DeviceId, token: u64 },
}

impl EventKind {
    /// The device this event targets.
    fn device(&self) -> DeviceId {
        match *self {
            EventKind::Deliver { device, .. } | EventKind::Wake { device, .. } => device,
        }
    }
}

/// An event with its arrival time and ordering key — the unit that sits in
/// a queue, a send buffer or a cross-engine channel.
pub(crate) type Scheduled = (SimTime, EvKey, EventKind);

/// The discrete-event queue: a timer wheel ordering `(at, key, slab slot)`
/// triples plus a slab holding the event payloads out of line, so ordering
/// operations move 40-byte entries instead of full [`EventKind`]s.
#[derive(Debug, Default)]
struct EventQueue {
    wheel: TimerWheel<u32, EvKey>,
    /// Payload store; `None` marks a free slot.
    slab: Vec<Option<EventKind>>,
    /// Free-slot indices, reused LIFO.
    free: Vec<u32>,
}

impl EventQueue {
    fn take(&mut self, slot: u32) -> EventKind {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("live slab slot")
    }

    fn push(&mut self, (at, key, kind): Scheduled) {
        let slot = if let Some(s) = self.free.pop() {
            self.slab[s as usize] = Some(kind);
            s
        } else {
            self.slab.push(Some(kind));
            (self.slab.len() - 1) as u32
        };
        self.wheel.push(at, key, slot);
    }

    fn pop(&mut self) -> Option<Scheduled> {
        let (at, key, slot) = self.wheel.pop()?;
        Some((at, key, self.take(slot)))
    }

    /// Pops the next event only when `take` approves its `(at, key,
    /// kind)`; leaves the queue untouched otherwise.  The batching loop
    /// uses this instead of pop-then-push-back, which costs two extra
    /// wheel inserts every time a batch closes.
    fn pop_if(
        &mut self,
        take: impl FnOnce(SimTime, EvKey, &EventKind) -> bool,
    ) -> Option<Scheduled> {
        let (at, key, slot) = self.wheel.peek().map(|(at, key, slot)| (at, *key, *slot))?;
        let kind = self.slab[slot as usize].as_ref().expect("live slab slot");
        if !take(at, key, kind) {
            return None;
        }
        self.wheel.pop();
        Some((at, key, self.take(slot)))
    }
}

/// One device's slice of a lookahead window: its items in pop order plus
/// their event times (parallel vectors; `times[i]` keys the flush segment
/// of `items[i]`).
struct WindowGroup {
    device: DeviceId,
    items: Vec<BatchItem>,
    times: Vec<SimTime>,
}

/// Converts a popped event into the batch item handed to its device.
fn into_item(kind: EventKind, at: SimTime) -> BatchItem {
    match kind {
        EventKind::Deliver { port, pkt, .. } => BatchItem::Deliver { port, pkt, at },
        EventKind::Wake { token, .. } => BatchItem::Wake { token, at },
    }
}

/// Histogram bucket of a dispatched batch of `n` items.
fn batch_bucket(n: u64) -> usize {
    match n {
        1 => 0,
        2..=3 => 1,
        4..=7 => 2,
        8..=15 => 3,
        16..=31 => 4,
        32..=63 => 5,
        64..=127 => 6,
        _ => 7,
    }
}

/// The event loop and all of its state (see the module docs).
pub(crate) struct EventLoop {
    /// Index of this loop among the engines of a partitioned run; 0 for
    /// the serial world.
    id: u32,
    /// Full-length device table.  The serial world owns every slot; a
    /// partitioned engine only the `Some` ones.
    devices: Vec<Option<Box<dyn Device>>>,
    /// Per-device conservative lookahead ([`Device::lookahead`]), cached
    /// when the device is added.
    lookaheads: Vec<SimTime>,
    /// Per-device event-creation counters (the `ctr` of [`EvKey`]); only
    /// owned slots are meaningful.
    ctrs: Vec<u64>,
    /// Flat `[device][port]` link table: one direct index per emission.
    links: Vec<Vec<Option<Link>>>,
    /// Set when any link consumes the fault RNG (drop/corrupt/jitter).
    /// The RNG stream is defined by global flush order, so a faulty world
    /// must not reorder dispatch across devices: windowed batching is
    /// disabled, the same-instant rule applies everywhere, and the run
    /// never partitions.
    faulty_links: bool,
    queue: EventQueue,
    now: SimTime,
    /// Set once the first event pops.
    started: bool,
    rng: StdRng,
    /// Emissions bound for devices of other engines, per target engine
    /// (empty in the serial world).
    sends: Vec<Vec<Scheduled>>,
    /// Scratch outbox reused across batches.
    scratch: Outbox,
    /// Reused buffer for same-instant batches.
    batch_scratch: Vec<BatchItem>,
    /// Reused per-device groups of the windowed batcher.
    window_groups: Vec<WindowGroup>,
    /// Spare `(items, times)` buffers for [`WindowGroup`]s.
    group_pool: Vec<(Vec<BatchItem>, Vec<SimTime>)>,
    stats: WorldStats,
    /// Batch-size histogram and events by target device kind (the owning
    /// world folds them into [`metrics`] when it is dropped).
    batch_hist: [u64; metrics::BATCH_BUCKETS],
    by_kind: [u64; metrics::KIND_COUNT],
    /// Deepest engine-local queue of any partitioned run.
    engine_peak: u64,
    trace_depth: usize,
    trace: Vec<TraceEntry>,
}

impl EventLoop {
    /// Largest batch one [`step_batch`](Self::step_batch) call dispatches.
    const MAX_BATCH: u64 = 256;

    pub(crate) fn new(rng: StdRng, trace_depth: usize) -> Self {
        EventLoop {
            id: 0,
            devices: Vec::new(),
            lookaheads: Vec::new(),
            ctrs: Vec::new(),
            links: Vec::new(),
            faulty_links: false,
            queue: EventQueue::default(),
            now: 0,
            started: false,
            rng,
            sends: Vec::new(),
            scratch: Outbox::default(),
            batch_scratch: Vec::new(),
            window_groups: Vec::new(),
            group_pool: Vec::new(),
            stats: WorldStats::default(),
            batch_hist: [0; metrics::BATCH_BUCKETS],
            by_kind: [0; metrics::KIND_COUNT],
            engine_peak: 0,
            trace_depth,
            trace: Vec::new(),
        }
    }

    pub(crate) fn add_device(&mut self, dev: Box<dyn Device>) -> DeviceId {
        self.lookaheads.push(dev.lookahead());
        self.devices.push(Some(dev));
        self.ctrs.push(0);
        self.devices.len() - 1
    }

    /// Installs the outgoing link of `(device, port)`.
    pub(crate) fn set_link(&mut self, (device, port): (DeviceId, u16), link: Link) {
        self.faulty_links |= link.has_faults();
        if self.links.len() <= device {
            self.links.resize_with(device + 1, Vec::new);
        }
        let ports = &mut self.links[device];
        if ports.len() <= usize::from(port) {
            ports.resize(usize::from(port) + 1, None);
        }
        ports[usize::from(port)] = Some(link);
    }

    /// Every installed link with its source device.
    pub(crate) fn links(&self) -> impl Iterator<Item = (DeviceId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .flat_map(|(d, ports)| ports.iter().flatten().map(move |l| (d, l)))
    }

    pub(crate) fn has_faulty_links(&self) -> bool {
        self.faulty_links
    }

    pub(crate) fn device_count(&self) -> usize {
        self.devices.len()
    }

    pub(crate) fn device(&self, id: DeviceId) -> &dyn Device {
        self.devices[id].as_deref().expect("device is owned by another engine")
    }

    pub(crate) fn device_mut(&mut self, id: DeviceId) -> &mut dyn Device {
        self.devices[id].as_deref_mut().expect("device is owned by another engine")
    }

    /// The conservative lookahead `device` declared when it was added.
    pub(crate) fn lookahead(&self, device: DeviceId) -> SimTime {
        self.lookaheads[device]
    }

    pub(crate) fn engine_id(&self) -> usize {
        self.id as usize
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// Moves the clock forward to `t` (never backwards).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    pub(crate) fn stats(&self) -> WorldStats {
        self.stats
    }

    pub(crate) fn profile(&self) -> ([u64; metrics::BATCH_BUCKETS], [u64; metrics::KIND_COUNT]) {
        (self.batch_hist, self.by_kind)
    }

    /// The deepest this loop's queue — or any engine's it was partitioned
    /// into — has ever been.
    pub(crate) fn peak_queue_depth(&self) -> u64 {
        (self.queue.wheel.peak_len() as u64).max(self.engine_peak)
    }

    /// The last `trace_depth` events processed.
    pub(crate) fn trace(&self) -> &[TraceEntry] {
        let keep = self.trace.len().min(self.trace_depth);
        &self.trace[self.trace.len() - keep..]
    }

    /// Queues an event created outside the loop: an injection, or a
    /// delivery received from another engine.
    pub(crate) fn enqueue(&mut self, ev: Scheduled) {
        self.queue.push(ev);
    }

    /// Arrival time of the next event, without removing it.
    pub(crate) fn peek_min_at(&mut self) -> Option<SimTime> {
        self.queue.wheel.peek_min_at()
    }

    /// The buffered sends bound for engine `target` (see the remote-send
    /// rule in the module docs).
    pub(crate) fn sends_mut(&mut self, target: usize) -> &mut Vec<Scheduled> {
        &mut self.sends[target]
    }

    /// Records a processed event in the debug trace, keeping the ring at
    /// most `2 * depth` long (the accessor serves the last `depth`).
    fn record_trace(&mut self, at: SimTime, key: EvKey, kind: &EventKind) {
        if self.trace_depth == 0 {
            return;
        }
        let (device, tk) = match kind {
            EventKind::Deliver { device, .. } => (*device, TraceKind::Deliver),
            EventKind::Wake { device, .. } => (*device, TraceKind::Wake),
        };
        self.trace.push(TraceEntry { at, key, device, kind: tk });
        if self.trace.len() >= self.trace_depth * 2 {
            self.trace.drain(..self.trace.len() - self.trace_depth);
        }
    }

    /// Processes the next ready event *and every immediately following
    /// event the module docs prove a one-at-a-time loop would run in the
    /// same order*: same-instant followers, or — when the first event's
    /// device declares a lookahead — a lookahead window.
    ///
    /// At most `max` events (capped at [`Self::MAX_BATCH`]) at or before
    /// `t_bound` are taken; a non-matching successor is never popped
    /// (peek-guarded), so the queue is left exactly as a one-at-a-time
    /// loop would.  `max = 1` *is* that loop.  Returns the number of
    /// events processed (0 = queue empty).
    pub(crate) fn step_batch(&mut self, max: u64, t_bound: SimTime) -> u64 {
        let Some((at, key, kind)) = self.queue.pop() else {
            return 0;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.started = true;
        self.now = at;
        let device = kind.device();
        self.record_trace(at, key, &kind);

        let la0 = self.lookaheads[device];
        if la0 > 0 && !self.faulty_links && max > 1 {
            return self.step_window(at, kind, la0, max, t_bound);
        }

        let bound = EvKey::device(at, device, self.ctrs[device]);
        let cap = max.min(Self::MAX_BATCH);
        // Peek-guarded pop: a non-batchable successor (later instant,
        // other device, or not provably ordered before this batch's own
        // children) is never removed, so nothing is pushed back and
        // global order is trivially unchanged.
        let pop_follower = |queue: &mut EventQueue| {
            queue.pop_if(|at2, key2, kind2| at2 == at && kind2.device() == device && key2 < bound)
        };

        let mut out = std::mem::take(&mut self.scratch);
        let n;
        let second = if cap > 1 { pop_follower(&mut self.queue) } else { None };
        if let Some((at2, key2, kind2)) = second {
            self.record_trace(at2, key2, &kind2);
            let mut batch = std::mem::take(&mut self.batch_scratch);
            batch.clear();
            batch.push(into_item(kind, at));
            batch.push(into_item(kind2, at));
            while (batch.len() as u64) < cap {
                let Some((at2, key2, kind2)) = pop_follower(&mut self.queue) else { break };
                self.record_trace(at2, key2, &kind2);
                batch.push(into_item(kind2, at));
            }
            n = batch.len() as u64;
            self.device_mut(device).rx_batch(&mut batch, at, &mut out);
            debug_assert!(batch.is_empty(), "rx_batch must drain its items");
            batch.clear();
            self.batch_scratch = batch;
        } else {
            // Single event (the common case): dispatch directly, skipping
            // the batch buffer and checkpoint machinery entirely.
            n = 1;
            match kind {
                EventKind::Deliver { port, pkt, .. } => {
                    self.device_mut(device).rx(port, pkt, at, &mut out)
                }
                EventKind::Wake { token, .. } => self.device_mut(device).wake(token, at, &mut out),
            }
        }

        self.stats.events += n;
        self.batch_hist[batch_bucket(n)] += 1;
        self.by_kind[self.device(device).device_kind().index()] += n;
        self.flush_segments(device, &mut out, &[]);
        self.scratch = out;
        n
    }

    /// The lookahead-window arm of [`step_batch`](Self::step_batch),
    /// rooted at an event of a device with conservative lookahead `la0`.
    fn step_window(
        &mut self,
        at: SimTime,
        first: EventKind,
        la0: SimTime,
        max: u64,
        t_bound: SimTime,
    ) -> u64 {
        let device = first.device();
        let mut horizon = at.saturating_add(la0);
        let cap = max.min(Self::MAX_BATCH);

        let mut groups = std::mem::take(&mut self.window_groups);
        debug_assert!(groups.is_empty());
        let (items, times) = self.group_pool.pop().unwrap_or_default();
        groups.push(WindowGroup { device, items, times });
        groups[0].items.push(into_item(first, at));
        groups[0].times.push(at);

        let mut n: u64 = 1;
        let mut last_at = at;
        while n < cap {
            let la = &self.lookaheads;
            let popped = self.queue.pop_if(|at2, _key2, kind2| {
                at2 <= t_bound && at2 < horizon && la[kind2.device()] > 0
            });
            let Some((at2, key2, kind2)) = popped else { break };
            self.record_trace(at2, key2, &kind2);
            let d2 = kind2.device();
            let mut gi = usize::MAX;
            for (i, g) in groups.iter().enumerate() {
                if g.device == d2 {
                    gi = i;
                    break;
                }
            }
            if gi == usize::MAX {
                // A joining device tightens the horizon; items already
                // taken are at times ≤ at2 < at2 + lookahead, so they
                // remain inside the tightened window.
                horizon = horizon.min(at2.saturating_add(self.lookaheads[d2]));
                let (items, times) = self.group_pool.pop().unwrap_or_default();
                groups.push(WindowGroup { device: d2, items, times });
                gi = groups.len() - 1;
            }
            groups[gi].items.push(into_item(kind2, at2));
            groups[gi].times.push(at2);
            last_at = at2;
            n += 1;
        }

        // The window is fully collected before any handler runs, so
        // advancing `now` to the last item keeps created-event clamping
        // (`at.max(seg_time)`) and the backwards-queue debug check honest.
        self.now = last_at;
        self.stats.events += n;
        let mut out = std::mem::take(&mut self.scratch);
        for g in &mut groups {
            let len = g.items.len() as u64;
            let dev = g.device;
            let base = g.times[0];
            self.batch_hist[batch_bucket(len)] += 1;
            self.by_kind[self.device(dev).device_kind().index()] += len;
            if len == 1 {
                let item = g.items.pop().expect("single-item group");
                match item {
                    BatchItem::Deliver { port, pkt, at } => {
                        self.device_mut(dev).rx(port, pkt, at, &mut out)
                    }
                    BatchItem::Wake { token, at } => self.device_mut(dev).wake(token, at, &mut out),
                }
                let times = [base];
                self.flush_segments(dev, &mut out, &times);
            } else {
                let mut items = std::mem::take(&mut g.items);
                let times = std::mem::take(&mut g.times);
                self.device_mut(dev).rx_batch(&mut items, base, &mut out);
                debug_assert!(items.is_empty(), "rx_batch must drain its items");
                self.flush_segments(dev, &mut out, &times);
                g.items = items;
                g.times = times;
            }
        }
        self.scratch = out;
        for mut g in groups.drain(..) {
            g.items.clear();
            g.times.clear();
            self.group_pool.push((g.items, g.times));
        }
        self.window_groups = groups;
        n
    }

    /// The key of the next event `device` creates from a handler that ran
    /// at `now`.
    fn next_key(&mut self, now: SimTime, device: DeviceId) -> EvKey {
        let key = EvKey::device(now, device, self.ctrs[device]);
        self.ctrs[device] += 1;
        key
    }

    /// Flushes a batched outbox whose checkpoint segments carry their own
    /// event times: segment `i` (one batch item's output) uses
    /// `times[i]` — falling back to `self.now` past the end of `times` or
    /// when no times were supplied (the same-instant paths) — as the
    /// [`EvKey`] birth and the earliest-schedule clamp, exactly what a
    /// flush right after that item's handler would have used.
    fn flush_segments(&mut self, device: DeviceId, out: &mut Outbox, times: &[SimTime]) {
        // Walk the checkpoint segments (one per batch item; the whole
        // outbox when no checkpoints were recorded), issuing each
        // segment's wakes before its emissions — the same key-assignment
        // and fault-RNG order as flushing after every handler separately.
        let mut wakes = std::mem::take(&mut out.wakes);
        let mut emits = std::mem::take(&mut out.emits);
        let marks = std::mem::take(&mut out.marks);
        let mut wakes_it = wakes.drain(..);
        let mut emits_it = emits.drain(..);
        let (mut w0, mut e0) = (0usize, 0usize);
        let final_mark = std::iter::once((wakes_it.len(), emits_it.len()));
        for (seg, (w1, e1)) in marks.iter().copied().chain(final_mark).enumerate() {
            let seg_now = times.get(seg).copied().unwrap_or(self.now);
            for (token, at) in wakes_it.by_ref().take(w1 - w0) {
                let key = self.next_key(seg_now, device);
                self.queue.push((at.max(seg_now), key, EventKind::Wake { device, token }));
            }
            for (port, mut pkt, at) in emits_it.by_ref().take(e1 - e0) {
                let slot = self.links.get(device).and_then(|ports| ports.get(usize::from(port)));
                let Some(Some(link)) = slot else {
                    self.stats.dangling_emits += 1;
                    continue;
                };
                let link = link.clone();
                if link.drop_chance > 0.0 && self.rng.gen_bool(link.drop_chance) {
                    self.stats.link_drops += 1;
                    continue;
                }
                if link.corrupt_chance > 0.0 && self.rng.gen_bool(link.corrupt_chance) {
                    // Flip one random bit in a random standard header
                    // field — the PHV-level analogue of a byte corruption
                    // on the wire.
                    let f = FieldId(self.rng.gen_range(0..fields::STANDARD_COUNT));
                    let bit = self.rng.gen_range(0..16u32);
                    let v = pkt.phv.get(f) ^ (1 << bit);
                    pkt.phv.set_masked(f, v, 64);
                    self.stats.link_corruptions += 1;
                }
                let mut delay = link.delay;
                if link.jitter > 0 {
                    delay += self.rng.gen_range(0..=link.jitter);
                }
                let key = self.next_key(seg_now, device);
                let ev = (
                    at.max(seg_now) + delay,
                    key,
                    EventKind::Deliver { device: link.peer.0, port: link.peer.1, pkt },
                );
                if link.engine == self.id {
                    self.queue.push(ev);
                } else {
                    self.sends[link.engine as usize].push(ev);
                }
            }
            (w0, e0) = (w1, e1);
        }
        drop(wakes_it);
        drop(emits_it);
        // Hand the (now empty) buffers back so their capacity is reused.
        out.wakes = wakes;
        out.emits = emits;
        out.marks = marks;
        out.marks.clear();
    }

    /// Splits this loop into `n` engine loops, `owner[d]` naming the
    /// engine that gets device `d`: devices move out, queued events follow
    /// their target device, and every engine gets the link table with each
    /// entry's peer engine filled in.  Undone by
    /// [`reassemble`](Self::reassemble).
    pub(crate) fn partition(&mut self, owner: &[u32], n: usize) -> Vec<EventLoop> {
        self.started = true;
        let mut links = self.links.clone();
        for link in links.iter_mut().flatten().flatten() {
            link.engine = owner[link.peer.0];
        }
        let mut engines: Vec<EventLoop> = (0..n)
            .map(|id| EventLoop {
                id: id as u32,
                devices: self.devices.iter().map(|_| None).collect(),
                lookaheads: self.lookaheads.clone(),
                ctrs: self.ctrs.clone(),
                links: links.clone(),
                now: self.now,
                sends: (0..n).map(|_| Vec::new()).collect(),
                // The RNG copy is never drawn from: a world with faulty
                // links stays serial.
                ..EventLoop::new(self.rng.clone(), self.trace_depth)
            })
            .collect();
        for (d, dev) in self.devices.iter_mut().enumerate() {
            engines[owner[d] as usize].devices[d] = dev.take();
        }
        while let Some(ev) = self.queue.pop() {
            engines[owner[ev.2.device()] as usize].queue.push(ev);
        }
        engines
    }

    /// Folds the engines of a finished partitioned run back in: devices
    /// and their counters return to their slots, leftover events are
    /// re-queued, statistics and histograms are summed and the engine
    /// traces merged.
    pub(crate) fn reassemble(&mut self, engines: Vec<EventLoop>) {
        let mut new_trace: Vec<TraceEntry> = Vec::new();
        for mut e in engines {
            debug_assert!(e.sends.iter().all(Vec::is_empty), "engine exited with unsent events");
            self.stats.events += e.stats.events;
            self.stats.dangling_emits += e.stats.dangling_emits;
            for (a, b) in self.batch_hist.iter_mut().zip(e.batch_hist) {
                *a += b;
            }
            for (a, b) in self.by_kind.iter_mut().zip(e.by_kind) {
                *a += b;
            }
            self.engine_peak = self.engine_peak.max(e.queue.wheel.peak_len() as u64);
            for (d, slot) in e.devices.iter_mut().enumerate() {
                if let Some(dev) = slot.take() {
                    self.devices[d] = Some(dev);
                    self.ctrs[d] = e.ctrs[d];
                }
            }
            while let Some(ev) = e.queue.pop() {
                self.queue.push(ev);
            }
            new_trace.append(&mut e.trace);
        }
        debug_assert!(self.devices.iter().all(Option::is_some), "device not returned");
        if self.trace_depth > 0 {
            // Engine traces interleave deterministically by (at, key).
            new_trace.sort_by_key(|t| (t.at, t.key));
            self.trace.append(&mut new_trace);
            let len = self.trace.len();
            if len > self.trace_depth {
                self.trace.drain(..len - self.trace_depth);
            }
        }
    }
}
